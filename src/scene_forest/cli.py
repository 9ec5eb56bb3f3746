"""Command-line entry point: parse captions, run the pipeline, generate data.

Exit codes: 0 success, 1 internal failure, 2 io error, 3 schema error,
4 parse/tree error, 5 unsupported task, 6 backend error. Stdout carries
data; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import captions as caption_mod
from . import dataset as dataset_mod
from .errors import (
    BackendError,
    CaptionError,
    DomainError,
    InvalidGoal,
    IoError,
    SceneForestError,
    SchemaError,
    UnsupportedTask,
)
from .model import SceneRecord, SceneTree, TaskKind, TaskSpec
from .planner import execute_plan, plan_moves
from .reorganize import Backend, BackendConfig, reorganize
from .treebuild import build_tree, to_dot
from .treetext import serialize_tree

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_PARSE = 4
EXIT_UNSUPPORTED_TASK = 5
EXIT_BACKEND = 6


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def parse_task(prompt: str, registry) -> TaskSpec:
    """Map the closed task phrasings to structured kinds, else free text."""
    text = prompt.strip().lower().rstrip(".!")
    if text in ("stack all", "stack everything"):
        return TaskSpec(kind=TaskKind.STACK_ALL, raw_prompt=prompt)
    if text in ("unstack", "unstack all", "unstack everything"):
        return TaskSpec(kind=TaskKind.UNSTACK_ALL, raw_prompt=prompt)
    if text == "group by material":
        return TaskSpec(kind=TaskKind.GROUP_BY_MATERIAL, raw_prompt=prompt)
    match = re.fullmatch(r"stack (the .+)", text)
    if match:
        target = caption_mod.resolve_reference(match.group(1), registry)
        return TaskSpec(kind=TaskKind.STACK_OBJECT, raw_prompt=prompt, target=target)
    return TaskSpec(kind=TaskKind.FREE_TEXT, raw_prompt=prompt)


def _scene_triplets(record: SceneRecord):
    if record.triplets is not None:
        return list(record.triplets)
    registry = record.registry()
    triplets = []
    for caption in record.captions:
        if caption.strip():
            triplets.extend(caption_mod.parse_caption(caption, registry))
    return triplets


def cmd_parse(args) -> int:
    try:
        record = dataset_mod.load_scene_record(args.scene)
    except IoError as exc:
        _err(str(exc))
        return EXIT_IO
    except (SchemaError, DomainError) as exc:
        _err(str(exc))
        return EXIT_SCHEMA
    try:
        triplets = _scene_triplets(record)
    except CaptionError as exc:
        span = f" at {exc.span}" if exc.span else ""
        _err(f"parse error{span}: {exc}")
        return EXIT_PARSE
    for t in triplets:
        print(json.dumps(
            {"subject": t.subject, "predicate": t.predicate.value, "support": t.support}
        ))
    return EXIT_OK


def _backend_config(backend_name: str) -> BackendConfig:
    if backend_name == "rule":
        return BackendConfig(backend=Backend.RULE)
    endpoint = os.environ.get("SCENE_FOREST_ENDPOINT")
    if not endpoint:
        raise BackendError(
            "remote backend requires SCENE_FOREST_ENDPOINT to be set"
        )
    model = os.environ.get("SCENE_FOREST_MODEL", "gpt-4o")
    return BackendConfig(backend=Backend.REMOTE, endpoint_url=endpoint, model_name=model)


def run_pipeline_for_scene(
    scene_path: Path, task_text: str, backend_name: str, out_dir: Path
) -> int:
    timings: dict[str, float] = {}

    def timed(stage):
        timings[stage] = (time.perf_counter() - start) * 1000.0

    try:
        start = time.perf_counter()
        record = dataset_mod.load_scene_record(scene_path)
        timed("load")
    except IoError as exc:
        _err(str(exc))
        return EXIT_IO
    except (SchemaError, DomainError) as exc:
        _err(str(exc))
        return EXIT_SCHEMA

    try:
        start = time.perf_counter()
        triplets = _scene_triplets(record)
        report = build_tree(triplets, record.registry())
        if not report.success:
            for v in report.violations:
                _err(f"{v.kind.value}: {v.detail}")
            return EXIT_PARSE
        initial: SceneTree = report.tree
        task = parse_task(task_text, record.registry())
        timed("parse")
    except CaptionError as exc:
        _err(f"parse error: {exc}")
        return EXIT_PARSE

    try:
        start = time.perf_counter()
        config = _backend_config(backend_name)
        goal = reorganize(initial, task, config)
        timed("reorganize")
    except UnsupportedTask as exc:
        _err(str(exc))
        return EXIT_UNSUPPORTED_TASK
    except (BackendError, InvalidGoal) as exc:
        _err(str(exc))
        return EXIT_BACKEND

    start = time.perf_counter()
    trace = plan_moves(initial, goal)
    verified = execute_plan(initial, trace.plan) == goal
    timed("plan")

    start = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        (out_dir / "initial.tree.txt").write_text(serialize_tree(initial))
        (out_dir / "goal.tree.txt").write_text(serialize_tree(goal))
        (out_dir / "plan.txt").write_text(trace.plan.to_text())
        (out_dir / "initial.dot").write_text(to_dot(initial))
        (out_dir / "goal.dot").write_text(to_dot(goal))
        timed("write")
        result = {
            "scene_id": record.scene_id,
            "task": task_text,
            "backend": backend_name,
            "plan_length": len(trace.plan),
            "staged_moves": trace.staged_moves,
            "verified": verified,
            "timings_ms": timings,
            "diagnostics": [],
        }
        (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_IO
    if not verified:
        _err("plan execution did not reach the goal tree")
        return EXIT_FAIL
    return EXIT_OK


def cmd_pipeline(args) -> int:
    out_root = Path(args.out)
    if args.batch:
        scene_files = sorted(Path(args.batch).glob("*.json"))
        if not scene_files:
            _err(f"no scene files in {args.batch}")
            return EXIT_IO

        def run_one(path: Path) -> int:
            return run_pipeline_for_scene(
                path, args.task, args.backend, out_root / path.stem
            )

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(run_one, scene_files))
        failed = sum(1 for c in codes if c != EXIT_OK)
        _err(f"processed {len(codes)} scenes, {failed} failed")
        return EXIT_OK if failed == 0 else max(codes)
    return run_pipeline_for_scene(Path(args.scene), args.task, args.backend, out_root)


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    config = dataset_mod.GeneratorConfig(seed=args.seed)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for index in range(args.count):
            record = dataset_mod.generate_synthetic_scene(config, index)
            dataset_mod.save_scene_record(record, out_dir / f"{record.scene_id}.json")
    except (OSError, IoError) as exc:
        _err(str(exc))
        return EXIT_IO
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scene-forest",
        description="Caption-to-tree parsing, task reorganization, and planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="print a scene's triplets as JSON lines")
    p_parse.add_argument("scene", help="scene record JSON file")
    p_parse.set_defaults(func=cmd_parse)

    p_pipe = sub.add_parser("pipeline", help="run parse -> reorganize -> plan")
    p_pipe.add_argument("scene", nargs="?", help="scene record JSON file")
    p_pipe.add_argument("--task", required=True, help='task prompt, e.g. "stack all"')
    p_pipe.add_argument("--backend", choices=("rule", "remote"), default="rule")
    p_pipe.add_argument("--out", required=True, help="output directory")
    p_pipe.add_argument("--batch", help="process every scene file in this directory")
    p_pipe.add_argument("--jobs", type=_positive_int, default=4, help="batch worker count")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "pipeline" and not args.batch and not args.scene:
        _err("pipeline requires a scene file or --batch directory")
        return EXIT_IO
    try:
        return args.func(args)
    except SceneForestError as exc:
        _err(str(exc))
        return EXIT_FAIL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
