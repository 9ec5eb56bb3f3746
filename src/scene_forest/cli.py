"""Command-line entry point: parse captions, run the pipeline, generate data.

Exit codes: 0 success, 1 internal failure, 2 io error, 3 schema error,
4 parse/tree error, 5 unsupported task, 6 backend error. Stdout carries
data; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import captions as caption_mod
from . import dataset as dataset_mod
from .dataset import _write_in_place
from .errors import (
    BackendError,
    CaptionError,
    DomainError,
    InvalidGoal,
    IoError,
    SchemaError,
    UnsupportedTask,
)
from .model import SceneRecord
from .planner import execute_plan, plan_moves
from .reorganize import Backend, BackendConfig, parse_task, reorganize
from .treebuild import build_tree, to_dot
from .treetext import serialize_tree

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_PARSE = 4
EXIT_UNSUPPORTED_TASK = 5
EXIT_BACKEND = 6

# Exception class -> exit code; the first match wins, anything else is EXIT_FAIL.
_EXIT_CODES = (
    ((IoError, OSError), EXIT_IO),
    ((SchemaError, DomainError), EXIT_SCHEMA),
    (CaptionError, EXIT_PARSE),
    (UnsupportedTask, EXIT_UNSUPPORTED_TASK),
    ((BackendError, InvalidGoal), EXIT_BACKEND),
)


def _err(message: str) -> None:
    # One write per line, so lines from the batch's threads never interleave.
    sys.stderr.write(f"{message}\n")


def _report(exc: Exception, scene: str | None = None) -> int:
    """Print `[scene: ]<ErrorType>[ at span]: <message>` and return its exit code."""
    span = getattr(exc, "span", None)
    line = f"{type(exc).__name__}{f' at {span}' if span else ''}: {exc}"
    _err(f"{scene}: {line}" if scene else line)
    return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), EXIT_FAIL)


def _scene_triplets(record: SceneRecord):
    if record.triplets is not None:
        return list(record.triplets)
    index = caption_mod.LabelIndex(record.registry())
    triplets = []
    for caption in record.captions:
        if caption.strip():
            triplets.extend(caption_mod.parse_caption(caption, index))
    return triplets


def cmd_parse(args) -> int:
    record = dataset_mod.load_scene_record(args.scene)
    # json.dumps's layout, unescaped: ids match model._ID_RE, predicates are fixed tokens.
    sys.stdout.write("".join([
        f'{{"subject": "{t.subject}", "predicate": "{t.predicate.value}", '
        f'"support": "{t.support}"}}\n'
        for t in _scene_triplets(record)
    ]))
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
    scene_path: Path, task_text: str, backend_name: str, out_dir: Path, hand_off=None
) -> int:
    """Run one scene end to end and return its exit code.

    The compute step (load, build, reorganize, plan, replay and rendering
    of the output texts) runs here; the write step runs inline, or, when
    `hand_off` is given, is passed to it as a no-argument callable that
    returns the scene's exit code, and this call returns EXIT_OK. A batch
    submits each remote scene's whole call to its `--jobs` threads, and
    runs each rule scene on the calling thread, passing its `submit` as
    `hand_off` only when `out_dir` is new: creating files overlaps with
    computing, but a rewrite's few cheap syscalls cost more in GIL
    switches on a thread. Every failure, expected or not, becomes stderr
    lines prefixed with the scene file's stem, so one bad scene never
    aborts a batch.
    """
    scene = Path(scene_path).stem
    timings: dict[str, float] = {}
    lap = time.perf_counter()

    def timed(stage):
        nonlocal lap
        now = time.perf_counter()
        timings[stage] = (now - lap) * 1000.0
        lap = now

    try:
        record = dataset_mod.load_scene_record(scene_path)
        timed("load")
        report = build_tree(_scene_triplets(record), record.registry())
        if not report.success:
            for v in report.violations:
                _err(f"{scene}: {v.kind.value}: {v.detail}")
            return EXIT_PARSE
        initial = report.tree
        task = parse_task(task_text, record.registry())
        timed("parse")
        goal = reorganize(initial, task, _backend_config(backend_name))
        timed("reorganize")
        trace = plan_moves(initial, goal)
        verified = execute_plan(initial, trace.plan) == goal
        timed("plan")
        texts = {
            "initial.tree.txt": serialize_tree(initial),
            "goal.tree.txt": serialize_tree(goal),
            "plan.txt": trace.plan.to_text(),
            "initial.dot": to_dot(initial),
            "goal.dot": to_dot(goal),
        }
        timed("write")  # the rendering share; the write step adds its own time
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
    except Exception as exc:
        return _report(exc, scene)
    job = functools.partial(_write_scene, scene, out_dir, texts, result)
    if hand_off is None:
        return job()
    hand_off(job)
    return EXIT_OK


def _write_scene(scene: str, out_dir: Path, texts: dict[str, str], result: dict) -> int:
    """The write step of one scene: create `out_dir`, write `texts` and
    `result.json`, and return the scene's exit code.

    Its time is added to the `write` timing when it starts, so a step that
    waited in a queue reports only its own work.
    """
    start = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            _write_in_place(out_dir / name, text)
        result["timings_ms"]["write"] += (time.perf_counter() - start) * 1000.0
        _write_in_place(out_dir / "result.json", json.dumps(result, indent=2) + "\n")
    except Exception as exc:
        return _report(exc, scene)
    if not result["verified"]:
        _err(f"{scene}: plan execution did not reach the goal tree")
        return EXIT_FAIL
    return EXIT_OK


# `--jobs` when it is not given. A rule batch's threads only create new scene
# directories and write their files: on a fresh `--out` two beat one, and four
# were no faster. A remote batch's threads run whole scenes, overlapping their
# HTTP round trips.
_DEFAULT_JOBS = {"rule": 2, "remote": 4}

# Jobs a batch may have submitted but not finished, per `--jobs` thread. The
# cap bounds the rendered texts a rule batch holds in memory.
_BACKLOG_PER_JOB = 4


def cmd_pipeline(args) -> int:
    out_root = Path(args.out)
    if not args.batch:
        return run_pipeline_for_scene(Path(args.scene), args.task, args.backend, out_root)
    scene_files = sorted(Path(args.batch).glob("*.json"))
    if not scene_files:
        _err(f"no scene files in {args.batch}")
        return EXIT_IO

    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    remote = args.backend == "remote"
    existing: set[str] = set()
    if not remote:
        try:
            with os.scandir(out_root) as entries:
                existing = {entry.name for entry in entries if entry.is_dir()}
        except OSError:  # no `--out` yet, or not a directory: the write steps report it
            pass
    jobs = args.jobs or _DEFAULT_JOBS[args.backend]
    codes: list[int] = []
    pending: deque = deque()

    def submit(job) -> None:
        if len(pending) >= _BACKLOG_PER_JOB * jobs:
            codes.append(pending.popleft().result())
        pending.append(pool.submit(job))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for path in scene_files:
            scene = functools.partial(
                run_pipeline_for_scene, path, args.task, args.backend, out_root / path.stem
            )
            if remote:
                submit(scene)
            else:
                codes.append(scene(None if path.stem in existing else submit))
        codes.extend(future.result() for future in pending)
    failed = sum(1 for c in codes if c != EXIT_OK)
    _err(f"processed {len(scene_files)} scenes, {failed} failed")
    return max(codes)


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    config = dataset_mod.GeneratorConfig(seed=args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        record = dataset_mod.generate_synthetic_scene(config, index)
        dataset_mod.save_scene_record(record, out_dir / f"{record.scene_id}.json")
    return EXIT_OK


def _int_at_least(minimum: int):
    """An argparse `type` for integers of at least `minimum`; any other
    value is a usage error (exit 2) naming the option."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value
    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later `main` calls.

    Parsing leaves the parser unchanged, so one instance serves every call;
    building it lazily keeps it out of the module's import time.
    """
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
    p_pipe.add_argument(
        "--jobs", type=_int_at_least(1),
        help="batch threads: writers of new scene directories, default 2 (existing "
        "ones are rewritten on the calling thread); whole-scene workers with "
        "--backend remote, default 4",
    )
    p_pipe.set_defaults(func=cmd_pipeline)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=_int_at_least(0), required=True)
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
    except Exception as exc:
        return _report(exc, Path(args.scene).stem if args.command == "parse" else None)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
