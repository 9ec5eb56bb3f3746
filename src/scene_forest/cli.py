"""Command-line entry point: parse captions, run the pipeline, generate data.

Exit codes: 0 success, 1 internal failure, 2 io error, 3 schema error,
4 parse/tree error, 5 unsupported task, 6 backend error. Stdout carries
data; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import errno
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
from .treetext import serialize_tree, text_table

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
    index = caption_mod.LabelIndex(record.objects)
    triplets = []
    for caption in record.captions:
        if caption.strip():
            triplets.extend(caption_mod.parse_caption(caption, index))
    return triplets


def cmd_parse(args) -> int:
    record = dataset_mod.load_scene_record(str(Path(args.scene)))
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
    if not endpoint.lower().startswith(("http://", "https://")):
        raise BackendError(f"SCENE_FOREST_ENDPOINT must be an http(s) URL, got {endpoint!r}")
    model = os.environ.get("SCENE_FOREST_MODEL") or "gpt-4o"
    return BackendConfig(backend=Backend.REMOTE, endpoint_url=endpoint, model_name=model)


def run_pipeline_for_scene(
    scene_path: str, task_text: str, config: BackendConfig
) -> tuple[dict[str, str], dict] | int:
    """The compute step of one scene: load, build, reorganize, plan, replay
    and render its output texts.

    Returns the five output texts by file name and the `result.json` dict,
    for `_write_scene` to write. On failure it prints the scene's stderr
    lines, prefixed with the scene file's stem, and returns the exit code
    instead, so one bad scene never aborts a batch.
    """
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
        report = build_tree(_scene_triplets(record), record.objects)
        if not report.success:
            scene = Path(scene_path).stem
            for v in report.violations:
                _err(f"{scene}: {v.kind.value}: {v.detail}")
            return EXIT_PARSE
        initial = report.tree
        task = parse_task(task_text, record.objects)
        timed("parse")
        goal = reorganize(initial, task, config)
        timed("reorganize")
        trace = plan_moves(initial, goal)
        verified = execute_plan(initial, trace.plan) == goal
        timed("plan")
        # The goal holds the initial tree's objects: a rule goal shares its
        # `nodes`, and a remote goal's ids were checked against them.
        table = text_table(initial.nodes)
        texts = {
            "initial.tree.txt": serialize_tree(initial, table),
            "goal.tree.txt": serialize_tree(goal, table),
            "plan.txt": trace.plan.to_text(),
            "initial.dot": to_dot(initial, table),
            "goal.dot": to_dot(goal, table),
        }
        timed("write")  # the rendering share; the write step adds its own time
        return texts, {
            "scene_id": record.scene_id,
            "task": task_text,
            "backend": config.backend.value,
            "plan_length": len(trace.plan),
            "staged_moves": trace.staged_moves,
            "verified": verified,
            "timings_ms": timings,
            "diagnostics": [],
        }
    except Exception as exc:
        return _report(exc, Path(scene_path).stem)


def _result_json(result: dict) -> str:
    """`json.dumps(result, indent=2) + "\n"` for `run_pipeline_for_scene`'s
    result, without the pure-Python encoder that `indent` selects.

    The keys are those `run_pipeline_for_scene` builds, in its order, so a
    key added there must be added here. Strings are escaped by `json.dumps`
    and floats spelled by `float.__repr__`, as the encoder does. Stage names and the
    backend are fixed tokens that need no escaping. `diagnostics` is always
    empty, which `json.dumps` lays out alike with and without `indent`.
    """
    timings = ",\n".join(f'    "{stage}": {ms!r}' for stage, ms in result["timings_ms"].items())
    return (
        "{\n"
        f'  "scene_id": {json.dumps(result["scene_id"])},\n'
        f'  "task": {json.dumps(result["task"])},\n'
        f'  "backend": "{result["backend"]}",\n'
        f'  "plan_length": {result["plan_length"]},\n'
        f'  "staged_moves": {result["staged_moves"]},\n'
        f'  "verified": {"true" if result["verified"] else "false"},\n'
        f'  "timings_ms": {{\n{timings}\n  }},\n'
        f'  "diagnostics": {json.dumps(result["diagnostics"])}\n'
        "}\n"
    )


def _child(directory: str, name: str) -> str:
    """`str(Path(directory) / name)`, for a directory already spelled as
    `str(Path(...))` and a name without a slash. The name `""` gives the
    prefix that joins any other name."""
    if name == ".":
        return directory
    return name if directory == "." else os.path.join(directory, name)


def _stem(name: str) -> str:
    """`Path(name).stem` of a file name."""
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def _write_scene(scene: str, out_dir: str, outcome: tuple[dict[str, str], dict] | int) -> int:
    """The write step of one scene: given `run_pipeline_for_scene`'s texts
    and result, create `out_dir`, write them and return the scene's exit
    code; given its exit code, return that and touch nothing.

    Its time is added to the `write` timing when it starts, so a step that
    waited in a queue reports only its own work.
    """
    if isinstance(outcome, int):
        return outcome
    texts, result = outcome
    start = time.perf_counter()
    try:
        # As `Path.mkdir(parents=True, exist_ok=True)`: one syscall when the parent
        # exists, and below a file the error names `out_dir`, where `os.makedirs`
        # would name the first missing directory above it.
        try:
            os.mkdir(out_dir)
        except FileNotFoundError:
            os.makedirs(out_dir, exist_ok=True)
        except OSError:
            if not os.path.isdir(out_dir):
                raise
        prefix = _child(out_dir, "")
        for name, text in texts.items():
            _write_in_place(prefix + name, text)
        result["timings_ms"]["write"] += (time.perf_counter() - start) * 1000.0
        _write_in_place(prefix + "result.json", _result_json(result))
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
    config = _backend_config(args.backend)
    # Paths are strings, spelled once here as `Path` spells them.
    out_root = str(Path(args.out))
    if not args.batch:
        path = Path(args.scene)
        return _write_scene(
            path.stem, out_root, run_pipeline_for_scene(str(path), args.task, config)
        )
    batch = str(Path(args.batch))
    try:
        with os.scandir(batch) as entries:
            names = sorted(entry.name for entry in entries if entry.name.endswith(".json"))
    except OSError as exc:
        # `Path.glob` found no files in a missing, looping, non-directory or
        # unreadable path; any other error is reported.
        if exc.errno not in (errno.ENOENT, errno.ELOOP, errno.ENOTDIR, errno.EACCES):
            raise
        names = []
    if not names:
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

    # A remote scene runs whole on a thread, so round trips overlap. A rule scene
    # is computed here; a thread creates its files while the next one computes,
    # but a rewrite's few cheap syscalls cost more in GIL switches on a thread.
    prefix = _child(batch, "")
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for name in names:
            scene = _stem(name)
            compute = functools.partial(run_pipeline_for_scene, prefix + name, args.task, config)
            write = functools.partial(_write_scene, scene, _child(out_root, scene))
            if remote:
                submit(lambda compute=compute, write=write: write(compute()))
            elif scene in existing:
                codes.append(write(compute()))
            else:
                submit(functools.partial(write, compute()))
        codes.extend(future.result() for future in pending)
    failed = sum(1 for c in codes if c != EXIT_OK)
    _err(f"processed {len(names)} scenes, {failed} failed")
    return max(codes)


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = _child(str(out_dir), "")
    for index in range(args.count):
        record = dataset_mod.generate_synthetic_scene(args.seed, index)
        dataset_mod.save_scene_record(record, f"{prefix}{record.scene_id}.json")
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
    if args.command == "pipeline" and args.batch and args.scene:
        _err("pipeline takes a scene file or --batch directory, not both")
        return EXIT_IO
    if args.command == "pipeline" and not args.batch and args.jobs is not None:
        _err("pipeline --jobs applies only with --batch")
        return EXIT_IO
    try:
        return args.func(args)
    except Exception as exc:
        return _report(exc, Path(args.scene).stem if getattr(args, "scene", None) else None)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
