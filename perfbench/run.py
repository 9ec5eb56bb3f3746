"""scene-forest benchmark: drives the real CLI in-process and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one process each

Run from the repository root. `--trace 0` measures the end-to-end metrics
with nothing wrapped; `--trace 1` measures half the time untraced and half
with spans around the package's public functions, and reports per-layer
metrics plus the tracing overhead. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
nonzero when any output check fails. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 0       # output digests are recorded for this seed
HELD_OUT_SEED = 40961  # kept out of tuning; verify claims on it
SETUP_REPS = 5
GEN_PROBES = 48

E2E_UNITS = {
    "setup_s": "s",
    "scenes_per_s": "scenes/s",
    "scene_ms_p50": "ms",
    "scene_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "captions.parse_ms": "ms", "captions.triplets": "count",
    "dataset.load_ms": "ms", "dataset.generate_ms": "ms", "dataset.save_ms": "ms",
    "gen_scenes_per_s": "scenes/s",
    "treebuild.build_ms": "ms", "treebuild.to_dot_ms": "ms",
    "treebuild.validate_ms": "ms", "treebuild.validate_calls": "count",
    "reorganize.rule_ms": "ms", "reorganize.physical_check_ms": "ms",
    "remote.request_ms": "ms", "remote.stub_ms": "ms", "remote.client_ms": "ms",
    "remote.attempts": "count", "remote.retry_share": "ratio",
    "planner.plan_ms": "ms", "planner.replay_ms": "ms",
    "planner.moves_over_diff": "ratio", "planner.staged_share": "ratio",
    "moves_per_scene": "moves",
    "treetext.serialize_ms": "ms", "treetext.parse_ms": "ms",
    "cli.scene_ms": "ms", "cli.self_ms": "ms", "cli.batch_ms": "ms",
    "tracing.delta_scenes_per_s": "scenes/s",
}
_GEN_SPANS = {"dataset.generate", "dataset.save"}
_PIPELINE_SPANS = _GEN_SPANS | {
    "dataset.load", "treebuild.build", "treebuild.to_dot", "treebuild.validate",
    "planner.plan", "planner.replay", "treetext.serialize", "cli.scene",
    "reorganize.physical_check"}
EXPECTED_SPANS = {
    "batch_small": _PIPELINE_SPANS | {"reorganize.rule", "cli.batch"},
    "large_scenes": _PIPELINE_SPANS | {"reorganize.rule"},
    "caption_ingest": _GEN_SPANS | {"dataset.load", "captions.parse"},
    "remote_stub": _PIPELINE_SPANS | {"reorganize.remote", "remote.request",
                                      "remote.stub", "treetext.parse"},
}


def _err(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


class Tally:
    """Outcomes and samples of one measured phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.scene_runs = 0
        self.passed_runs = 0
        self.slot_seconds: dict[int, list[float]] = {}
        self.slot_scenes: dict[int, int] = {}
        self.scene_ms: list[float] = []
        self.generated = 0
        self.gen_rates: list[float] = []
        self.moves: list[int] = []
        self.chunks: list = []

    def add(self, call, outcome, seconds: float, keep_chunks: bool) -> None:
        self.attempted += outcome.passed + outcome.failed
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        self.moves.extend(outcome.moves)
        if keep_chunks:
            self.chunks.extend(outcome.chunks)
        if call.kind in ("gen", "probe"):
            self.generated += call.scenes
        if call.kind == "probe":
            self.gen_rates.append(call.scenes / seconds)
        if call.kind in ("scene", "batch"):
            self.scene_runs += call.scenes
            self.passed_runs += outcome.passed
            self.scene_ms.append(seconds * 1e3 / call.scenes)
            self.slot_seconds.setdefault(call.slot, []).append(seconds)
            self.slot_scenes[call.slot] = call.scenes

    def scenes_per_s(self) -> float:
        """Scene-runs per second over one round, each call of the round taken
        at its fastest time in this phase; failed scene-runs count as none.

        Load from other tenants of a shared machine only ever adds time, and
        can slow most of a run; the fastest of many repeats of the same call
        is the figure that repeats between runs (the reasoning of `timeit`).
        Latency under that load is what scene_ms_p50 and scene_ms_p90 report.
        """
        seconds = sum(min(v) for v in self.slot_seconds.values())
        return sum(self.slot_scenes.values()) * self.passed_runs / self.scene_runs / seconds


class Bench:
    def __init__(self, workload_cls, seed: int, work: Path):
        self.workload_cls = workload_cls
        self.seed = seed
        self.work = work
        self.stub = None
        self.tracer = None

    # --- set-up ---------------------------------------------------------------

    def set_up(self) -> float:
        """Import the package, write the inputs and start the stub, SETUP_REPS
        times from scratch; return the median set-up time in seconds."""
        from stub import ChatStub

        times = []
        for _ in range(SETUP_REPS):
            if self.stub is not None:
                self.stub.close()
                self.stub = None
            for name in [m for m in sys.modules if m.split(".")[0] == "scene_forest"]:
                del sys.modules[name]
            start = time.perf_counter()
            self.cli = importlib.import_module("scene_forest.cli")
            self.workload = self.workload_cls(self.seed, self.work)
            self.workload.prepare()
            if self.workload.name == "remote_stub":
                self.stub = ChatStub()
            times.append(time.perf_counter() - start)
        if self.stub is not None:
            os.environ["SCENE_FOREST_ENDPOINT"] = self.stub.url
            os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        return statistics.median(times)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
        if self.tracer is not None:
            self.tracer.restore()

    # --- calls ----------------------------------------------------------------

    def execute(self, call, tally: Tally, keep_chunks: bool = False) -> None:
        """Run one CLI call, time it and check its outputs."""
        if self.stub is not None:
            self.stub.drop_next = call.drop_first_reply
        stdout, stderr = io.StringIO(), io.StringIO()
        main = self.cli.main
        if self.tracer is not None:
            self.tracer.scene = call.scene_id or call.kind
            if call.kind == "batch":
                main = lambda argv: self.tracer.call("cli.batch", self.cli.main, argv)  # noqa: E731
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            rc = main(call.argv)
            seconds = time.perf_counter() - start
        if self.stub is not None:
            self.stub.drop_next = False
        outcome = call.check(rc, stdout.getvalue(), stderr.getvalue())
        tally.add(call, outcome, seconds, keep_chunks)
        if self.tracer is not None:
            self.after_traced_call()

    def warm_up(self) -> Tally:
        """One untimed pass: creates the output files, fills caches, and
        yields the outputs whose digest is recorded for the default seed."""
        tally = Tally()
        self.execute(self.workload.gen_probe(), tally, keep_chunks=True)
        for call in self.workload.rounds[0]:
            self.execute(call, tally, keep_chunks=True)
        return tally

    def measure(self, seconds: float) -> Tally:
        """Cycle through the rounds until `seconds` have passed and at least
        one whole round ran, with GEN_PROBES `gen` calls into a directory of
        their own spread evenly over the phase."""
        tally = Tally()
        start = time.perf_counter()
        probes = 0
        rounds = self.workload.rounds
        index = 0
        while True:
            calls = rounds[index % len(rounds)]
            for call in calls:
                now = time.perf_counter()
                if probes < GEN_PROBES and now >= start + probes * seconds / GEN_PROBES:
                    self.execute(self.workload.gen_probe(), tally)
                    probes += 1
                self.execute(call, tally)
                if index and time.perf_counter() >= start + seconds:
                    return tally
            index += 1

    # --- tracing --------------------------------------------------------------

    def start_tracing(self) -> None:
        from spans import Tracer

        # import_module, not `import a.b as c`: the package re-exports a
        # function named `reorganize`, which shadows the submodule attribute.
        captions, dataset, remote, reorganize, treetext, planner = (
            importlib.import_module(f"scene_forest.{name}") for name in
            ("captions", "dataset", "remote", "reorganize", "treetext", "planner"))
        cli = self.cli
        tracer = self.tracer = Tracer()
        self.goals, self.plans = [], []
        self.diff = self.planned = self.staged = self.triplets = 0

        def count_triplets(args, result):
            self.triplets += len(result)

        tracer.wrap(captions, "parse_caption", "captions.parse", hook=count_triplets)
        tracer.wrap(dataset, "load_scene_record", "dataset.load")
        tracer.wrap(dataset, "generate_synthetic_scene", "dataset.generate")
        tracer.wrap(dataset, "save_scene_record", "dataset.save")
        tracer.wrap(cli, "build_tree", "treebuild.build")
        tracer.wrap(cli, "to_dot", "treebuild.to_dot")
        tracer.wrap(reorganize, "validate_tree", "treebuild.validate")
        tracer.wrap(cli, "reorganize", lambda args: "reorganize." + args[2].backend.value,
                    hook=lambda args, goal: self.goals.append(goal))
        tracer.wrap(remote, "request_goal_tree", "remote.request")
        tracer.wrap(cli, "plan_moves", "planner.plan",
                    hook=lambda args, trace: self.plans.append((args[0], args[1], trace)))
        tracer.wrap(cli, "execute_plan", "planner.replay")
        tracer.wrap(cli, "serialize_tree", "treetext.serialize")
        tracer.wrap(remote, "serialize_tree", "treetext.serialize")
        tracer.wrap(treetext, "parse_tree_block", "treetext.parse")
        tracer.wrap(cli, "run_pipeline_for_scene", "cli.scene",
                    scene_of=lambda args: Path(args[0]).stem)
        self.reorganize_mod = reorganize
        self.planner_mod = planner
        if self.stub is not None:
            self.stub.tracer = tracer
            self.stub_requests0, self.stub_dropped0 = self.stub.requests, self.stub.dropped

    def after_traced_call(self) -> None:
        """Physical-constraint check on each goal and plan-quality counts,
        outside the timed CLI call."""
        goals, self.goals = self.goals, []
        plans, self.plans = self.plans, []
        for goal in goals:
            self.tracer.call("reorganize.physical_check",
                             self.reorganize_mod.check_physical_constraints, goal)
        for initial, goal, trace in plans:
            self.diff += len(self.planner_mod.diff_trees(initial, goal))
            self.planned += len(trace.plan)
            self.staged += trace.staged_moves

    def layer_metrics(self, traced: Tally, untraced: Tally) -> tuple[dict, list[str]]:
        from spans import END, NAME, START

        summary = self.tracer.summary()
        scenes = max(traced.scene_runs, 1)
        generated = max(traced.generated, 1)

        def ms(name, per=scenes):
            return summary.get(name, {}).get("ms", 0.0) / per

        remote_scenes = summary.get("remote.request", {}).get("calls", 0)
        attempts = retries = injected = 0
        if self.stub is not None:
            attempts = self.stub.requests - self.stub_requests0
            injected = self.stub.dropped - self.stub_dropped0
            retries = attempts - remote_scenes
        batch = [(r[END] - r[START]) * 1e3 for r in self.tracer.spans if r[NAME] == "cli.batch"]
        values = {
            "captions.parse_ms": ms("captions.parse"),
            "captions.triplets": self.triplets / scenes,
            "dataset.load_ms": ms("dataset.load"),
            "dataset.generate_ms": ms("dataset.generate", generated),
            "dataset.save_ms": ms("dataset.save", generated),
            "gen_scenes_per_s": statistics.median(untraced.gen_rates),
            "treebuild.build_ms": ms("treebuild.build"),
            "treebuild.to_dot_ms": ms("treebuild.to_dot"),
            "treebuild.validate_ms": ms("treebuild.validate"),
            "treebuild.validate_calls":
                summary.get("treebuild.validate", {}).get("calls", 0) / scenes,
            "reorganize.rule_ms": ms("reorganize.rule"),
            "reorganize.physical_check_ms": ms("reorganize.physical_check"),
            "remote.request_ms": ms("remote.request"),
            "remote.stub_ms": ms("remote.stub"),
            "remote.client_ms": ms("remote.request") - ms("remote.stub"),
            "remote.attempts": attempts / scenes,
            "remote.retry_share": retries / attempts if attempts else 0.0,
            "planner.plan_ms": ms("planner.plan"),
            "planner.replay_ms": ms("planner.replay"),
            "planner.moves_over_diff": self.planned / self.diff if self.diff else 0.0,
            "planner.staged_share": self.staged / self.planned if self.planned else 0.0,
            "moves_per_scene": statistics.fmean(traced.moves) if traced.moves else 0.0,
            "treetext.serialize_ms": ms("treetext.serialize"),
            "treetext.parse_ms": ms("treetext.parse"),
            "cli.scene_ms": ms("cli.scene"),
            "cli.self_ms": summary.get("cli.scene", {}).get("self_ms", 0.0) / scenes,
            "cli.batch_ms": statistics.median(batch) if batch else 0.0,
            "tracing.delta_scenes_per_s": traced.scenes_per_s() - untraced.scenes_per_s(),
        }
        problems = [f"expected span {name} never fired"
                    for name in sorted(EXPECTED_SPANS[self.workload.name] - set(summary))]
        if retries != injected:
            problems.append(f"{retries} re-prompts for {injected} injected bad replies")
        return values, problems


# --- metadata -----------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def metadata(bench: Bench, args, inputs_sha: str, outputs_sha: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workdir_fs": filesystem_of(bench.work),
        "inputs_sha256": inputs_sha,
        "outputs_sha256": outputs_sha,
    }


# --- one workload --------------------------------------------------------------

def decile(samples: list[float], d: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[d - 1]


def run_workload(args) -> int:
    if not (ROOT / "src" / "scene_forest" / "__init__.py").is_file():
        _err(f"no package source at {ROOT / 'src' / 'scene_forest'}; run from a checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import digest, self_test
    from workloads import WORKLOADS, files_digest

    work = STATE / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    try:
        setup_s = bench.set_up()
        package = Path(bench.cli.__file__).resolve()
        if ROOT / "src" not in package.parents:
            _err(f"imported scene_forest from {package}, not from this checkout")
            return 2
        warm = bench.warm_up()
        inputs_sha = files_digest(bench.workload.input_files())
        outputs_sha = digest(warm.chunks)
        warm.chunks = []
        if args.trace:
            untraced = bench.measure(args.seconds / 2)
            bench.start_tracing()
            measured = bench.measure(args.seconds / 2)
            values, problems = bench.layer_metrics(measured, untraced)
            units = LAYER_UNITS
            spans = bench.tracer.spans
        else:
            measured = untraced = bench.measure(args.seconds)
            problems = []
            values = {
                "setup_s": setup_s,
                "scenes_per_s": measured.scenes_per_s(),
                "scene_ms_p50": statistics.median(measured.scene_ms),
                "scene_ms_p90": decile(measured.scene_ms, 9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = E2E_UNITS
            spans = None
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    tallies = (warm, untraced) if measured is untraced else (warm, untraced, measured)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems] + problems
    problems += [f"self-test: {p}" for p in self_test()]
    if args.seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload)
        if outputs_sha != recorded:
            problems.append(f"outputs at the default seed have digest {outputs_sha}, "
                            f"recorded {recorded}")
    correct = not problems
    meta = metadata(bench, args, inputs_sha, outputs_sha)
    meta.update(failed_share=failed / attempted, problems=problems[:50])
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    STATE.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (STATE / f"{stem}.json").write_text(json.dumps(
        dict(report, metadata=meta, scene_ms_samples=measured.scene_ms,
             gen_scenes_per_s_samples=measured.gen_rates), indent=1))
    if spans is not None:
        (STATE / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "scene"], "spans": spans}))
    _err("metadata " + json.dumps(meta))
    for problem in problems[:10]:
        _err(f"CHECK FAILED {problem}")
    _err(f"{args.workload}: failed_share {failed / attempted:.4g} ratio "
         f"({failed} of {attempted})")
    for name, value in values.items():
        _err(f"{args.workload}: {name} {value:.6g} {units[name]}")
    print(json.dumps(report))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    for name, result in results.items():
        if result is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="batch_small, large_scenes, caption_ingest, remote_stub or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
