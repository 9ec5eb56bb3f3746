"""The four workloads: their inputs, the CLI calls of one round, and checks.

A round is a fixed mix of CLI calls, so every round of a workload does the
same kind of work; the measured loop repeats rounds (cycling through a
pool of distinct inputs) until its time is up.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import Tree, check_parse, check_pipeline, digest
from scenes import FREE_TEXT_TASKS, caption_scene, large_scene, remote_scene

GEN_COUNT = 600
PROBE_COUNT = 100
PIPELINE_FILES = ("initial.tree.txt", "goal.tree.txt", "plan.txt", "initial.dot",
                  "goal.dot", "result.json")
DIGEST_FILES = PIPELINE_FILES[:5]
BATCH_TASKS = (("stack all", {"kind": "stack_all"}),
               ("unstack", {"kind": "unstack"}),
               ("group by material", {"kind": "group_by_material"}))


@dataclass
class Outcome:
    """What one CLI call produced, as judged by the checks."""
    passed: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    moves: list = field(default_factory=list)
    chunks: list = field(default_factory=list)


@dataclass
class Call:
    argv: list
    kind: str          # "scene" (one per call), "batch", "gen" or "probe"
    scenes: int
    check: object      # check(rc, stdout, stderr) -> Outcome
    scene_id: str = ""
    drop_first_reply: bool = False
    slot: int = 0      # position in its round


def _read_outputs(out_dir: Path) -> dict[str, str]:
    files = {}
    for name in PIPELINE_FILES:
        try:
            files[name] = (out_dir / name).read_text()
        except OSError:
            pass
    return files


def _judge(outcome: Outcome, scene_id: str, rc: int, files: dict, problems: list) -> None:
    if rc != 0:
        problems = [f"exit code {rc}"] + problems
    if problems:
        outcome.failed += 1
        outcome.problems.append(f"{scene_id}: {'; '.join(problems)}")
        return
    outcome.passed += 1
    outcome.moves.append(json.loads(files["result.json"])["plan_length"])
    outcome.chunks.extend(files[name] for name in DIGEST_FILES)


def _pipeline_check(scene, out_dir: Path):
    def check(rc, stdout, stderr):
        outcome = Outcome()
        files = _read_outputs(out_dir)
        problems = check_pipeline(files, scene.truth, scene.task, scene.materials,
                                  expected_goal=scene.goal)
        _judge(outcome, scene.record["scene_id"], rc, files, problems)
        return outcome
    return check


def _parse_check(scene):
    def check(rc, stdout, stderr):
        outcome = Outcome()
        problems = ([f"exit code {rc}"] if rc else []) + check_parse(stdout, scene.triplets)
        if problems:
            outcome.failed = 1
            outcome.problems.append(f"{scene.record['scene_id']}: {'; '.join(problems)}")
        else:
            outcome.passed = 1
            outcome.chunks.append(stdout)
        return outcome
    return check


def _dataset_truth(path: Path):
    """Ground truth of a generated record, read with plain JSON."""
    record = json.loads(path.read_text())
    ids = [o["id"] for o in record["objects"]]
    parent = {t["subject"]: t["support"] for t in record["triplets"]}
    roots = [n for n in ids if n not in parent]
    problems = []
    if len(roots) != 1 or len(parent) != len(record["triplets"]) or set(parent) - set(ids):
        problems.append("generated triplets are not one tree over the objects")
    else:
        for node in parent:
            seen, cur = set(), node
            while cur in parent and cur not in seen:
                seen.add(cur)
                cur = parent[cur]
            if cur != roots[0]:
                problems.append(f"{node} does not reach the root")
                break
    materials = {o["id"]: o["material"] for o in record["objects"]}
    return Tree(roots[0] if roots else "", parent, {}), materials, problems


def _gen_check(out_dir: Path, count: int):
    def check(rc, stdout, stderr):
        outcome = Outcome()
        files = sorted(out_dir.glob("*.json"))
        names = [f"scene_{i:04d}.json" for i in range(count)]
        if rc != 0 or [f.name for f in files] != names:
            outcome.failed = 1
            outcome.problems.append(f"gen: exit code {rc}, {len(files)} files")
            return outcome
        for path in files:
            _, _, problems = _dataset_truth(path)
            if problems:
                outcome.failed = 1
                outcome.problems.append(f"gen {path.stem}: {problems[0]}")
                return outcome
            outcome.chunks.append(path.read_bytes())
        outcome.passed = 1
        return outcome
    return check


def _batch_check(dataset: Path, out_root: Path, task: dict):
    def check(rc, stdout, stderr):
        outcome = Outcome()
        for path in sorted(dataset.glob("*.json")):
            truth, materials, problems = _dataset_truth(path)
            files = _read_outputs(out_root / path.stem)
            problems = problems or check_pipeline(files, truth, task, materials)
            _judge(outcome, path.stem, rc, files, problems)
        if rc == 0 and stderr.strip() != f"processed {GEN_COUNT} scenes, 0 failed":
            outcome.problems.append(f"batch summary line: {stderr.strip()!r}")
            outcome.failed += 1
        return outcome
    return check


def _gen_call(seed: int, out_dir: Path, count: int, kind: str) -> Call:
    return Call(["gen", "--seed", str(seed), "--count", str(count), "--out",
                 str(out_dir)], kind, count, _gen_check(out_dir, count))


class Workload:
    """Inputs and rounds of one workload. `prepare` writes the input files."""

    name = ""
    pool_rounds = 1
    ladder: tuple = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.rounds: list[list[Call]] = []

    def gen_probe(self) -> Call:
        """`gen` of the default generator, timed for gen_scenes_per_s."""
        return _gen_call(self.seed, self.work / "probe", PROBE_COUNT, "probe")

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.rounds = []
        for r in range(self.pool_rounds):
            calls = []
            for slot, spec in enumerate(self.ladder):
                scene_id = f"scene_{r:02d}_{slot}"
                scene = self.scene(rng, scene_id, slot, spec)
                path = self.inputs / f"{scene_id}.json"
                path.write_text(json.dumps(scene.record) + "\n")
                call = self.call(scene, path, self.out / f"slot_{slot}", slot)
                call.slot = slot
                calls.append(call)
            self.rounds.append(calls)

    def input_files(self) -> list[Path]:
        return sorted(self.inputs.glob("*.json"))


class BatchSmall(Workload):
    """`gen` of 600 default scenes, then `pipeline --batch` for three tasks."""

    name = "batch_small"

    def prepare(self) -> None:
        dataset = self.work / "gen"
        round_calls = [_gen_call(self.seed, dataset, GEN_COUNT, "gen")]
        # The three batches write over one output tree, as repeated runs would.
        out_root = self.out
        for slot, (prompt, task) in enumerate(BATCH_TASKS, 1):
            round_calls.append(Call(
                ["pipeline", "--batch", str(dataset), "--task", prompt, "--out",
                 str(out_root)], "batch", GEN_COUNT, _batch_check(dataset, out_root, task),
                slot=slot))
        self.rounds = [round_calls]

    def input_files(self) -> list[Path]:
        return sorted((self.work / "gen").glob("*.json"))


class LargeScenes(Workload):
    """One `pipeline` call per scene of 50-200 objects, all four rule tasks."""

    name = "large_scenes"
    pool_rounds = 8
    ladder = tuple(zip((50, 60, 70, 80, 95, 110, 125, 140, 155, 170, 185, 200),
                       ("stack_all", "unstack", "group_by_material", "stack_object") * 3))

    def scene(self, rng, scene_id, slot, spec):
        size, kind = spec
        return large_scene(rng, scene_id, size, kind)

    def call(self, scene, path, out_dir, slot):
        return Call(["pipeline", str(path), "--task", scene.prompt, "--out", str(out_dir)],
                    "scene", 1, _pipeline_check(scene, out_dir), scene.record["scene_id"])


class CaptionIngest(Workload):
    """One `parse` call per caption-only record of 10-200 objects."""

    name = "caption_ingest"
    pool_rounds = 16
    ladder = (10, 20, 40, 60, 90, 120, 160, 200)

    def scene(self, rng, scene_id, slot, size):
        return caption_scene(rng, scene_id, size)

    def call(self, scene, path, out_dir, slot):
        return Call(["parse", str(path)], "scene", 1, _parse_check(scene),
                    scene.record["scene_id"])


class RemoteStub(Workload):
    """One `pipeline --backend remote` call per 10-40-object scene, free-text
    task; every 4th scene's first reply drops an object."""

    name = "remote_stub"
    pool_rounds = 8
    ladder = tuple(range(10, 41, 2))
    prompts = tuple(FREE_TEXT_TASKS)

    def scene(self, rng, scene_id, slot, size):
        return remote_scene(rng, scene_id, size, self.prompts[slot % len(self.prompts)])

    def call(self, scene, path, out_dir, slot):
        return Call(["pipeline", str(path), "--task", scene.prompt, "--backend", "remote",
                     "--out", str(out_dir)], "scene", 1, _pipeline_check(scene, out_dir),
                    scene.record["scene_id"], drop_first_reply=slot % 4 == 3)


WORKLOADS = {w.name: w for w in (BatchSmall, LargeScenes, CaptionIngest, RemoteStub)}


def files_digest(paths: list[Path]) -> str:
    return digest(chunk for p in paths for chunk in (p.name, p.read_bytes()))
