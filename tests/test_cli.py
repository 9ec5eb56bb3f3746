import contextlib
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from scene_forest import cli as cli_mod
from scene_forest import dataset as dataset_mod
from scene_forest.cli import (
    EXIT_BACKEND,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_UNSUPPORTED_TASK,
    _scene_triplets,
    build_parser,
    main,
)
from scene_forest.dataset import generate_synthetic_scene, save_scene_record
from scene_forest.errors import AmbiguousReference
from scene_forest.model import (
    FRAGILITY_LEVELS,
    MATERIALS,
    SceneRecord,
    SpatialPredicate,
    SpatialTriplet,
    TaskKind,
    canonicalize_id,
)
from scene_forest.reorganize import Backend, BackendConfig, parse_task, reorganize
from scene_forest.treebuild import build_tree
from scene_forest.treetext import serialize_tree

from conftest import make_object, make_table


PIPELINE_OUTPUTS = (
    "initial.tree.txt", "goal.tree.txt", "plan.txt", "initial.dot", "goal.dot", "result.json",
)


@pytest.fixture
def scene_file(tmp_path):
    record = generate_synthetic_scene(0, 0)
    path = tmp_path / "scene_0000.json"
    save_scene_record(record, path)
    return path


class TestParseTask:
    def test_stack_all(self):
        assert parse_task("Stack all", []).kind is TaskKind.STACK_ALL

    def test_unstack(self):
        assert parse_task("unstack", []).kind is TaskKind.UNSTACK_ALL

    def test_group_by_material(self):
        assert parse_task("group by material", []).kind is TaskKind.GROUP_BY_MATERIAL

    def test_stack_object(self):
        registry = [make_table(), make_object("book_1")]
        task = parse_task("stack the book", registry)
        assert task.kind is TaskKind.STACK_OBJECT
        assert task.target == "book_1"

    def test_stack_object_ambiguous(self):
        registry = [make_object("cup_1"), make_object("cup_2")]
        with pytest.raises(AmbiguousReference):
            parse_task("stack the cup", registry)

    def test_free_text(self):
        assert parse_task("make it tidy", []).kind is TaskKind.FREE_TEXT


class TestCmdParse:
    def test_valid_scene(self, scene_file, capsys):
        assert main(["parse", str(scene_file)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"subject", "predicate", "support"}

    def test_missing_file(self, tmp_path):
        assert main(["parse", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"scene_id": "x"}')
        assert main(["parse", str(path)]) == EXIT_SCHEMA

    def test_parse_error(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "scene_id": "scene_0001",
            "objects": [
                {"id": "table_1", "label": "table", "fragility": "low",
                 "mass_grams": 12000, "material": "wood", "transparency": "opaque"},
            ],
            "captions": ["The vase is on the table."],
        }))
        assert main(["parse", str(path)]) == EXIT_PARSE


@st.composite
def parse_records(draw) -> SceneRecord:
    """A record of a random forest on `table_1`, with labels holding digits
    and underscores, ordinals past the tenth and both predicates; either
    caption-only or with cached triplets."""
    labels = draw(st.lists(
        st.sampled_from(["cup", "box2", "mug_b", "pen"]), min_size=1, max_size=12
    ))
    ordinals: dict = {}
    objects = [make_table()]
    for label in labels:
        ordinals[label] = ordinals.get(label, 0) + draw(st.integers(1, 6))
        objects.append(make_object(f"{label}_{ordinals[label]}", label=label))
    triplets = []
    for i, obj in enumerate(objects[1:], start=1):
        support = objects[draw(st.integers(0, i - 1))].id
        predicate = draw(st.sampled_from(SpatialPredicate))
        triplets.append(SpatialTriplet(subject=obj.id, predicate=predicate, support=support))
    relation = {SpatialPredicate.ON: "on", SpatialPredicate.ON_TOP_OF: "on top of"}
    captions = tuple(
        f"The {t.subject} is {relation[t.predicate]} the {t.support}." for t in triplets
    )
    cached = draw(st.booleans())
    return SceneRecord(
        scene_id="scene_0000",
        objects=tuple(objects),
        captions=captions,
        triplets=tuple(triplets) if cached else None,
    )


def _parse_stdout(record: SceneRecord, directory: str) -> str:
    path = Path(directory) / "scene.json"
    save_scene_record(record, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["parse", str(path)]) == EXIT_OK
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(record=parse_records())
def test_parse_output_is_json_dumps_per_triplet(record):
    with tempfile.TemporaryDirectory() as directory:
        stdout = _parse_stdout(record, directory)
    assert stdout == "".join(
        json.dumps({"subject": t.subject, "predicate": t.predicate.value, "support": t.support})
        + "\n"
        for t in _scene_triplets(record)
    )


def test_parse_of_empty_triplet_list_prints_nothing(tmp_path):
    record = SceneRecord(
        scene_id="scene_0000", objects=(make_table(),), captions=(), triplets=()
    )
    assert _parse_stdout(record, str(tmp_path)) == ""


class TestCmdPipeline:
    def test_unstack(self, scene_file, tmp_path):
        out = tmp_path / "out"
        assert main([
            "pipeline", str(scene_file), "--task", "unstack", "--out", str(out)
        ]) == EXIT_OK
        goal = (out / "goal.tree.txt").read_text()
        # Every object line sits at depth 1 under the root line.
        body = goal.splitlines()[2:-1]
        assert all(line.startswith("  ") and not line.startswith("    ")
                   for line in body)
        result = json.loads((out / "result.json").read_text())
        assert result["verified"] is True
        assert list(result["timings_ms"]) == ["load", "parse", "reorganize", "plan", "write"]
        for name in ("initial.tree.txt", "plan.txt", "initial.dot", "goal.dot"):
            assert (out / name).exists()

    def test_stack_object_task(self, tmp_path):
        record = generate_synthetic_scene(2, 1)
        label = record.objects[1].label
        path = tmp_path / "scene.json"
        save_scene_record(record, path)
        out = tmp_path / "out"
        code = main([
            "pipeline", str(path), "--task", f"stack the {label}", "--out", str(out)
        ])
        assert code in (EXIT_OK, EXIT_PARSE)  # EXIT_PARSE only if label ambiguous

    def test_free_text_on_rule_backend(self, scene_file, tmp_path):
        code = main([
            "pipeline", str(scene_file), "--task", "make it tidy",
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_UNSUPPORTED_TASK

    def test_plan_matches_goal(self, scene_file, tmp_path):
        out = tmp_path / "out"
        assert main([
            "pipeline", str(scene_file), "--task", "stack all", "--out", str(out)
        ]) == EXIT_OK
        plan_lines = (out / "plan.txt").read_text().splitlines()
        assert all(line.startswith("MOVE ") and " ONTO " in line
                   for line in plan_lines)

    def test_batch(self, tmp_path):
        data = tmp_path / "ds"
        assert main(["gen", "--seed", "1", "--count", "5",
                     "--out", str(data)]) == EXIT_OK
        out = tmp_path / "out"
        assert main([
            "pipeline", "--batch", str(data), "--task", "stack all",
            "--out", str(out),
        ]) == EXIT_OK
        results = sorted(out.glob("*/result.json"))
        assert len(results) == 5
        for result in results:
            timings = json.loads(result.read_text())["timings_ms"]
            assert list(timings) == ["load", "parse", "reorganize", "plan", "write"]

    def test_batch_runs_past_malformed_record(self, tmp_path, monkeypatch, capsys):
        # Constant stage timings make result.json byte-for-byte repeatable.
        monkeypatch.setattr(cli_mod, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        data, single = tmp_path / "ds", tmp_path / "single"
        assert main(["gen", "--seed", "1", "--count", "20",
                     "--out", str(data)]) == EXIT_OK
        bad = data / "scene_0002.json"
        record = json.loads(bad.read_text())
        record["objects"][1]["mass_grams"] = 10**400
        bad.write_text(json.dumps(record))
        faulty = ("scene_0002", "scene_0011")
        good = [p for p in sorted(data.glob("*.json")) if p.stem not in faulty]
        for path in good:
            argv = ["pipeline", str(path), "--task", "stack all", "--out", str(single / path.stem)]
            assert main(argv) == EXIT_OK
        for run, jobs in enumerate((["--jobs", "1"], [])):
            out = tmp_path / f"out{run}"
            out.mkdir()
            # A regular file where the write step must create a scene's directory.
            (out / "scene_0011").write_text("")
            failures = ["scene_0002: SchemaError: mass_grams", "scene_0011: FileExistsError: "]
            # The first round creates the scene directories on the `--jobs`
            # threads; the second rewrites the existing ones on the calling thread.
            for round_ in ("fresh", "rewrite"):
                if round_ == "rewrite":
                    # Both fail on the calling thread: scene_0002 to load, and
                    # scene_0005's write step on a directory named plan.txt.
                    (out / "scene_0002").mkdir()
                    (out / "scene_0005" / "plan.txt").unlink()
                    (out / "scene_0005" / "plan.txt").mkdir()
                    failures.insert(1, "scene_0005: IsADirectoryError: ")
                capsys.readouterr()
                assert main([
                    "pipeline", "--batch", str(data), "--task", "stack all",
                    "--out", str(out), *jobs,
                ]) == EXIT_SCHEMA
                assert sorted(p.parent.name for p in out.glob("*/result.json")) == [
                    p.stem for p in good
                ]
                if round_ == "fresh":
                    assert not (out / "scene_0002").exists(), jobs
                lines = capsys.readouterr().err.splitlines()
                assert len(lines) == len(failures) + 1, (jobs, round_)
                for line, start in zip(lines, failures):
                    assert line.startswith(start), (jobs, round_)
                assert lines[-1] == f"processed 20 scenes, {len(failures)} failed"
                for path in good:
                    if round_ == "rewrite" and path.stem == "scene_0005":
                        continue
                    for name in PIPELINE_OUTPUTS:
                        assert (out / path.stem / name).read_bytes() == (
                            single / path.stem / name
                        ).read_bytes(), (jobs, round_, path.stem, name)

    def test_batch_writes_existing_scenes_inline_and_new_ones_on_threads(
        self, tmp_path, monkeypatch, capsys
    ):
        # Constant stage timings make result.json byte-for-byte repeatable.
        monkeypatch.setattr(cli_mod, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        data, single, out = tmp_path / "ds", tmp_path / "single", tmp_path / "out"
        assert main(["gen", "--seed", "1", "--count", "12", "--out", str(data)]) == EXIT_OK
        scenes = sorted(p.stem for p in data.glob("*.json"))
        for scene in scenes:
            argv = ["pipeline", str(data / f"{scene}.json"), "--task", "stack all"]
            assert main(argv + ["--out", str(single / scene)]) == EXIT_OK
        write = cli_mod._write_in_place
        writers: dict[str, set[int]] = {}

        def recorded_write(path, text):
            writers.setdefault(Path(path).parent.name, set()).add(threading.get_ident())
            write(path, text)

        monkeypatch.setattr(cli_mod, "_write_in_place", recorded_write)
        caller = threading.get_ident()
        # A fresh `--out`, the same `--out` again, then with half its scene
        # directories removed: the scenes in `inline` exist when the batch starts.
        for inline in (set(), set(scenes), set(scenes[::2])):
            for scene in set(scenes) - inline:
                shutil.rmtree(out / scene, ignore_errors=True)
            writers.clear()
            capsys.readouterr()
            assert main([
                "pipeline", "--batch", str(data), "--task", "stack all", "--out", str(out),
            ]) == EXIT_OK
            assert capsys.readouterr().err.splitlines() == [
                f"processed {len(scenes)} scenes, 0 failed"
            ]
            assert sorted(writers) == scenes
            for scene in scenes:
                if scene in inline:
                    assert writers[scene] == {caller}, scene
                else:
                    assert caller not in writers[scene], scene
                for name in PIPELINE_OUTPUTS:
                    assert (out / scene / name).read_bytes() == (
                        single / scene / name
                    ).read_bytes(), (len(inline), scene, name)

    def test_out_is_existing_file(self, scene_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main([
            "pipeline", str(scene_file), "--task", "stack all", "--out", str(out)
        ]) == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scene_0000: FileExistsError: ")

    def test_rewrite_over_longer_outputs_leaves_no_stale_tail(
        self, scene_file, tmp_path, monkeypatch
    ):
        # Constant stage timings make result.json byte-for-byte repeatable.
        monkeypatch.setattr(cli_mod, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        argv = ["pipeline", str(scene_file), "--task", "stack all", "--out"]
        assert main(argv + [str(fresh)]) == EXIT_OK
        reused.mkdir()
        for name in PIPELINE_OUTPUTS:
            (reused / name).write_bytes(b"stale\n" * (fresh / name).stat().st_size)
        assert main(argv + [str(reused)]) == EXIT_OK
        assert sorted(p.name for p in reused.iterdir()) == sorted(PIPELINE_OUTPUTS)
        for name in PIPELINE_OUTPUTS:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_write_error_is_one_scene_line(self, scene_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["pipeline", str(scene_file), "--task", "stack all", "--out", str(out)]
        assert main(argv) == EXIT_OK
        (out / "plan.txt").unlink()
        (out / "plan.txt").mkdir()
        capsys.readouterr()
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"scene_0000: IsADirectoryError: [Errno {errno.EISDIR}] "
            f"{os.strerror(errno.EISDIR)}: '{out / 'plan.txt'}'"
        ]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_batch_rejects_nonpositive_jobs(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main([
                "pipeline", "--batch", str(tmp_path), "--task", "stack all",
                "--out", str(tmp_path / "out"), "--jobs", jobs,
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--jobs" in err

    def test_batch_backlog_is_bounded(self, tmp_path, monkeypatch):
        data = tmp_path / "ds"
        assert main(["gen", "--seed", "1", "--count", "40", "--out", str(data)]) == EXIT_OK
        release = threading.Event()
        write, load = cli_mod._write_in_place, dataset_mod.load_scene_record
        loads = []

        def blocked_write(path, text):
            release.wait()
            write(path, text)

        def counted_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(cli_mod, "_write_in_place", blocked_write)
        monkeypatch.setattr(dataset_mod, "load_scene_record", counted_load)
        jobs = 2
        codes = []
        batch = threading.Thread(target=lambda: codes.append(main([
            "pipeline", "--batch", str(data), "--task", "stack all",
            "--out", str(tmp_path / "out"), "--jobs", str(jobs),
        ])))
        batch.start()
        try:
            # Wait until the loads have stopped: ten polls in a row see the
            # same nonzero count.
            seen, steady, deadline = 0, 0, time.monotonic() + 20
            while steady < 10 and time.monotonic() < deadline:
                time.sleep(0.05)
                steady = steady + 1 if len(loads) == seen > 0 else 0
                seen = len(loads)
            # The cap counts running write steps too, so only the scene whose
            # write step waits to be submitted is loaded past it.
            assert 0 < len(loads) <= cli_mod._BACKLOG_PER_JOB * jobs + 1
        finally:
            release.set()
            batch.join(timeout=60)
        assert not batch.is_alive()
        assert codes == [EXIT_OK]
        assert len(loads) == 40

    def test_remote_batch_overlaps_its_round_trips(self, tmp_path, monkeypatch):
        data = tmp_path / "ds"
        assert main(["gen", "--seed", "1", "--count", "8", "--out", str(data)]) == EXIT_OK
        # Each round trip returns only once as many are in flight as the
        # default `--jobs` of a remote batch, so scenes run one at a time fail.
        in_flight = threading.Barrier(4, timeout=10)

        def round_trip(tree, task, config):
            in_flight.wait()
            return reorganize(tree, task, BackendConfig(backend=Backend.RULE))

        monkeypatch.setattr(cli_mod, "reorganize", round_trip)
        monkeypatch.setenv("SCENE_FOREST_ENDPOINT", "http://127.0.0.1:9/v1/chat/completions")
        assert main([
            "pipeline", "--batch", str(data), "--task", "stack all",
            "--backend", "remote", "--out", str(tmp_path / "out"),
        ]) == EXIT_OK

    def test_remote_batch_runs_past_malformed_record(self, tmp_path, monkeypatch, capsys):
        # Constant stage timings make result.json byte-for-byte repeatable.
        monkeypatch.setattr(cli_mod, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        monkeypatch.setattr(
            cli_mod, "reorganize",
            lambda tree, task, config: reorganize(tree, task, BackendConfig(backend=Backend.RULE)),
        )
        monkeypatch.setenv("SCENE_FOREST_ENDPOINT", "http://127.0.0.1:9/v1/chat/completions")
        data, single = tmp_path / "ds", tmp_path / "single"
        # More scenes than the backlog holds at `--jobs 1` and at the default 4.
        assert main(["gen", "--seed", "1", "--count", "20", "--out", str(data)]) == EXIT_OK
        bad = data / "scene_0002.json"
        record = json.loads(bad.read_text())
        record["objects"][1]["mass_grams"] = 10**400
        bad.write_text(json.dumps(record))
        good = [p for p in sorted(data.glob("*.json")) if p != bad]
        remote = ["--task", "stack all", "--backend", "remote", "--out"]
        for path in good:
            assert main(["pipeline", str(path), *remote, str(single / path.stem)]) == EXIT_OK
        for run, jobs in enumerate((["--jobs", "1"], [])):
            out = tmp_path / f"out{run}"
            capsys.readouterr()
            assert main(["pipeline", "--batch", str(data), *remote, str(out), *jobs]) == EXIT_SCHEMA
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 2, jobs
            assert lines[0].startswith("scene_0002: SchemaError: mass_grams"), jobs
            assert lines[-1] == "processed 20 scenes, 1 failed"
            assert sorted(p.parent.name for p in out.glob("*/result.json")) == [
                p.stem for p in good
            ]
            for path in good:
                for name in PIPELINE_OUTPUTS:
                    assert (out / path.stem / name).read_bytes() == (
                        single / path.stem / name
                    ).read_bytes(), (jobs, path.stem, name)

    @pytest.mark.parametrize("argv, message", [
        (["--batch", "{data}", "{scene}"],
         "pipeline takes a scene file or --batch directory, not both"),
        (["{scene}", "--jobs", "2"], "pipeline --jobs applies only with --batch"),
        ([], "pipeline requires a scene file or --batch directory"),
    ])
    def test_ignored_option_combination_is_a_usage_error(
        self, scene_file, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "out"
        places = {"data": str(scene_file.parent), "scene": str(scene_file)}
        code = main([
            "pipeline", *(arg.format(**places) for arg in argv),
            "--task", "stack all", "--out", str(out),
        ])
        assert code == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("endpoint", [
        'data:application/json,{"choices": [{"message": {"content": "TREE"}}]}',
        "localhost:8000/v1",
    ])
    def test_endpoint_that_is_not_http_is_rejected_before_sending(
        self, scene_file, tmp_path, monkeypatch, capsys, endpoint
    ):
        from scene_forest import remote

        def refuse(config, messages):
            raise AssertionError(f"request sent to {config.endpoint_url}")

        monkeypatch.setattr(remote, "_post_chat", refuse)
        monkeypatch.setenv("SCENE_FOREST_ENDPOINT", endpoint)
        out = tmp_path / "out"
        assert main([
            "pipeline", str(scene_file), "--task", "make it tidy", "--backend", "remote",
            "--out", str(out),
        ]) == EXIT_BACKEND
        assert capsys.readouterr().err.splitlines() == [
            f"scene_0000: BackendError: SCENE_FOREST_ENDPOINT must be an http(s) URL, "
            f"got {endpoint!r}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("endpoint, message", [
        (None, "remote backend requires SCENE_FOREST_ENDPOINT to be set"),
        ("localhost:8000/v1",
         "SCENE_FOREST_ENDPOINT must be an http(s) URL, got 'localhost:8000/v1'"),
    ], ids=["unset", "no-scheme"])
    def test_misconfigured_remote_batch_runs_no_scene(
        self, tmp_path, monkeypatch, capsys, endpoint, message
    ):
        data = tmp_path / "ds"
        assert main(["gen", "--seed", "1", "--count", "5", "--out", str(data)]) == EXIT_OK

        def refuse(path):
            raise AssertionError(f"{path} loaded")

        monkeypatch.setattr(dataset_mod, "load_scene_record", refuse)
        if endpoint is None:
            monkeypatch.delenv("SCENE_FOREST_ENDPOINT", raising=False)
        else:
            monkeypatch.setenv("SCENE_FOREST_ENDPOINT", endpoint)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([
            "pipeline", "--batch", str(data), "--task", "stack all", "--backend", "remote",
            "--out", str(out),
        ]) == EXIT_BACKEND
        assert capsys.readouterr().err.splitlines() == [f"BackendError: {message}"]
        assert not out.exists()

    def test_misconfigured_backend_is_reported_before_the_scene_loads(
        self, scene_file, tmp_path, monkeypatch, capsys
    ):
        record = json.loads(scene_file.read_text())
        record["objects"][1]["mass_grams"] = 10**400
        scene_file.write_text(json.dumps(record))
        monkeypatch.setenv("SCENE_FOREST_ENDPOINT", "localhost:8000/v1")
        out = tmp_path / "out"
        assert main([
            "pipeline", str(scene_file), "--task", "stack all", "--backend", "remote",
            "--out", str(out),
        ]) == EXIT_BACKEND
        assert capsys.readouterr().err.splitlines() == [
            "scene_0000: BackendError: SCENE_FOREST_ENDPOINT must be an http(s) URL, "
            "got 'localhost:8000/v1'"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["rule", "remote"])
    def test_batch_computes_each_scene_through_the_module_global(
        self, tmp_path, monkeypatch, backend
    ):
        # Tracing tools wrap `cli.run_pipeline_for_scene` and name each scene
        # by the stem of its first argument.
        data, out = tmp_path / "ds", tmp_path / "out"
        assert main(["gen", "--seed", "1", "--count", "6", "--out", str(data)]) == EXIT_OK
        monkeypatch.setattr(
            cli_mod, "reorganize",
            lambda tree, task, config: reorganize(tree, task, BackendConfig(backend=Backend.RULE)),
        )
        monkeypatch.setenv("SCENE_FOREST_ENDPOINT", "http://127.0.0.1:9/v1/chat/completions")
        compute = cli_mod.run_pipeline_for_scene
        calls = []

        def counted(scene_path, *args):
            calls.append(Path(scene_path))  # list.append is atomic across threads
            return compute(scene_path, *args)

        monkeypatch.setattr(cli_mod, "run_pipeline_for_scene", counted)
        scenes = sorted(data.glob("*.json"))
        # A fresh `--out`, then the same one again, whose scenes are rewritten.
        for round_ in ("fresh", "rewrite"):
            calls.clear()
            assert main([
                "pipeline", "--batch", str(data), "--task", "stack all", "--backend", backend,
                "--out", str(out),
            ]) == EXIT_OK
            assert sorted(calls) == scenes, round_


class TestRenderCalls:
    """The benchmark traces rendering by wrapping `cli.serialize_tree`,
    `cli.to_dot` and `remote.serialize_tree`, so every scene must render
    through those module attributes, looked up at call time."""

    @staticmethod
    def count_calls(monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_rule_scene_renders_twice_per_format(self, tmp_path, monkeypatch):
        data = tmp_path / "ds"
        assert main(["gen", "--seed", "0", "--count", "6", "--out", str(data)]) == EXIT_OK
        trees = self.count_calls(monkeypatch, cli_mod, "serialize_tree")
        dots = self.count_calls(monkeypatch, cli_mod, "to_dot")
        assert main([
            "pipeline", str(data / "scene_0000.json"), "--task", "stack all",
            "--out", str(tmp_path / "one"),
        ]) == EXIT_OK
        assert (len(trees), len(dots)) == (2, 2)
        assert main([
            "pipeline", "--batch", str(data), "--task", "stack all", "--out", str(tmp_path / "all"),
        ]) == EXIT_OK
        assert (len(trees), len(dots)) == (2 + 12, 2 + 12)

    def test_remote_scene_renders_its_prompt_once(self, tmp_path, monkeypatch):
        from scene_forest import remote
        from test_remote import StubChatServer

        record = generate_synthetic_scene(0, 0)
        data = tmp_path / "ds"
        data.mkdir()
        for name in ("a", "b", "c"):
            save_scene_record(record, data / f"{name}.json")
        # The reply keeps the scene as it is, a valid goal for a free-text task.
        initial = build_tree(_scene_triplets(record), record.objects).tree
        server = StubChatServer([(200, serialize_tree(initial))] * 4)
        try:
            monkeypatch.setenv("SCENE_FOREST_ENDPOINT", server.url)
            prompts = self.count_calls(monkeypatch, remote, "serialize_tree")
            trees = self.count_calls(monkeypatch, cli_mod, "serialize_tree")
            dots = self.count_calls(monkeypatch, cli_mod, "to_dot")
            remote_run = ["--task", "make it tidy", "--backend", "remote"]
            assert main([
                "pipeline", str(data / "a.json"), *remote_run, "--out", str(tmp_path / "one"),
            ]) == EXIT_OK
            assert (len(prompts), len(trees), len(dots)) == (1, 2, 2)
            assert main([
                "pipeline", "--batch", str(data), *remote_run, "--out", str(tmp_path / "all"),
            ]) == EXIT_OK
            assert (len(prompts), len(trees), len(dots)) == (1 + 3, 2 + 6, 2 + 6)
            assert len(server.requests) == 4
        finally:
            server.close()


def _is_indented_dump(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=2) + "\n"


class TestSceneFiles:
    """Which files a batch takes, how reading a scene fails, and the bytes
    of `result.json`."""

    def test_result_json_is_two_space_indented_json(self, scene_file, tmp_path):
        data, out = tmp_path / "ds", tmp_path / "out"
        assert main(["gen", "--seed", "1", "--count", "8", "--out", str(data)]) == EXIT_OK
        for task in ("stack all", "unstack"):
            assert main([
                "pipeline", "--batch", str(data), "--task", task, "--out", str(out),
            ]) == EXIT_OK
            results = sorted(out.glob("*/result.json"))
            assert len(results) == 8
            for path in results:
                assert _is_indented_dump(path.read_text(encoding="utf-8")), path
        for task in ("  Stack ALL!", "stack all "):
            single = tmp_path / "single"
            assert main([
                "pipeline", str(scene_file), "--task", task, "--out", str(single),
            ]) == EXIT_OK
            text = (single / "result.json").read_text(encoding="utf-8")
            assert _is_indented_dump(text)
            assert json.loads(text)["task"] == task

    @pytest.mark.parametrize("spelling", ["plain", "trailing slash", "dot"])
    def test_batch_takes_what_path_glob_takes(self, tmp_path, monkeypatch, capsys, spelling):
        data, out = tmp_path / "ds", tmp_path / "out"
        data.mkdir()
        for name in ("a.json", ".hidden.json", "B.JSON"):
            save_scene_record(generate_synthetic_scene(0, 0), data / name)
        (data / "notes.txt").write_text("not a scene\n")
        (data / "sub.json").mkdir()
        (data / "nested").mkdir()
        save_scene_record(generate_synthetic_scene(0, 1), data / "nested" / "c.json")
        (data / "link.json").symlink_to(data / "nested" / "c.json")
        batch = {"plain": str(data), "trailing slash": f"{data}/", "dot": "."}[spelling]
        if spelling == "dot":
            monkeypatch.chdir(data)
        compute = cli_mod.run_pipeline_for_scene
        calls = []

        def recorded(scene_path, *args):
            calls.append(str(scene_path))
            return compute(scene_path, *args)

        monkeypatch.setattr(cli_mod, "run_pipeline_for_scene", recorded)
        assert main([
            "pipeline", "--batch", batch, "--task", "stack all", "--out", str(out),
        ]) == EXIT_IO
        expected = sorted(Path(batch).glob("*.json"))
        assert [Path(p).name for p in expected] == [
            ".hidden.json", "a.json", "link.json", "sub.json"
        ]
        assert sorted(calls) == [str(p) for p in expected]
        assert sorted(p.name for p in out.iterdir()) == [".hidden", "a", "link"]
        sub = expected[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"sub: IoError: cannot read {sub}: [Errno {errno.EISDIR}] "
            f"{os.strerror(errno.EISDIR)}: '{sub}'",
            "processed 4 scenes, 1 failed",
        ]

    def test_batch_of_no_scene_files(self, tmp_path, capsys):
        (tmp_path / "B.JSON").write_text("{}")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        for batch in (tmp_path, tmp_path / "absent", tmp_path / "B.JSON", tmp_path / "loop"):
            assert main([
                "pipeline", "--batch", str(batch), "--task", "stack all",
                "--out", str(tmp_path / "out"),
            ]) == EXIT_IO
            assert capsys.readouterr().err == f"no scene files in {batch}\n"

    def test_batch_out_below_a_file_names_each_scene_directory(self, tmp_path, capsys):
        data, blocker = tmp_path / "ds", tmp_path / "file"
        assert main(["gen", "--seed", "1", "--count", "3", "--out", str(data)]) == EXIT_OK
        blocker.write_text("")
        out = blocker / "out"
        capsys.readouterr()
        assert main([
            "pipeline", "--batch", str(data), "--task", "stack all", "--out", str(out),
        ]) == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert sorted(lines[:-1]) == [
            f"scene_000{i}: NotADirectoryError: [Errno {errno.ENOTDIR}] "
            f"{os.strerror(errno.ENOTDIR)}: '{out / f'scene_000{i}'}'"
            for i in range(3)
        ]
        assert lines[-1] == "processed 3 scenes, 3 failed"

    def test_result_json_has_the_computed_keys(self, scene_file, tmp_path, monkeypatch):
        compute = cli_mod.run_pipeline_for_scene
        keys = []

        def recorded(*args):
            outcome = compute(*args)
            keys.extend(outcome[1])
            return outcome

        monkeypatch.setattr(cli_mod, "run_pipeline_for_scene", recorded)
        out = tmp_path / "out"
        assert main([
            "pipeline", str(scene_file), "--task", "stack all", "--out", str(out),
        ]) == EXIT_OK
        assert list(json.loads((out / "result.json").read_text(encoding="utf-8"))) == keys

    def test_scene_path_that_is_a_directory(self, tmp_path, capsys):
        path = tmp_path / "scene_0000.json"
        path.mkdir()
        assert main([
            "pipeline", str(path), "--task", "stack all", "--out", str(tmp_path / "out"),
        ]) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"scene_0000: IoError: cannot read {path}: [Errno {errno.EISDIR}] "
            f"{os.strerror(errno.EISDIR)}: '{path}'"
        ]

    def test_missing_scene_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        missing = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
        assert main(["pipeline", "./nope.json", "--task", "stack all", "--out", "out"]) == EXIT_IO
        assert main(["parse", "./nope.json"]) == EXIT_IO
        # Both commands name the file as `Path` spells it, in the message and the errno text.
        assert capsys.readouterr().err.splitlines() == [
            f"nope: IoError: cannot read nope.json: {missing}: 'nope.json'",
            f"nope: IoError: cannot read nope.json: {missing}: 'nope.json'",
        ]

    def test_record_that_is_not_utf8(self, scene_file, tmp_path, capsys):
        data = scene_file.read_bytes()
        at = data.index(b"scene_0000")
        scene_file.write_bytes(data[:at] + b"\xff" + data[at:])
        assert main([
            "pipeline", str(scene_file), "--task", "stack all", "--out", str(tmp_path / "out"),
        ]) == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines() == [
            f"scene_0000: SchemaError: {scene_file} is not UTF-8: 'utf-8' codec can't "
            f"decode byte 0xff in position {at}: invalid start byte"
        ]

    def test_record_with_a_byte_order_mark(self, scene_file, tmp_path, capsys):
        scene_file.write_bytes(b"\xef\xbb\xbf" + scene_file.read_bytes())
        assert main([
            "pipeline", str(scene_file), "--task", "stack all", "--out", str(tmp_path / "out"),
        ]) == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines() == [
            f"scene_0000: SchemaError: invalid JSON in {scene_file}: Unexpected UTF-8 BOM "
            "(decode using utf-8-sig): line 1 column 1 (char 0)"
        ]

    def test_crlf_record_gives_the_outputs_of_the_lf_one(
        self, scene_file, tmp_path, monkeypatch
    ):
        # Constant stage timings make result.json byte-for-byte repeatable.
        monkeypatch.setattr(cli_mod, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        crlf = tmp_path / "crlf" / scene_file.name
        crlf.parent.mkdir()
        crlf.write_bytes(scene_file.read_bytes().replace(b"\n", b"\r\n"))
        for path, out in ((scene_file, "lf"), (crlf, "crlf")):
            assert main([
                "pipeline", str(path), "--task", "stack all", "--out", str(tmp_path / out),
            ]) == EXIT_OK
        for name in PIPELINE_OUTPUTS:
            assert (tmp_path / "crlf" / name).read_bytes() == (
                tmp_path / "lf" / name
            ).read_bytes(), name

    def test_write_error_names_the_file_as_path_spells_it(
        self, scene_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["pipeline", str(scene_file), "--task", "stack all", "--out", "./out/"]
        assert main(argv) == EXIT_OK
        (tmp_path / "out" / "goal.dot").unlink()
        (tmp_path / "out" / "goal.dot").mkdir()
        capsys.readouterr()
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"scene_0000: IsADirectoryError: [Errno {errno.EISDIR}] "
            f"{os.strerror(errno.EISDIR)}: 'out/goal.dot'"
        ]

    def test_malformed_crlf_record_offset_counts_the_crs(self, tmp_path, capsys):
        # Line ends are not translated, so json.loads sees the bytes' own offsets.
        text = '{\r\n  "scene_id": "scene_0000",\r\n  "objects": [,]\r\n}\r\n'
        path = tmp_path / "scene_0000.json"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as parsed:
            json.loads(text)
        assert main(["parse", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines() == [
            f"scene_0000: SchemaError: invalid JSON in {path}: {parsed.value}"
        ]


_STAGES = ("load", "parse", "reorganize", "plan", "write")
_any_text = st.text(st.characters(exclude_categories=()))
_timing = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([0.0, 1e-05, 1e16])


@settings(max_examples=300, deadline=None)
@given(
    scene_id=_any_text, task=_any_text, backend=st.sampled_from(["rule", "remote"]),
    plan_length=st.integers(0, 10**6), staged_moves=st.integers(0, 10**6),
    verified=st.booleans(), timings=st.lists(_timing, min_size=5, max_size=5),
)
@example(
    scene_id='sc"ène\\\x00\x1f\ud800', task='  Stack ALL!\n\t"\\', backend="rule",
    plan_length=0, staged_moves=0, verified=False, timings=[0.0, 1e-05, 1e16, 0.5, 3.0],
)
def test_result_json_matches_json_dumps_indent_2(
    scene_id, task, backend, plan_length, staged_moves, verified, timings
):
    result = {
        "scene_id": scene_id, "task": task, "backend": backend,
        "plan_length": plan_length, "staged_moves": staged_moves, "verified": verified,
        "timings_ms": dict(zip(_STAGES, timings)), "diagnostics": [],
    }
    assert cli_mod._result_json(result) == json.dumps(result, indent=2) + "\n"


_file_names = st.text(
    st.characters(exclude_characters="/\x00"), min_size=1
).filter(lambda name: name != ".")


@settings(max_examples=300, deadline=None)
@given(name=_file_names | st.sampled_from(["a.", ".json", "a.b.json", "..", "..json", "a..b"]))
def test_stem_is_path_stem(name):
    assert cli_mod._stem(name) == Path(name).stem


@settings(max_examples=300, deadline=None)
@given(
    directory=st.sampled_from([".", "/", "//", "a", "./a/", "/a//b/.", "../a", "a/./b"]),
    name=_file_names | st.sampled_from([".", "..", "a.json"]),
)
def test_child_is_path_join(directory, name):
    directory = str(Path(directory))
    joined = str(Path(directory) / name)
    assert cli_mod._child(directory, name) == joined
    if name != ".":  # the prefix joins every other name
        assert cli_mod._child(directory, "") + name == joined


# The CLI boundary, rule backend: records that load, with captions and tasks
# drawn from the accepted grammar and then edited token by token.
_BOUNDARY_LABELS = ["cup", "box2", "mug_b", "pen", "coffee cup", "red box"]
_CLOSED_TASKS = [
    "stack all", "stack everything", "unstack", "unstack all", "unstack everything",
    "group by material",
]
_ORDINALS = ["first", "second", "third", "fourth"]
_EDIT_TOKENS = ["the", "is", "are", "on", "top", "of", "and", "second", "ghost", ".", ";"]


@st.composite
def boundary_scenes(draw):
    """(record, task): a caption-only record of a random forest on `table_1`,
    one caption per support edge, some edited; and a closed task or a
    `stack the ...` one."""
    objects = [make_table()]
    counts: dict = {}
    for label in draw(st.lists(st.sampled_from(_BOUNDARY_LABELS), max_size=8)):
        counts[label] = counts.get(label, 0) + 1
        objects.append(make_object(
            canonicalize_id(label, counts[label]), label=label,
            fragility=draw(st.sampled_from(FRAGILITY_LEVELS)),
            mass=draw(st.sampled_from([50, 100, 2000])),
            material=draw(st.sampled_from(MATERIALS[:3])),
        ))

    by_id = draw(st.booleans())  # else by id, label or ordinal and label

    def reference(obj) -> str:
        ordinal = int(obj.id.rsplit("_", 1)[1])
        return draw(st.sampled_from([f"the {obj.id}"] if by_id else [
            f"the {obj.id}", f"the {obj.label}",
            f"the {_ORDINALS[min(ordinal, len(_ORDINALS)) - 1]} {obj.label}",
        ]))

    captions = []
    for i, obj in enumerate(objects[1:], start=1):
        support = objects[draw(st.integers(0, i - 1))]
        relation = draw(st.sampled_from(["on", "on top of"]))
        captions.append(f"{reference(obj)} is {relation} {reference(support)}.".split())
    edits = st.tuples(
        st.sampled_from(["drop", "dup", "swap", "replace"]),
        st.integers(0, 20), st.integers(0, 20), st.sampled_from(_EDIT_TOKENS),
    )
    for op, which, at, token in draw(st.lists(edits, max_size=3)) if captions else ():
        tokens = captions[which % len(captions)]
        at %= len(tokens)
        if op == "drop" and len(tokens) > 1:
            del tokens[at]
        elif op == "dup":
            tokens.insert(at, tokens[at])
        elif op == "swap":
            tokens[at], tokens[-1] = tokens[-1], tokens[at]
        elif op == "replace":
            tokens[at] = token
    if draw(st.booleans()):
        task = draw(st.sampled_from(_CLOSED_TASKS))
    else:
        task = "stack " + reference(draw(st.sampled_from(objects)))
    captions = tuple(" ".join(tokens).capitalize() for tokens in captions)
    record = SceneRecord(scene_id="scene_0007", objects=tuple(objects), captions=captions)
    return record, task


def _run_main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(case=boundary_scenes())
def test_rule_cli_boundary(case):
    record, task = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "scene_0007.json"
        save_scene_record(record, path)
        out = Path(directory) / "out"
        for argv in (
            ["parse", str(path)],
            ["pipeline", str(path), "--task", task, "--out", str(out)],
        ):
            code, err = _run_main(argv)
            assert code in (EXIT_OK, EXIT_IO, EXIT_SCHEMA, EXIT_PARSE, EXIT_UNSUPPORTED_TASK), err
            assert all(line.startswith("scene_0007: ") for line in err.splitlines()), err
        if code == EXIT_OK:
            assert sorted(p.name for p in out.iterdir()) == sorted(PIPELINE_OUTPUTS)
            assert json.loads((out / "result.json").read_text())["verified"] is True


class TestParser:
    def test_built_once_and_usage_errors_repeat(self, capsys):
        assert build_parser() is build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["pipeline", "--task"])
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: scene-forest pipeline")

    def test_import_builds_no_parser_and_loads_no_http_client(self):
        # Importing the CLI stays cheap: the parser is built by the first
        # `main` call and the remote client by the first remote scene, and
        # the value types are plain classes, with no `dataclasses` (which
        # loads `inspect`) behind them.
        probe = (
            "import sys, scene_forest.cli as cli; "
            "print(cli.build_parser.cache_info().currsize, sorted(m for m in "
            "('scene_forest.remote', 'urllib.request', 'concurrent.futures', 'dataclasses', "
            "'inspect') if m in sys.modules))"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "0 []"


class TestCmdGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--seed", "7", "--count", "4", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "--seed", "7", "--count", "4", "--out", str(b)]) == EXIT_OK
        files_a = sorted(a.glob("*.json"))
        files_b = sorted(b.glob("*.json"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_rewrite_over_longer_records_leaves_no_stale_tail(self, tmp_path):
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        argv = ["gen", "--seed", "3", "--count", "4", "--out"]
        assert main(argv + [str(fresh)]) == EXIT_OK
        reused.mkdir()
        for path in fresh.iterdir():
            (reused / path.name).write_bytes(b"{}\n" * path.stat().st_size)
        assert main(argv + [str(reused)]) == EXIT_OK
        assert sorted(p.name for p in reused.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for path in fresh.iterdir():
            assert (reused / path.name).read_bytes() == path.read_bytes(), path.name

    def test_negative_count_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--count", "-1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--count" in err
        assert not out.exists()

    def test_zero_count(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["gen", "--seed", "0", "--count", "0", "--out", str(out)]) == EXIT_OK
        assert list(out.glob("*.json")) == []
