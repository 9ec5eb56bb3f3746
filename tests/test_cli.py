import json

import pytest

from scene_forest.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_UNSUPPORTED_TASK,
    main,
    parse_task,
)
from scene_forest.dataset import GeneratorConfig, generate_synthetic_scene, save_scene_record
from scene_forest.errors import AmbiguousReference
from scene_forest.model import TaskKind

from conftest import make_object, make_table


@pytest.fixture
def scene_file(tmp_path):
    record = generate_synthetic_scene(GeneratorConfig(seed=0), 0)
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
        assert set(result["timings_ms"]) >= {"load", "parse", "reorganize", "plan"}
        for name in ("initial.tree.txt", "plan.txt", "initial.dot", "goal.dot"):
            assert (out / name).exists()

    def test_stack_object_task(self, tmp_path):
        record = generate_synthetic_scene(GeneratorConfig(seed=2), 1)
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
        assert len(list(out.glob("*/result.json"))) == 5

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

    def test_zero_count(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["gen", "--seed", "0", "--count", "0", "--out", str(out)]) == EXIT_OK
        assert list(out.glob("*.json")) == []
