"""Golden bytes: the generated dataset and the batch outputs of three rule tasks.

Any change to `gen`'s records or to the tree, plan, DOT or `result.json`
bytes changes the digest. Stage timings vary from run to run, so
`timings_ms` is left out of `result.json`; every other key stays, in order.
"""
import hashlib
import json

from scene_forest.cli import EXIT_OK, main

TASKS = ("stack all", "unstack", "group by material")

GOLDEN_SHA256 = "abca50c0e515df785678184ee22734abc33d120cd7eec3376a2fda818ce933ae"


def _digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "result.json":
            result = json.loads(data)
            del result["timings_ms"]
            data = json.dumps(result, indent=2).encode()
        for chunk in (path.relative_to(root).as_posix().encode(), data):
            h.update(len(chunk).to_bytes(8, "little"))
            h.update(chunk)
    return h.hexdigest()


def test_gen_and_batch_outputs_match_golden_digest(tmp_path):
    data = tmp_path / "ds"
    assert main(["gen", "--seed", "0", "--count", "20", "--out", str(data)]) == EXIT_OK
    for number, task in enumerate(TASKS):
        assert main([
            "pipeline", "--batch", str(data), "--task", task,
            "--out", str(tmp_path / f"out{number}"),
        ]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "out0", "out1", "out2"]
    assert len(list(tmp_path.rglob("result.json"))) == 20 * len(TASKS)
    assert _digest(tmp_path) == GOLDEN_SHA256
