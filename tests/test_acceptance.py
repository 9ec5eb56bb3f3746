"""Acceptance suite: one test per release criterion, printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""
import random
import time

import pytest

from scene_forest.captions import parse_caption
from scene_forest.cli import EXIT_OK, main
from scene_forest.dataset import render_caption
from scene_forest.errors import DuplicateObject, MissingObject
from scene_forest.model import (
    SceneTree,
    SpatialPredicate,
    SpatialTriplet,
    TaskKind,
    TaskSpec,
)
from scene_forest.planner import execute_plan, optimal_plan_bfs, plan_moves
from scene_forest.reorganize import (
    Backend,
    BackendConfig,
    check_physical_constraints,
    reorganize,
    rule_stack_all,
)
from scene_forest.remote import build_messages
from scene_forest.treebuild import (
    ViolationKind,
    build_tree,
    clear_objects,
    validate_tree,
)
from scene_forest.treetext import parse_tree_block, serialize_tree

from conftest import make_object, make_table, random_parent_map, random_tree

RULE = BackendConfig(backend=Backend.RULE)


def report(criterion, description):
    print(f"ACCEPTANCE {criterion} ({description}): PASS")


def on(subject, support):
    return SpatialTriplet(subject, SpatialPredicate.ON, support)


def test_criterion_1_caption_round_trip():
    rng = random.Random(101)
    for i in range(1000):
        tree = random_tree(rng, rng.randint(1, 10), distinct_labels=bool(i % 2))
        caption = render_caption(tree)
        triplets = parse_caption(caption, list(tree.nodes.values()))
        rebuilt = build_tree(triplets, list(tree.nodes.values()))
        assert rebuilt.success
        assert rebuilt.tree == tree
    report(1, "render -> parse -> build reproduces 1000 random trees")


def test_criterion_2_seeded_violations():
    rng = random.Random(202)
    # 100 cycle injections: a rotation among k stacked objects, everything
    # else explicitly on the table, so the cycle is the only defect.
    for _ in range(100):
        n = rng.randint(2, 8)
        objects = [make_table()] + [make_object(f"obj_{i}") for i in range(1, n + 1)]
        k = rng.randint(2, n)
        members = rng.sample([o.id for o in objects[1:]], k)
        triplets = [
            on(members[i], members[(i + 1) % k]) for i in range(k)
        ]
        triplets += [
            on(o.id, "table_1") for o in objects[1:] if o.id not in members
        ]
        rng.shuffle(triplets)
        result = build_tree(triplets, objects)
        assert not result.success
        assert {v.kind for v in result.violations} == {ViolationKind.CYCLE}

    # 100 multiple-parent injections: a valid tree plus one conflicting support.
    for _ in range(100):
        tree = random_tree(rng, rng.randint(2, 8))
        triplets = [on(c, p) for c, p in sorted(tree.parent.items())]
        subject = rng.choice(sorted(tree.parent))
        other = rng.choice(
            sorted(set(tree.nodes) - {subject, tree.parent[subject]})
        )
        triplets.append(on(subject, other))
        result = build_tree(triplets, list(tree.nodes.values()))
        assert not result.success
        assert {v.kind for v in result.violations} == {ViolationKind.MULTIPLE_PARENTS}
    report(2, "100 cycle + 100 multi-parent injections classified correctly")


def test_criterion_3_conservation_gate():
    rng = random.Random(303)
    calls = 0
    while calls < 1000:
        tree = random_tree(rng, rng.randint(1, 8))
        movable = sorted(n for n in tree.nodes if n != tree.root)
        tasks = [
            TaskSpec(kind=TaskKind.STACK_ALL, raw_prompt="stack all"),
            TaskSpec(kind=TaskKind.UNSTACK_ALL, raw_prompt="unstack"),
            TaskSpec(kind=TaskKind.GROUP_BY_MATERIAL, raw_prompt="group by material"),
            TaskSpec(
                kind=TaskKind.STACK_OBJECT,
                raw_prompt="stack the target",
                target=rng.choice(movable),
            ),
        ]
        for task in tasks:
            goal = reorganize(tree, task, RULE)
            assert goal.ids() == tree.ids()
            assert validate_tree(goal) == []
            calls += 1
    report(3, f"{calls} rule reorganizations conserved objects and validated")


def test_criterion_4_planner_soundness():
    rng = random.Random(404)
    for _ in range(1000):
        n = rng.randint(1, 8)
        initial = random_tree(rng, n)
        goal = random_parent_map(rng, initial)
        trace = plan_moves(initial, goal)
        assert len(trace.plan) <= 2 * n
        state = initial
        for move in trace.plan.moves:
            assert move.object in clear_objects(state)
            state = execute_plan(state, type(trace.plan)((move,)))
        assert state == goal
    report(4, "1000 greedy plans executed to goal with clear picks, length <= 2n")


def test_criterion_5_oracle_comparison():
    rng = random.Random(505)
    within_two = 0
    total = 200
    for _ in range(total):
        n = rng.randint(1, 5)
        initial = random_tree(rng, n)
        goal = random_parent_map(rng, initial)
        optimal = optimal_plan_bfs(initial, goal)
        greedy = plan_moves(initial, goal)
        assert len(optimal) <= len(greedy.plan)
        if len(greedy.plan) - len(optimal) <= 2:
            within_two += 1
    assert within_two >= 0.9 * total, f"only {within_two}/{total} within +2 of optimal"
    report(5, f"greedy within +2 of optimal on {within_two}/{total} instances")


def test_criterion_6_constraint_satisfaction():
    rng = random.Random(606)
    for _ in range(500):
        tree = random_tree(rng, rng.randint(1, 8))
        assert check_physical_constraints(rule_stack_all(tree)).ok

    # Scaling all masses by c > 0 must not change the chosen arrangement.
    for _ in range(50):
        tree = random_tree(rng, rng.randint(1, 8))
        reference = serialize_tree(rule_stack_all(tree))
        for c in (0.5, 3, 1000):
            scaled = SceneTree(
                root=tree.root,
                nodes={
                    i: make_object(
                        o.id,
                        label=o.label,
                        fragility=o.attributes.fragility,
                        mass=o.attributes.mass_grams * c,
                        material=o.attributes.material,
                        transparency=o.attributes.transparency,
                    ) if i != tree.root else o
                    for i, o in tree.nodes.items()
                },
                parent=dict(tree.parent),
            )
            result = rule_stack_all(scaled)
            # Compare byte-for-byte after restoring the original attributes.
            restored = SceneTree(
                root=result.root, nodes=tree.nodes, parent=dict(result.parent)
            )
            assert serialize_tree(restored) == reference
    report(6, "500 stack-all outputs constraint-clean; mass scaling invariant")


def test_criterion_7_dataset_scale_run(tmp_path):
    data = tmp_path / "dataset"
    out = tmp_path / "out"
    assert main(["gen", "--seed", "0", "--count", "600", "--out", str(data)]) == EXIT_OK
    assert len(list(data.glob("*.json"))) == 600
    started = time.perf_counter()
    code = main([
        "pipeline", "--batch", str(data), "--task", "stack all",
        "--out", str(out), "--jobs", "8",
    ])
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    assert len(list(out.glob("*/result.json"))) == 600
    assert elapsed <= 60, f"batch took {elapsed:.1f}s"
    report(7, f"600/600 scenes piped in {elapsed:.1f}s (limit 60s)")


def test_criterion_8_serializer_fidelity():
    rng = random.Random(808)
    task = TaskSpec(kind=TaskKind.STACK_ALL, raw_prompt="stack all")
    for _ in range(1000):
        tree = random_tree(rng, rng.randint(0, 8))
        prompt = build_messages(tree, task)[1]["content"]
        assert parse_tree_block(prompt, list(tree.nodes.values())) == tree

    # 200 seeded conservation corruptions on leaf lines.
    corruptions = 0
    while corruptions < 200:
        tree = random_tree(rng, rng.randint(1, 8))
        registry = list(tree.nodes.values())
        block = serialize_tree(tree)
        lines = block.splitlines()
        leaves = sorted(clear_objects(tree))
        leaf = rng.choice(leaves)
        index = next(i for i, l in enumerate(lines) if l.strip().startswith(leaf + " "))
        if corruptions % 2 == 0:
            corrupted = lines[:index] + lines[index + 1:]
            expected = MissingObject
        else:
            corrupted = lines[:index + 1] + [lines[index]] + lines[index + 1:]
            expected = DuplicateObject
        with pytest.raises(expected):
            parse_tree_block("\n".join(corrupted) + "\n", registry)
        corruptions += 1
    report(8, "1000 round trips exact; 200/200 corruptions rejected correctly")
