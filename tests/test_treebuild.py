import random

import pytest

from scene_forest.errors import UnknownId
from scene_forest.model import SceneTree, SpatialPredicate, SpatialTriplet
from scene_forest.treebuild import (
    ViolationKind,
    build_tree,
    clear_objects,
    depth,
    detect_cycle,
    to_dot,
    validate_tree,
)

from conftest import chain_tree, make_object, make_table, random_tree


def on(subject, support):
    return SpatialTriplet(subject, SpatialPredicate.ON, support)


class TestBuildTree:
    def test_table_root(self):
        report = build_tree(
            [SpatialTriplet("book_1", SpatialPredicate.ON_TOP_OF, "table_1")],
            [make_table(), make_object("book_1")],
        )
        assert report.success
        assert report.tree.root == "table_1"
        assert report.tree.parent == {"book_1": "table_1"}

    def test_no_edges_single_node(self):
        report = build_tree([], [make_table()])
        assert report.success
        assert report.tree.root == "table_1"
        assert report.tree.parent == {}

    def test_cycle_violation(self):
        report = build_tree(
            [on("a_1", "b_1"), on("b_1", "a_1")],
            [make_object("a_1"), make_object("b_1"), make_table()],
        )
        assert not report.success
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.CYCLE in kinds
        cycle_v = next(v for v in report.violations if v.kind is ViolationKind.CYCLE)
        assert "a_1 -> b_1 -> a_1" in cycle_v.detail

    def test_multiple_parents_violation(self):
        report = build_tree(
            [on("book_1", "table_1"), on("book_1", "cup_1")],
            [make_table(), make_object("book_1"), make_object("cup_1")],
        )
        assert {v.kind for v in report.violations} == {ViolationKind.MULTIPLE_PARENTS}

    def test_unknown_id_violation(self):
        report = build_tree(
            [on("ghost_1", "table_1")], [make_table(), make_object("book_1")]
        )
        assert ViolationKind.UNKNOWN_ID in {v.kind for v in report.violations}

    def test_unmentioned_objects_attach_to_root(self):
        report = build_tree(
            [on("book_1", "table_1")],
            [make_table(), make_object("book_1"), make_object("pen_1")],
        )
        assert report.success
        assert report.tree.parent["pen_1"] == "table_1"

    def test_surface_label_preferred_as_root(self):
        # Both table_1 and jar_1 are never subjects; table wins by label.
        report = build_tree(
            [on("cup_1", "jar_1")],
            [make_table(), make_object("jar_1"), make_object("cup_1")],
        )
        assert report.success
        assert report.tree.root == "table_1"
        assert report.tree.parent["jar_1"] == "table_1"

    def test_no_root_when_ambiguous(self):
        report = build_tree(
            [], [make_object("jar_1"), make_object("cup_1")]
        )
        assert {v.kind for v in report.violations} == {ViolationKind.NO_ROOT}

    def test_edge_fidelity(self):
        triplets = [on("book_1", "table_1"), on("cup_1", "book_1")]
        report = build_tree(
            triplets, [make_table(), make_object("book_1"), make_object("cup_1")]
        )
        assert {t.subject: t.support for t in triplets} == {
            k: v for k, v in report.tree.parent.items()
        }

    def test_successful_build_validates(self, rng):
        for _ in range(50):
            tree = random_tree(rng, rng.randint(1, 7))
            triplets = [on(c, p) for c, p in sorted(tree.parent.items())]
            report = build_tree(triplets, list(tree.nodes.values()))
            assert report.success
            assert validate_tree(report.tree) == []
            assert report.tree == tree


class TestDetectCycle:
    def test_chain_acyclic(self):
        assert detect_cycle([on("a_1", "b_1"), on("b_1", "c_1")]) is None

    def test_two_cycle(self):
        assert detect_cycle([on("a_1", "b_1"), on("b_1", "a_1")]) == [
            "a_1", "b_1", "a_1"
        ]

    def test_empty(self):
        assert detect_cycle([]) is None

    def test_shortest_and_least_start(self):
        triplets = [
            on("c_1", "d_1"), on("d_1", "c_1"),
            on("a_1", "b_1"), on("b_1", "a_1"),
        ]
        assert detect_cycle(triplets) == ["a_1", "b_1", "a_1"]

    def test_longer_cycle_path(self):
        triplets = [on("a_1", "b_1"), on("b_1", "c_1"), on("c_1", "a_1")]
        assert detect_cycle(triplets) == ["a_1", "b_1", "c_1", "a_1"]


class TestValidateTree:
    def test_valid_stack(self):
        assert validate_tree(chain_tree("book_1", "cup_1", "pen_1")) == []

    def test_root_with_parent(self):
        tree = chain_tree("book_1")
        broken = SceneTree(
            root="table_1", nodes=tree.nodes,
            parent={"book_1": "table_1", "table_1": "book_1"},
        )
        kinds = {v.kind for v in validate_tree(broken)}
        assert kinds & {ViolationKind.CYCLE, ViolationKind.MULTIPLE_PARENTS}

    def test_unreachable_node(self):
        nodes = {o.id: o for o in [make_table(), make_object("a_1"), make_object("b_1")]}
        broken = SceneTree(root="table_1", nodes=nodes, parent={"a_1": "table_1"})
        assert ViolationKind.NO_ROOT in {v.kind for v in validate_tree(broken)}

    def test_disconnected_cycle(self):
        nodes = {o.id: o for o in [make_table(), make_object("a_1"), make_object("b_1")]}
        broken = SceneTree(
            root="table_1", nodes=nodes, parent={"a_1": "b_1", "b_1": "a_1"}
        )
        assert ViolationKind.CYCLE in {v.kind for v in validate_tree(broken)}

    def test_unknown_parent_id(self):
        nodes = {o.id: o for o in [make_table(), make_object("a_1")]}
        broken = SceneTree(root="table_1", nodes=nodes, parent={"a_1": "ghost_1"})
        assert ViolationKind.UNKNOWN_ID in {v.kind for v in validate_tree(broken)}


class TestDepthAndClear:
    def test_depth_root(self):
        tree = chain_tree("book_1", "cup_1")
        assert depth(tree, "table_1") == 0

    def test_depth_chain(self):
        tree = chain_tree("book_1", "cup_1")
        assert depth(tree, "cup_1") == 2

    def test_depth_unknown(self):
        with pytest.raises(UnknownId):
            depth(chain_tree("book_1"), "ghost_1")

    def test_depth_increments_along_edges(self, rng):
        tree = random_tree(rng, 6)
        for child, parent in tree.parent.items():
            assert depth(tree, child) == depth(tree, parent) + 1

    def test_clear_chain(self):
        assert clear_objects(chain_tree("book_1", "cup_1")) == {"cup_1"}

    def test_clear_two_leaves(self):
        nodes = {o.id: o for o in [make_table(), make_object("a_1"), make_object("b_1")]}
        tree = SceneTree(
            root="table_1", nodes=nodes, parent={"a_1": "table_1", "b_1": "table_1"}
        )
        assert clear_objects(tree) == {"a_1", "b_1"}

    def test_clear_single_node(self):
        report_tree = chain_tree()
        assert clear_objects(report_tree) == set()


def test_to_dot_deterministic_and_complete():
    tree = chain_tree("book_1", "cup_1")
    dot = to_dot(tree)
    assert dot == to_dot(tree)
    assert '"table_1" -> "book_1";' in dot
    assert '"book_1" -> "cup_1";' in dot
    assert 'book_1\\n[wood, 100]' in dot
