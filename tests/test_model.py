import math

import pytest

from scene_forest.errors import DomainError, InvalidLabel
from scene_forest.model import (
    AttributeSet,
    MoveAction,
    ObjectInstance,
    SceneTree,
    SpatialPredicate,
    SpatialTriplet,
    TaskKind,
    TaskSpec,
    canonicalize_id,
)

from conftest import make_object, make_table


class TestCanonicalizeId:
    def test_basic(self):
        assert canonicalize_id("Book", 1) == "book_1"

    def test_idempotent_case(self):
        assert canonicalize_id("book", 1) == canonicalize_id("Book", 1) == "book_1"

    def test_empty_label(self):
        with pytest.raises(InvalidLabel):
            canonicalize_id("", 1)

    def test_no_alphanumerics(self):
        with pytest.raises(InvalidLabel):
            canonicalize_id("!!!", 2)

    def test_spaces_collapse(self):
        assert canonicalize_id("Coffee Mug", 2) == "coffee_mug_2"

    def test_nonpositive_ordinal(self):
        with pytest.raises(InvalidLabel):
            canonicalize_id("book", 0)


class TestAttributeSet:
    def test_valid(self):
        a = AttributeSet("medium", 250.5, "glass", "transparent")
        assert a.mass_grams == 250.5

    @pytest.mark.parametrize("mass", [0, -3, float("inf"), float("nan")])
    def test_bad_mass(self, mass):
        with pytest.raises(DomainError):
            AttributeSet("low", mass, "wood", "opaque")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fragility": "fragile"},
            {"material": "adamantium"},
            {"transparency": "clear"},
        ],
    )
    def test_bad_vocab(self, kwargs):
        base = dict(fragility="low", mass_grams=1.0, material="wood",
                    transparency="opaque")
        base.update(kwargs)
        with pytest.raises(DomainError):
            AttributeSet(**base)


def test_object_instance_rejects_bad_id():
    with pytest.raises(DomainError):
        make_object("Book_1")


def test_object_instance_rejects_empty_label():
    with pytest.raises(DomainError):
        make_object("book_1", label="")


def test_triplet_rejects_self_support():
    with pytest.raises(DomainError):
        SpatialTriplet("book_1", SpatialPredicate.ON, "book_1")


def test_move_rejects_self_destination():
    with pytest.raises(DomainError):
        MoveAction("book_1", "book_1")


def test_stack_object_task_requires_target():
    with pytest.raises(DomainError):
        TaskSpec(kind=TaskKind.STACK_OBJECT, raw_prompt="stack the book")


def test_scene_tree_structural_equality():
    nodes = {o.id: o for o in [make_table(), make_object("book_1")]}
    t1 = SceneTree("table_1", nodes, {"book_1": "table_1"})
    t2 = SceneTree("table_1", dict(nodes), {"book_1": "table_1"})
    assert t1 == t2


def test_scene_tree_children_lexicographic():
    nodes = {o.id: o for o in [make_table(), make_object("b_1"), make_object("a_1")]}
    tree = SceneTree("table_1", nodes, {"b_1": "table_1", "a_1": "table_1"})
    assert tree.children_of("table_1") == ["a_1", "b_1"]
    assert tree.preorder() == ["table_1", "a_1", "b_1"]


def test_predicate_from_token():
    assert SpatialPredicate.from_token("on") is SpatialPredicate.ON
    assert SpatialPredicate.from_token("on_top_of") is SpatialPredicate.ON_TOP_OF
    for token in (["on"], None, "", "ON"):
        with pytest.raises(DomainError, match="unknown predicate token"):
            SpatialPredicate.from_token(token)
