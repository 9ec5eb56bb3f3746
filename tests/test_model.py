import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from scene_forest.captions import ParseDiagnostic
from scene_forest.dataset import AttributeSampler, generate_synthetic_scene
from scene_forest.errors import DomainError, InvalidLabel
from scene_forest.model import (
    AttributeSet,
    FRAGILITY_LEVELS,
    MATERIALS,
    MoveAction,
    ObjectInstance,
    Plan,
    SceneRecord,
    SceneTree,
    SpatialPredicate,
    SpatialTriplet,
    TRANSPARENCY_LEVELS,
    TaskKind,
    TaskSpec,
    canonicalize_id,
)
from scene_forest.planner import PlanTrace
from scene_forest.reorganize import Backend, BackendConfig, ConstraintViolation
from scene_forest.treebuild import BuildReport, Violation, ViolationKind

from conftest import make_object, make_table, scene_trees


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

    @pytest.mark.parametrize("mass", [0, -3, float("inf"), float("nan"), True, False])
    def test_bad_mass(self, mass):
        with pytest.raises(DomainError, match="mass_grams must be positive and finite"):
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


# --- the value contract ------------------------------------------------------

_ids = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_text = st.text(max_size=8)
_moves = st.tuples(_ids, _ids).filter(lambda p: p[0] != p[1]).map(lambda p: MoveAction(*p))
_violations = st.builds(Violation, st.sampled_from(ViolationKind), _text)
_attribute_args = st.tuples(
    st.sampled_from(FRAGILITY_LEVELS),
    st.one_of(st.integers(1, 10**20), st.floats(1e-05, 1e16), st.sampled_from([1e16, 1e-05])),
    st.sampled_from(MATERIALS),
    st.sampled_from(TRANSPARENCY_LEVELS),
)


@st.composite
def _record_args(draw):
    record = generate_synthetic_scene(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    triplets = draw(st.sampled_from([record.triplets, None, ()]))
    return record.scene_id, record.objects, record.captions, triplets


@st.composite
def _task_args(draw):
    kind = draw(st.sampled_from(TaskKind))
    target = draw(_ids) if kind is TaskKind.STACK_OBJECT else draw(st.none() | _ids)
    return kind, draw(_text), target


@st.composite
def _backend_args(draw):
    backend = draw(st.sampled_from(Backend))
    if backend is Backend.REMOTE:
        return backend, draw(st.text(min_size=1, max_size=8)), draw(st.text(min_size=1, max_size=8))
    return backend, draw(st.none() | _text), draw(st.none() | _text)


def _tree_args(tree):
    return tree.root, tree.nodes, tree.parent


# Every immutable value type with its parameter names, in order, and a
# strategy for valid constructor arguments.
VALUE_TYPES = [
    (AttributeSet, ("fragility", "mass_grams", "material", "transparency"), _attribute_args),
    (ObjectInstance, ("id", "label", "attributes"),
     st.tuples(_ids, st.text(min_size=1, max_size=8), _attribute_args.map(lambda a: AttributeSet(*a)))),
    (SpatialTriplet, ("subject", "predicate", "support"),
     st.tuples(_ids, st.sampled_from(SpatialPredicate), _ids).filter(lambda t: t[0] != t[2])),
    (SceneTree, ("root", "nodes", "parent"), scene_trees(max_objects=4).map(_tree_args)),
    (TaskSpec, ("kind", "raw_prompt", "target"), _task_args()),
    (MoveAction, ("object", "destination"), _moves.map(lambda m: (m.object, m.destination))),
    (Plan, ("moves",), st.tuples(st.lists(_moves, max_size=3).map(tuple))),
    (SceneRecord, ("scene_id", "objects", "captions", "triplets"), _record_args()),
    (ParseDiagnostic, ("severity", "span", "message"),
     st.tuples(st.just("warning"), st.tuples(st.integers(0, 9), st.integers(0, 9)), _text)),
    (AttributeSampler, ("material_choices", "mass_range_grams"),
     st.tuples(st.lists(st.sampled_from(MATERIALS), min_size=1, max_size=3).map(tuple),
               st.tuples(st.floats(1, 10), st.floats(10, 100)))),
    (PlanTrace, ("plan", "staged_moves"),
     st.tuples(st.lists(_moves, max_size=3).map(lambda m: Plan(tuple(m))), st.integers(0, 3))),
    (BackendConfig, ("backend", "endpoint_url", "model_name"), _backend_args()),
    (ConstraintViolation, ("kind", "above", "below"),
     st.tuples(st.sampled_from(["FragileBelowHeavier", "MassInversion"]), _ids, _ids)),
    (Violation, ("kind", "detail"), st.tuples(st.sampled_from(ViolationKind), _text)),
    (BuildReport, ("tree", "violations"),
     st.tuples(st.none() | scene_trees(max_objects=3), st.lists(_violations, max_size=2).map(tuple))),
]


@st.composite
def _value_cases(draw):
    cls, names, args = draw(st.sampled_from(VALUE_TYPES))
    first = draw(args)
    # `other` differs from `first` in at most one field, so that both equal
    # and unequal pairs are drawn.
    other = list(first)
    i = draw(st.integers(0, len(names) - 1))
    other[i] = draw(args)[i]
    return cls, names, first, tuple(other)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@settings(max_examples=300, deadline=None)
@given(_value_cases())
def test_value_contract(case):
    cls, names, args, other_args = case
    value = cls(*args)
    assert value == cls(**dict(zip(names, copy.deepcopy(args))))
    assert _hash_or_error(value) == _hash_or_error(args)
    try:
        other = cls(*other_args)
    except (DomainError, ValueError):
        other = None  # the mixed fields break a constructor check
    if other is not None:
        assert (value == other) is (args == other_args)
        assert (value != other) is (args != other_args)
        if args == other_args:
            assert _hash_or_error(value) == _hash_or_error(other)

    # Equality goes by class and fields: not a tuple, not a subclass.
    twin = type(f"Twin{cls.__name__}", (cls,), {"__slots__": ()})(*args)
    assert value != args and args != value
    assert value != twin and twin != value

    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert value == cls(*args)

    fields = ", ".join(f"{name}={arg!r}" for name, arg in zip(names, args))
    assert repr(value) == f"{cls.__qualname__}({fields})"

    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value


@settings(max_examples=50, deadline=None)
@given(scene_trees(max_objects=6))
def test_scene_tree_child_index_is_not_a_field(tree):
    indexed = SceneTree(*_tree_args(tree))
    order = indexed.preorder()
    fresh = SceneTree(*_tree_args(tree))
    assert indexed == fresh and repr(indexed) == repr(fresh)
    for clone in (copy.copy(indexed), copy.deepcopy(indexed), pickle.loads(pickle.dumps(indexed))):
        assert clone == fresh and clone.preorder() == order
