import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from scene_forest.errors import (
    DuplicateObject,
    GoalParseError,
    InvalidGoal,
    MalformedIndentation,
    MissingObject,
    NoTreeBlock,
    UnknownId,
    UnsupportedTask,
)
from scene_forest.model import (
    AttributeSet,
    ObjectInstance,
    SceneTree,
    TaskKind,
    TaskSpec,
    fragility_rank,
)
from scene_forest.reorganize import (
    Backend,
    BackendConfig,
    check_goal,
    check_physical_constraints,
    reorganize,
    rule_group_by_material,
    rule_stack_all,
    rule_stack_object,
    rule_unstack_all,
)
from scene_forest.remote import build_messages
from scene_forest.treebuild import validate_tree
from scene_forest.treetext import parse_tree_block, serialize_tree

from conftest import chain_tree, make_object, make_table, random_tree, scene_trees

RULE = BackendConfig(backend=Backend.RULE)
RULES = {
    TaskKind.STACK_ALL: rule_stack_all,
    TaskKind.UNSTACK_ALL: rule_unstack_all,
    TaskKind.GROUP_BY_MATERIAL: rule_group_by_material,
}


def flat_tree(*objects):
    table = make_table()
    nodes = {o.id: o for o in (table, *objects)}
    parent = {o.id: "table_1" for o in objects}
    return SceneTree(root="table_1", nodes=nodes, parent=parent)


def stack_order(tree):
    """Bottom-to-top id sequence of the single stack above the root."""
    order = []
    children = tree.children_of(tree.root)
    while children:
        assert len(children) == 1
        order.append(children[0])
        children = tree.children_of(children[0])
    return order


class TestRuleStackAll:
    def test_fragility_then_mass(self):
        tree = flat_tree(
            make_object("plate_1", fragility="low", mass=400),
            make_object("book_1", fragility="low", mass=300),
            make_object("glass_1", fragility="high", mass=200),
        )
        assert stack_order(rule_stack_all(tree)) == ["plate_1", "book_1", "glass_1"]

    def test_lexicographic_tiebreak(self):
        tree = flat_tree(make_object("b_1"), make_object("a_1"))
        assert stack_order(rule_stack_all(tree)) == ["a_1", "b_1"]

    def test_single_object_unchanged(self):
        tree = chain_tree("book_1")
        assert rule_stack_all(tree) == tree

    def test_mass_descending_same_fragility(self):
        tree = flat_tree(
            make_object("a_1", mass=500),
            make_object("b_1", mass=300),
            make_object("c_1", mass=100),
        )
        assert stack_order(rule_stack_all(tree)) == ["a_1", "b_1", "c_1"]

    def test_scaling_invariance(self, rng):
        for _ in range(20):
            tree = random_tree(rng, rng.randint(1, 6))
            base = serialize_tree(rule_stack_all(tree))
            for c in (0.5, 3, 1000):
                scaled_nodes = {
                    i: ObjectInstance(
                        id=o.id,
                        label=o.label,
                        attributes=AttributeSet(
                            fragility=o.attributes.fragility,
                            mass_grams=o.attributes.mass_grams * c,
                            material=o.attributes.material,
                            transparency=o.attributes.transparency,
                        ),
                    )
                    for i, o in tree.nodes.items()
                }
                scaled = SceneTree(tree.root, scaled_nodes, dict(tree.parent))
                result = rule_stack_all(scaled)
                assert stack_order(result) == stack_order(rule_stack_all(tree)), base


class TestRuleUnstackAll:
    def test_everything_on_root(self, rng):
        tree = random_tree(rng, 5)
        flat = rule_unstack_all(tree)
        assert all(p == "table_1" for p in flat.parent.values())
        assert flat.ids() == tree.ids()


class TestRuleGroupByMaterial:
    def test_distinct_materials(self):
        tree = flat_tree(
            make_object("book_1", material="paper"),
            make_object("cup_1", material="ceramic"),
            make_object("pen_1", material="plastic"),
        )
        grouped = rule_group_by_material(tree)
        assert grouped.children_of("table_1") == ["book_1", "cup_1", "pen_1"]

    def test_same_material_stacked_by_mass(self):
        tree = flat_tree(
            make_object("book_1", material="paper", mass=300),
            make_object("book_2", material="paper", mass=200),
        )
        grouped = rule_group_by_material(tree)
        assert stack_order(grouped) == ["book_1", "book_2"]

    def test_root_only_unchanged(self):
        tree = chain_tree()
        assert rule_group_by_material(tree) == tree

    def test_one_stack_per_material(self, rng):
        for _ in range(20):
            tree = random_tree(rng, rng.randint(1, 8))
            grouped = rule_group_by_material(tree)
            materials = [
                tree.nodes[c].attributes.material
                for c in grouped.children_of("table_1")
            ]
            assert len(materials) == len(set(materials))
            assert validate_tree(grouped) == []


class TestRuleStackObject:
    def test_target_on_top_of_own_stack(self):
        nodes = [
            make_object("book_1", mass=300),
            make_object("cup_1", mass=100),
            make_object("plate_1", mass=400),
            make_object("pen_1", mass=20),
        ]
        table = make_table()
        tree = SceneTree(
            root="table_1",
            nodes={o.id: o for o in (table, *nodes)},
            parent={
                "book_1": "table_1", "cup_1": "book_1",
                "plate_1": "table_1", "pen_1": "plate_1",
            },
        )
        result = rule_stack_object(tree, "book_1")
        # book's stack was {book, cup}; cup goes beneath book, plate stack untouched.
        assert result.parent["cup_1"] == "table_1"
        assert result.parent["book_1"] == "cup_1"
        assert result.parent["plate_1"] == "table_1"
        assert result.parent["pen_1"] == "plate_1"

    def test_target_directly_on_root(self):
        tree = chain_tree("book_1")
        assert rule_stack_object(tree, "book_1") == tree

    def test_root_target_unsupported(self):
        with pytest.raises(UnsupportedTask):
            rule_stack_object(chain_tree("book_1"), "table_1")


class TestReorganize:
    @settings(max_examples=300, deadline=None)
    @given(tree=scene_trees(), kind=st.sampled_from([*RULES, TaskKind.STACK_OBJECT]),
           data=st.data())
    def test_conservation_and_validity(self, tree, kind, data):
        # Why the gate checks only the root and validity: every rule goal is
        # built over the scene's own nodes and root, and is a valid tree.
        if kind is TaskKind.STACK_OBJECT:
            assume(tree.parent)
            target = data.draw(st.sampled_from(sorted(tree.parent)))
            goal = rule_stack_object(tree, target)
        else:
            goal = RULES[kind](tree)
        assert goal.nodes is tree.nodes
        assert goal.root == tree.root
        assert validate_tree(goal) == []
        if kind is TaskKind.STACK_OBJECT:
            assert goal.children_of(target) == []

            def base(n):
                while tree.parent[n] != tree.root:
                    n = tree.parent[n]
                return n

            for n in tree.parent:
                if base(n) != base(target):
                    assert goal.parent[n] == tree.parent[n], n

    def test_free_text_unsupported_on_rule(self):
        task = TaskSpec(kind=TaskKind.FREE_TEXT, raw_prompt="make it tidy")
        with pytest.raises(UnsupportedTask):
            reorganize(chain_tree("book_1"), task, RULE)

    def test_rule_determinism(self, rng):
        tree = random_tree(rng, 6)
        task = TaskSpec(kind=TaskKind.STACK_ALL, raw_prompt="stack all")
        assert serialize_tree(reorganize(tree, task, RULE)) == serialize_tree(
            reorganize(tree, task, RULE)
        )


class TestSerializerRoundTrip:
    def test_round_trip_random(self, rng):
        task = TaskSpec(kind=TaskKind.STACK_ALL, raw_prompt="stack all")
        for _ in range(50):
            tree = random_tree(rng, rng.randint(0, 8))
            prompt = build_messages(tree, task)[1]["content"]
            assert parse_tree_block(prompt, list(tree.nodes.values())) == tree

    def test_prompt_layout(self):
        tree = chain_tree("book_1")
        task = TaskSpec(kind=TaskKind.STACK_ALL, raw_prompt="stack all")
        prompt = build_messages(tree, task)[1]["content"]
        assert "TREE\n" in prompt
        assert "\nEND\n" in prompt
        assert prompt.rstrip().endswith("TASK: stack all")
        assert (
            "  book_1 [material=wood, mass=100, fragility=low, transparency=opaque]"
            in prompt
        )

    def test_missing_object(self):
        tree = chain_tree("book_1", "cup_1")
        block = "TREE\ntable_1 [x]\n  book_1 [x]\nEND\n"
        with pytest.raises(MissingObject):
            parse_tree_block(block, list(tree.nodes.values()))

    def test_duplicate_object(self):
        tree = chain_tree("book_1")
        block = "TREE\ntable_1 [x]\n  book_1 [x]\n  book_1 [x]\nEND\n"
        with pytest.raises(DuplicateObject):
            parse_tree_block(block, list(tree.nodes.values()))

    def test_no_tree_block(self):
        tree = chain_tree("book_1")
        with pytest.raises(NoTreeBlock):
            parse_tree_block("I would stack things nicely.", list(tree.nodes.values()))

    def test_malformed_indentation(self):
        tree = chain_tree("book_1")
        block = "TREE\ntable_1 [x]\n    book_1 [x]\nEND\n"
        with pytest.raises(MalformedIndentation):
            parse_tree_block(block, list(tree.nodes.values()))

    def test_second_root_rejected(self):
        tree = chain_tree("book_1")
        block = "TREE\ntable_1 [x]\nbook_1 [x]\nEND\n"
        with pytest.raises(MalformedIndentation):
            parse_tree_block(block, list(tree.nodes.values()))


class TestPhysicalConstraints:
    def test_fragile_below(self):
        table = make_table()
        glass = make_object("glass_1", fragility="high", mass=200)
        book = make_object("book_1", fragility="low", mass=100)
        tree = SceneTree(
            root="table_1",
            nodes={o.id: o for o in (table, glass, book)},
            parent={"glass_1": "table_1", "book_1": "glass_1"},
        )
        violations = check_physical_constraints(tree)
        assert [(v.kind, v.below, v.above) for v in violations] == [
            ("FragileBelowHeavier", "glass_1", "book_1")
        ]

    def test_mass_inversion(self):
        tree = chain_tree("a_1", "b_1")
        heavy_top = SceneTree(
            root="table_1",
            nodes={
                "table_1": tree.nodes["table_1"],
                "a_1": make_object("a_1", mass=100),
                "b_1": make_object("b_1", mass=500),
            },
            parent=dict(tree.parent),
        )
        violations = check_physical_constraints(heavy_top)
        assert [(v.kind, v.below, v.above) for v in violations] == [
            ("MassInversion", "a_1", "b_1")
        ]

    def test_heavier_above_allowed_when_more_fragile(self):
        tree = SceneTree(
            root="table_1",
            nodes={
                "table_1": make_table(),
                "a_1": make_object("a_1", fragility="low", mass=100),
                "b_1": make_object("b_1", fragility="high", mass=500),
            },
            parent={"a_1": "table_1", "b_1": "a_1"},
        )
        assert check_physical_constraints(tree) == ()

    def test_uniform_stack_clean(self):
        tree = flat_tree(
            make_object("a_1", mass=300), make_object("b_1", mass=200),
            make_object("c_1", mass=100),
        )
        assert check_physical_constraints(rule_stack_all(tree)) == ()

    def test_stack_all_always_clean_exhaustive(self):
        # Independent oracle: enumerate all ancestor pairs on random trees.
        rng = random.Random(7)
        for _ in range(200):
            tree = random_tree(rng, rng.randint(1, 6))
            stacked = rule_stack_all(tree)
            violations = check_physical_constraints(stacked)
            assert violations == (), violations


def _reference_is_descendant(tree, node, ancestor):
    cur = node
    while cur != tree.root:
        cur = tree.parent[cur]
        if cur == ancestor:
            return True
    return False


def reference_physical_violations(tree):
    """The all-pairs scan: (kind, below, above) in below, above order."""
    found = []
    for below in sorted(tree.nodes):
        if below == tree.root:
            continue
        below_attrs = tree.nodes[below].attributes
        for above in sorted(tree.nodes):
            if above == below or not _reference_is_descendant(tree, above, below):
                continue
            above_attrs = tree.nodes[above].attributes
            if fragility_rank(below_attrs.fragility) > fragility_rank(above_attrs.fragility):
                found.append(("FragileBelowHeavier", below, above))
            if above_attrs.mass_grams > below_attrs.mass_grams and fragility_rank(
                above_attrs.fragility
            ) <= fragility_rank(below_attrs.fragility):
                found.append(("MassInversion", below, above))
    return found


@settings(max_examples=300, deadline=None)
@given(scene_trees())
def test_physical_violations_match_all_pairs_scan(tree):
    got = [(v.kind, v.below, v.above) for v in check_physical_constraints(tree)]
    assert got == reference_physical_violations(tree)


def test_check_goal_rejects_wrong_root():
    tree = chain_tree("book_1", "cup_1")
    block = "TREE\ncup_1\n  table_1\n  book_1\nEND\n"
    goal = parse_tree_block(block, list(tree.nodes.values()))
    with pytest.raises(InvalidGoal, match="root"):
        check_goal(tree, goal)


def test_check_goal_on_a_chain_is_fast():
    # The goal gate on a 400-object chain: about 13 ms with a chain walk per
    # node on a 2-vCPU host, about 0.5 ms with one walk for all nodes. Fresh
    # trees per trial, so no cached index carries over.
    ids = [f"box_{i}" for i in range(1, 401)]
    times = []
    for _ in range(3):
        initial, goal = chain_tree(*ids), chain_tree(*ids)
        start = time.perf_counter()
        check_goal(initial, goal)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.005, f"check_goal on a 400-chain took {min(times) * 1000:.1f} ms"


# Line edits applied to a serialized block: (op, line index, other index, depth).
_LINE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["drop", "dup", "swap", "depth", "odd", "rename"]),
        st.integers(0, 16),
        st.integers(0, 16),
        st.integers(0, 4),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(rnd=st.randoms(use_true_random=False), n=st.integers(0, 8), edits=_LINE_EDITS)
def test_parsed_block_is_valid_or_rejected(rnd, n, edits):
    # Why the gate need not re-validate a parsed reply: parse_tree_block
    # either rejects the block or returns a valid tree over the registry.
    tree = random_tree(rnd, n)
    registry = list(tree.nodes.values())
    lines = serialize_tree(tree).splitlines()[1:-1]
    for op, i, j, d in edits:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(j, "  " * d + lines[i].lstrip(" "))
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "depth":
            lines[i] = "  " * d + lines[i].lstrip(" ")
        elif op == "odd":
            lines[i] = " " + lines[i]
        else:
            lines[i] = lines[i].replace(lines[i].split()[0], "ghost_9", 1)
    try:
        parsed = parse_tree_block("\n".join(["TREE", *lines, "END"]), registry)
    except (GoalParseError, UnknownId):
        return
    assert validate_tree(parsed) == []
    assert parsed.ids() == {o.id for o in registry}
    if not edits:
        assert parsed == tree
