import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from scene_forest.errors import (
    IdMismatch,
    PickNotClear,
    RootMismatch,
    UnknownId,
)
from scene_forest.model import MoveAction, Plan, SceneTree
from scene_forest.planner import PlanTrace, diff_trees, execute_plan, plan_moves
from scene_forest.reorganize import (
    rule_group_by_material,
    rule_stack_all,
    rule_stack_object,
    rule_unstack_all,
)
from scene_forest.treebuild import validate_tree

from conftest import (
    SearchBudgetExceeded,
    arrangements,
    chain_tree,
    clear_objects,
    depth,
    make_object,
    make_table,
    optimal_plan_bfs,
    random_parent_map,
    random_tree,
    scene_trees,
)


def rearranged(tree, parent):
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


def apply_move(tree: SceneTree, move: MoveAction) -> SceneTree:
    """One move on an immutable tree, with execute_plan's errors and messages.

    Written apart from execute_plan, which keeps counts over a private
    mutable state, so that the replay property compares two implementations.
    No-op moves are legal.
    """
    if move.object not in tree.nodes:
        raise UnknownId(f"unknown object {move.object!r}")
    if move.destination not in tree.nodes:
        raise UnknownId(f"unknown destination {move.destination!r}")
    if move.object == tree.root:
        raise PickNotClear(f"root {move.object} cannot be picked")
    carried = tree.children_of(move.object)
    if carried:
        raise PickNotClear(f"{move.object} carries {', '.join(carried)}")
    return rearranged(tree, {**tree.parent, move.object: move.destination})


class TestDiffTrees:
    def test_identical(self):
        tree = chain_tree("book_1", "cup_1")
        assert diff_trees(tree, tree) == set()

    def test_swap(self):
        tree = chain_tree("book_1", "cup_1")
        goal = rearranged(tree, {"cup_1": "table_1", "book_1": "cup_1"})
        assert diff_trees(tree, goal) == {"book_1", "cup_1"}

    def test_single_leaf_moved(self):
        nodes = {o.id: o for o in [make_table(), make_object("a_1"), make_object("b_1")]}
        initial = SceneTree("table_1", nodes, {"a_1": "table_1", "b_1": "table_1"})
        goal = SceneTree("table_1", nodes, {"a_1": "table_1", "b_1": "a_1"})
        assert diff_trees(initial, goal) == {"b_1"}

    def test_id_mismatch(self):
        with pytest.raises(IdMismatch):
            diff_trees(chain_tree("book_1"), chain_tree("cup_1"))

    def test_root_mismatch(self):
        tree = chain_tree("book_1")
        other = SceneTree("book_1", tree.nodes, {"table_1": "book_1"})
        with pytest.raises(RootMismatch):
            diff_trees(tree, other)


class TestExecutePlan:
    def test_noop_move_allowed(self):
        tree = chain_tree("book_1")
        result = execute_plan(tree, Plan((MoveAction("book_1", "table_1"),)))
        assert result == tree

    def test_pick_not_clear(self):
        tree = chain_tree("book_1", "cup_1")
        with pytest.raises(PickNotClear):
            execute_plan(tree, Plan((MoveAction("book_1", "cup_1"),)))

    def test_clear_after_unblocking(self):
        tree = chain_tree("a_1", "b_1")
        plan = Plan((MoveAction("b_1", "table_1"), MoveAction("a_1", "b_1")))
        result = execute_plan(tree, plan)
        assert result.parent == {"b_1": "table_1", "a_1": "b_1"}

    def test_unknown_ids(self):
        tree = chain_tree("book_1")
        with pytest.raises(UnknownId):
            execute_plan(tree, Plan((MoveAction("ghost_1", "table_1"),)))
        with pytest.raises(UnknownId):
            execute_plan(tree, Plan((MoveAction("book_1", "ghost_1"),)))

    def test_root_not_pickable(self):
        tree = chain_tree()
        nodes = dict(tree.nodes)
        nodes["a_1"] = make_object("a_1")
        spread = SceneTree("table_1", nodes, {"a_1": "table_1"})
        with pytest.raises(PickNotClear):
            execute_plan(spread, Plan((MoveAction("table_1", "a_1"),)))

    def test_self_move_rejected_at_type_level(self):
        with pytest.raises(Exception):
            MoveAction("a_1", "a_1")


class TestPlanMoves:
    def test_fixed_point(self):
        tree = chain_tree("book_1", "cup_1")
        trace = plan_moves(tree, tree)
        assert len(trace.plan) == 0
        assert trace.staged_moves == 0

    def test_single_clear_move(self):
        nodes = {o.id: o for o in [make_table(), make_object("a_1"), make_object("b_1")]}
        initial = SceneTree("table_1", nodes, {"a_1": "table_1", "b_1": "table_1"})
        goal = SceneTree("table_1", nodes, {"a_1": "table_1", "b_1": "a_1"})
        trace = plan_moves(initial, goal)
        assert list(trace.plan.moves) == [MoveAction("b_1", "a_1")]

    def test_swap_two_moves(self):
        initial = chain_tree("book_1", "cup_1")
        goal = rearranged(initial, {"cup_1": "table_1", "book_1": "cup_1"})
        trace = plan_moves(initial, goal)
        assert list(trace.plan.moves) == [
            MoveAction("cup_1", "table_1"),
            MoveAction("book_1", "cup_1"),
        ]
        # BFS oracle: two moves is optimal for the swap.
        assert len(optimal_plan_bfs(initial, goal)) == 2

    def test_three_stack_reversal(self):
        initial = chain_tree("a_1", "b_1", "c_1")
        goal = rearranged(
            initial, {"c_1": "table_1", "b_1": "c_1", "a_1": "b_1"}
        )
        trace = plan_moves(initial, goal)
        assert execute_plan(initial, trace.plan) == goal
        # Oracle-computed optimum for the full reversal is 3 moves.
        assert len(optimal_plan_bfs(initial, goal)) == 3
        assert len(trace.plan) == 3

    def test_soundness_random(self, rng):
        for _ in range(100):
            n = rng.randint(1, 8)
            initial = random_tree(rng, n)
            goal = random_parent_map(rng, initial)
            trace = plan_moves(initial, goal)
            assert execute_plan(initial, trace.plan) == goal
            assert len(trace.plan) <= 2 * n

    def test_every_pick_is_clear_and_states_valid(self, rng):
        for _ in range(40):
            initial = random_tree(rng, rng.randint(1, 7))
            goal = random_parent_map(rng, initial)
            trace = plan_moves(initial, goal)
            state = initial
            for move in trace.plan.moves:
                assert move.object in clear_objects(state)
                state = apply_move(state, move)
                assert validate_tree(state) == []
            assert state == goal

    def test_lower_bound(self, rng):
        for _ in range(40):
            initial = random_tree(rng, rng.randint(1, 7))
            goal = random_parent_map(rng, initial)
            trace = plan_moves(initial, goal)
            assert len(trace.plan) >= len(diff_trees(initial, goal))

    def test_staged_moves_counted(self):
        initial = chain_tree("a_1", "b_1")
        goal = rearranged(initial, {"b_1": "table_1", "a_1": "b_1"})
        trace = plan_moves(initial, goal)
        # b must come off a before a can be placed; that first move is the
        # goal placement of b, so no staging is needed here.
        assert trace.staged_moves == 0
        assert len(trace.plan) == 2


class TestOptimalPlanBfs:
    def test_identity(self):
        tree = chain_tree("a_1", "b_1")
        assert len(optimal_plan_bfs(tree, tree)) == 0

    def test_budget_exceeded(self):
        initial = chain_tree("a_1", "b_1", "c_1")
        goal = rearranged(initial, {"c_1": "table_1", "b_1": "c_1", "a_1": "b_1"})
        with pytest.raises(SearchBudgetExceeded):
            optimal_plan_bfs(initial, goal, node_limit=2)

    def test_oracle_plans_execute(self, rng):
        for _ in range(20):
            initial = random_tree(rng, rng.randint(1, 5))
            goal = random_parent_map(rng, initial)
            plan = optimal_plan_bfs(initial, goal)
            assert execute_plan(initial, plan) == goal

    def test_dominance_over_greedy(self, rng):
        for _ in range(30):
            initial = random_tree(rng, rng.randint(1, 6))
            goal = random_parent_map(rng, initial)
            optimal = optimal_plan_bfs(initial, goal)
            greedy = plan_moves(initial, goal)
            assert len(optimal) <= len(greedy.plan)

    def test_deterministic(self, rng):
        initial = random_tree(rng, 4)
        goal = random_parent_map(rng, initial)
        assert optimal_plan_bfs(initial, goal) == optimal_plan_bfs(initial, goal)


# --- reference: the greedy loop as a full re-scan per move ------------------

def _reference_settled(state: SceneTree, goal: SceneTree) -> set[str]:
    """Objects whose entire support chain already matches the goal."""
    settled = {state.root}
    for node in state.preorder():
        if node == state.root:
            continue
        p = state.parent[node]
        if p in settled and goal.parent[node] == p:
            settled.add(node)
    return settled


def reference_plan_moves(initial: SceneTree, goal: SceneTree) -> PlanTrace:
    """The greedy planner recomputing every quantity on every move, O(n^3)."""
    state = initial
    moves: list[MoveAction] = []
    staged = 0
    while True:
        settled = _reference_settled(state, goal)
        unsettled = sorted(set(state.nodes) - settled)
        if not unsettled:
            break
        clear = {
            n for n in unsettled
            if not state.children_of(n)
        }
        placeable = sorted(
            n for n in clear
            if goal.parent[n] in settled and state.parent[n] != goal.parent[n]
        )
        if placeable:
            obj = placeable[0]
            move = MoveAction(object=obj, destination=goal.parent[obj])
        else:
            stageable = [n for n in clear if state.parent[n] != state.root]
            # Deepest first so towers unblock from the top down.
            stageable.sort(key=lambda n: (-depth(state, n), n))
            obj = stageable[0]
            move = MoveAction(object=obj, destination=state.root)
            staged += 1
        state = apply_move(state, move)
        moves.append(move)
    return PlanTrace(plan=Plan(moves=tuple(moves)), staged_moves=staged)


@st.composite
def tree_pairs(draw):
    """(initial, goal): the goal is another drawn arrangement or a rule goal."""
    initial = draw(scene_trees())
    kind = draw(st.sampled_from(["arrangement", "stack_all", "unstack_all",
                                 "group", "stack_object"]))
    movable = sorted(n for n in initial.nodes if n != initial.root)
    if kind == "stack_all":
        goal = rule_stack_all(initial)
    elif kind == "unstack_all":
        goal = rule_unstack_all(initial)
    elif kind == "group":
        goal = rule_group_by_material(initial)
    elif kind == "stack_object" and movable:
        goal = rule_stack_object(initial, draw(st.sampled_from(movable)))
    else:
        goal = draw(arrangements(initial))
    return initial, goal


@settings(max_examples=300, deadline=None)
@given(tree_pairs())
def test_plan_matches_reference(pair):
    initial, goal = pair
    trace = plan_moves(initial, goal)
    assert trace == reference_plan_moves(initial, goal)
    assert execute_plan(initial, trace.plan) == goal


@st.composite
def mutated_plans(draw):
    """(initial, moves): a greedy plan with moves inserted or deleted.

    Inserted moves name unknown ids, pick the root, pick an object that
    carries others, or join two arbitrary ids. Each is a `MoveAction`,
    which cannot be a self-move.
    """
    initial, goal = draw(tree_pairs())
    moves = list(plan_moves(initial, goal).plan.moves)
    ids = sorted(initial.nodes)
    carriers = sorted(set(initial.parent.values()) - {initial.root}) or ids
    any_id = st.sampled_from(ids)

    def onto_other(obj: str) -> MoveAction:
        others = [n for n in ids if n != obj] or ["ghost_1"]
        return MoveAction(obj, draw(st.sampled_from(others)))

    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(moves)))
        kind = draw(st.sampled_from(
            ["unknown_object", "unknown_destination", "root", "carrier", "any", "delete"]))
        if kind == "delete":
            del moves[at:at + 1]
            continue
        if kind == "unknown_object":
            move = MoveAction("ghost_1", draw(any_id))
        elif kind == "unknown_destination":
            move = MoveAction(draw(any_id), "ghost_1")
        elif kind == "root":
            move = onto_other(initial.root)
        elif kind == "carrier":
            move = onto_other(draw(st.sampled_from(carriers)))
        else:
            move = onto_other(draw(any_id))
        moves.insert(at, move)
    return initial, moves


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _fold_apply_move(tree: SceneTree, moves) -> SceneTree:
    for move in moves:
        tree = apply_move(tree, move)
    return tree


@settings(max_examples=300, deadline=None)
@given(mutated_plans())
def test_replay_matches_fold_of_apply_move(case):
    initial, moves = case
    expected = _outcome(lambda: _fold_apply_move(initial, moves))
    assert _outcome(lambda: execute_plan(initial, Plan(tuple(moves)))) == expected


def test_plan_and_replay_scale_near_linearly():
    # 400 objects in 8-high towers restacked into one 400-high chain. On a
    # 2-vCPU host the full re-scan planner alone takes about 10 s and the
    # incremental one about 10 ms, so the bound tolerates a loaded host
    # and still catches a return to O(n^3).
    rng = random.Random(7)
    initial = random_tree(rng, 400)
    ids = sorted(n for n in initial.nodes if n != initial.root)
    parent = {
        obj_id: initial.root if i % 8 == 0 else ids[i - 1]
        for i, obj_id in enumerate(ids)
    }
    initial = rearranged(initial, parent)
    goal = rule_stack_all(initial)
    start = time.perf_counter()
    trace = plan_moves(initial, goal)
    final = execute_plan(initial, trace.plan)
    elapsed = time.perf_counter() - start
    assert final == goal
    assert elapsed < 2.0, f"plan + replay of 400 objects took {elapsed:.2f} s"
