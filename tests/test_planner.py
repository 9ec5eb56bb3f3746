import random

import pytest

from scene_forest.errors import (
    IdMismatch,
    PickNotClear,
    RootMismatch,
    SearchBudgetExceeded,
    SelfMove,
    UnknownId,
)
from scene_forest.model import MoveAction, Plan, SceneTree
from scene_forest.planner import (
    apply_move,
    diff_trees,
    execute_plan,
    optimal_plan_bfs,
    plan_moves,
)
from scene_forest.treebuild import clear_objects, validate_tree

from conftest import chain_tree, make_object, make_table, random_parent_map, random_tree


def rearranged(tree, parent):
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


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
