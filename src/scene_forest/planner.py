"""Pick-and-place planning between two trees over the same objects.

Only clear (childless) objects may be picked; the root surface has
unlimited capacity and doubles as the staging area. The greedy planner
places objects bottom-up once their goal support chain is settled, staging
blockers on the root; it is sound and bounded by 2n moves but not optimal.

`plan_moves` and `execute_plan` work on a private mutable state (parent
map, child counts, and for the planner a settled set and depths) and
touch immutable `SceneTree`s only at their boundaries: they read a tree's
child index in place and seed every node's count from it. Only unsettled
clear objects move, so settled objects never move again and a move
changes the depth of the moved object alone. Placing an object settles
exactly that object and can make only its goal-children placeable;
picking an object can clear only its old support. Two lazy-deletion heaps
hold the candidates: placeable objects keyed by id, stageable ones by
(-depth, id), the tie-breaking of a full re-scan. A plan therefore costs
O(n log n) and its replay O(n + moves).
"""
from __future__ import annotations

import heapq

from .errors import (
    IdMismatch,
    PickNotClear,
    RootMismatch,
    UnknownId,
)
from .model import MoveAction, Plan, SceneTree, Value


class PlanTrace(Value):
    __slots__ = ("plan", "staged_moves")

    def __init__(self, plan: Plan, staged_moves: int):
        set_plan, set_staged_moves = self._setters
        set_plan(self, plan)
        set_staged_moves(self, staged_moves)


def _check_pair(initial: SceneTree, goal: SceneTree) -> None:
    if initial.nodes.keys() != goal.nodes.keys():
        raise IdMismatch(
            f"id sets differ: {sorted(initial.nodes.keys() ^ goal.nodes.keys())}"
        )
    if initial.root != goal.root:
        raise RootMismatch(f"roots differ: {initial.root} vs {goal.root}")


def _child_counts(tree: SceneTree) -> dict[str, int]:
    """Each node's number of children, from the tree's child index."""
    counts = dict.fromkeys(tree.nodes, 0)
    for node, kids in tree._children.items():
        counts[node] = len(kids)
    return counts


def diff_trees(initial: SceneTree, goal: SceneTree) -> set[str]:
    """Non-root ids whose support differs between the two trees."""
    _check_pair(initial, goal)
    return {
        n for n in initial.nodes
        if n != initial.root and initial.parent[n] != goal.parent[n]
    }


def execute_plan(tree: SceneTree, plan: Plan) -> SceneTree:
    """Apply the moves in order, enforcing pick/place legality throughout.

    A `MoveAction` never names its object as its destination, and a clear
    object has nothing above it, so no legal move can create a cycle.
    """
    nodes, root = tree.nodes, tree.root
    parent = dict(tree.parent)
    child_count = _child_counts(tree)
    for move in plan.moves:
        obj, dest = move.object, move.destination
        if obj not in nodes:
            raise UnknownId(f"unknown object {obj!r}")
        if dest not in nodes:
            raise UnknownId(f"unknown destination {dest!r}")
        if obj == root:
            raise PickNotClear(f"root {obj} cannot be picked")
        if child_count[obj]:
            carried = sorted(c for c, p in parent.items() if p == obj)
            raise PickNotClear(f"{obj} carries {', '.join(carried)}")
        child_count[parent[obj]] -= 1
        child_count[dest] += 1
        parent[obj] = dest
    return SceneTree(root, nodes, parent)


def plan_moves(initial: SceneTree, goal: SceneTree) -> PlanTrace:
    """Greedy sound plan: place onto settled supports, else stage on root.

    Each step places the least-id clear unsettled object whose goal support
    is settled; if there is none it stages the deepest clear unsettled
    object not on the root (ties by id). Each object is staged at most once
    and placed at most once, so the plan never exceeds 2n moves.
    """
    _check_pair(initial, goal)
    root = initial.root
    goal_parent = goal.parent
    goal_children = goal._children
    parent = dict(initial.parent)
    child_count = _child_counts(initial)
    depth = {root: 0}
    settled = {root}
    stack = [root]
    children = initial._children
    while stack:
        node = stack.pop()
        for child in children.get(node, ()):
            depth[child] = depth[node] + 1
            if node in settled and goal_parent[child] == node:
                settled.add(child)
            stack.append(child)

    placeable: list[str] = []
    stageable: list[tuple[int, str]] = []

    def offer(n: str) -> None:
        """Queue an unsettled clear object wherever it now qualifies."""
        if goal_parent[n] in settled:
            heapq.heappush(placeable, n)
        elif parent[n] != root:
            heapq.heappush(stageable, (-depth[n], n))

    for n in initial.nodes:
        if n not in settled and not child_count[n]:
            offer(n)

    moves: list[MoveAction] = []
    staged = 0
    while len(settled) < len(initial.nodes):
        # An entry goes stale only when its object moves: placed objects
        # settle and staged ones sit on the root.
        while placeable and placeable[0] in settled:
            heapq.heappop(placeable)
        if placeable:
            obj = heapq.heappop(placeable)
            dest = goal_parent[obj]
        else:
            while stageable[0][1] in settled or parent[stageable[0][1]] == root:
                heapq.heappop(stageable)
            obj = heapq.heappop(stageable)[1]
            dest = root
            staged += 1
        moves.append(MoveAction(obj, dest))
        old = parent[obj]
        parent[obj] = dest
        depth[obj] = depth[dest] + 1
        child_count[dest] += 1
        child_count[old] -= 1
        if dest == goal_parent[obj]:
            settled.add(obj)
            for child in goal_children.get(obj, ()):
                if not child_count[child]:
                    offer(child)
        if not child_count[old] and old not in settled:
            offer(old)
    return PlanTrace(Plan(tuple(moves)), staged)
