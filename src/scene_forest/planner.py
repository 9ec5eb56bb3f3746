"""Pick-and-place planning between two trees over the same objects.

Only clear (childless) objects may be picked; the root surface has
unlimited capacity and doubles as the staging area. The greedy planner
places objects bottom-up once their goal support chain is settled, staging
blockers on the root; it is sound and bounded by 2n moves but not optimal.
A breadth-first oracle provides optimal plans for small instances.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    CycleCreated,
    IdMismatch,
    PickNotClear,
    RootMismatch,
    SearchBudgetExceeded,
    SelfMove,
    UnknownId,
)
from .model import MoveAction, Plan, SceneTree
from .treebuild import depth


@dataclass(frozen=True)
class PlanTrace:
    plan: Plan
    staged_moves: int


def _check_pair(initial: SceneTree, goal: SceneTree) -> None:
    if initial.ids() != goal.ids():
        raise IdMismatch(
            f"id sets differ: {sorted(initial.ids() ^ goal.ids())}"
        )
    if initial.root != goal.root:
        raise RootMismatch(f"roots differ: {initial.root} vs {goal.root}")


def diff_trees(initial: SceneTree, goal: SceneTree) -> set[str]:
    """Non-root ids whose support differs between the two trees."""
    _check_pair(initial, goal)
    return {
        n for n in initial.nodes
        if n != initial.root and initial.parent[n] != goal.parent[n]
    }


def apply_move(tree: SceneTree, move: MoveAction) -> SceneTree:
    """Reparent a clear object; no-op moves are legal."""
    if move.object not in tree.nodes:
        raise UnknownId(f"unknown object {move.object!r}")
    if move.destination not in tree.nodes:
        raise UnknownId(f"unknown destination {move.destination!r}")
    if move.object == move.destination:
        raise SelfMove(f"{move.object} onto itself")
    if move.object == tree.root:
        raise PickNotClear(f"root {move.object} cannot be picked")
    if tree.children_of(move.object):
        raise PickNotClear(
            f"{move.object} carries {', '.join(tree.children_of(move.object))}"
        )
    # A clear object's subtree is itself, but guard against general misuse.
    cur = move.destination
    while cur != tree.root:
        if cur == move.object:
            raise CycleCreated(f"{move.destination} is above {move.object}")
        cur = tree.parent[cur]
    return tree.with_parent(move.object, move.destination)


def execute_plan(tree: SceneTree, plan: Plan) -> SceneTree:
    """Apply the moves in order, enforcing pick/place legality throughout."""
    state = tree
    for move in plan.moves:
        state = apply_move(state, move)
    return state


def _settled(state: SceneTree, goal: SceneTree) -> set[str]:
    """Objects whose entire support chain already matches the goal."""
    settled = {state.root}
    for node in state.preorder():
        if node == state.root:
            continue
        p = state.parent[node]
        if p in settled and goal.parent[node] == p:
            settled.add(node)
    return settled


def plan_moves(initial: SceneTree, goal: SceneTree) -> PlanTrace:
    """Greedy sound plan: place onto settled supports, else stage on root.

    Each object is staged at most once and placed at most once, so the
    plan never exceeds 2n moves.
    """
    _check_pair(initial, goal)
    state = initial
    moves: list[MoveAction] = []
    staged = 0
    while True:
        settled = _settled(state, goal)
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


def _state_key(parent: dict[str, str]) -> tuple:
    return tuple(sorted(parent.items()))


def optimal_plan_bfs(
    initial: SceneTree, goal: SceneTree, node_limit: int = 200_000
) -> Plan:
    """Shortest plan via breadth-first search over reachable arrangements.

    Intended as a test oracle for small scenes (≤ 8 movable objects).
    Ties are broken by lexicographic (object, destination) move ordering.
    """
    _check_pair(initial, goal)
    ids = sorted(initial.nodes)
    start = _state_key(initial.parent)
    target = _state_key(goal.parent)
    if start == target:
        return Plan(moves=())
    came_from: dict[tuple, tuple[tuple, MoveAction]] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        key = queue.popleft()
        parent = dict(key)
        supports = set(parent.values())
        clear = [n for n in ids if n != initial.root and n not in supports]
        for obj in clear:
            for dest in ids:
                if dest == obj or parent[obj] == dest:
                    continue
                nxt = dict(parent)
                nxt[obj] = dest
                nkey = _state_key(nxt)
                if nkey in seen:
                    continue
                seen.add(nkey)
                if len(seen) > node_limit:
                    raise SearchBudgetExceeded(f"exceeded {node_limit} states")
                came_from[nkey] = (key, MoveAction(object=obj, destination=dest))
                if nkey == target:
                    moves: list[MoveAction] = []
                    cur = nkey
                    while cur != start:
                        cur, move = came_from[cur]
                        moves.append(move)
                    moves.reverse()
                    return Plan(moves=tuple(moves))
                queue.append(nkey)
    raise SearchBudgetExceeded("goal unreachable within explored states")
