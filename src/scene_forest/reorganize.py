"""Task-driven tree reorganization: deterministic rules or a remote model.

A goal keeps the scene's objects by construction. Every rule goal is built
by `_restack` over the scene's own nodes, each rebuilt stack a chain on the
root; a remote reply is read by `treetext.parse_tree_block`, which rejects
a missing, duplicated or unknown id. Every backend output then passes one
goal gate, `check_goal`, exactly once: the same root as the input and full
tree validity. Rule goals are checked in `reorganize`; remote goals are
checked inside `remote.request_goal_tree`'s retry loop, where a failed
parse or check triggers a re-prompt, never a silent repair.
"""
from __future__ import annotations

import re
from enum import Enum

from .captions import resolve_reference
from .errors import InvalidGoal, UnknownId, UnsupportedTask
from .model import (
    ObjectInstance,
    SceneTree,
    TaskKind,
    TaskSpec,
    Value,
    fragility_rank,
)
from .treebuild import validate_tree


class Backend(Enum):
    RULE = "rule"
    REMOTE = "remote"


class BackendConfig(Value):
    __slots__ = ("backend", "endpoint_url", "model_name")

    def __init__(
        self, backend: Backend, endpoint_url: str | None = None, model_name: str | None = None
    ):
        if backend is Backend.REMOTE and not (endpoint_url and model_name):
            raise ValueError("remote backend requires endpoint_url and model_name")
        set_backend, set_endpoint_url, set_model_name = self._setters
        set_backend(self, backend)
        set_endpoint_url(self, endpoint_url)
        set_model_name(self, model_name)


class ConstraintViolation(Value):
    __slots__ = ("kind", "above", "below")

    def __init__(self, kind: str, above: str, below: str):
        set_kind, set_above, set_below = self._setters
        set_kind(self, kind)  # "FragileBelowHeavier" | "MassInversion"
        set_above(self, above)
        set_below(self, below)


def parse_task(prompt: str, registry: list[ObjectInstance]) -> TaskSpec:
    """Map the closed task phrasings to structured kinds, else free text.

    `stack the <reference>` resolves the reference against the registry and
    raises the caption parser's errors when it names no single object.
    """
    text = prompt.strip().lower().rstrip(".!")
    if text in ("stack all", "stack everything"):
        return TaskSpec(kind=TaskKind.STACK_ALL, raw_prompt=prompt)
    if text in ("unstack", "unstack all", "unstack everything"):
        return TaskSpec(kind=TaskKind.UNSTACK_ALL, raw_prompt=prompt)
    if text == "group by material":
        return TaskSpec(kind=TaskKind.GROUP_BY_MATERIAL, raw_prompt=prompt)
    match = re.fullmatch(r"stack (the .+)", text)
    if match:
        target = resolve_reference(match.group(1), registry)
        return TaskSpec(kind=TaskKind.STACK_OBJECT, raw_prompt=prompt, target=target)
    return TaskSpec(kind=TaskKind.FREE_TEXT, raw_prompt=prompt)


def _stack_key(obj: ObjectInstance):
    # Bottom-to-top ordering: sturdy (low fragility) and heavy first.
    a = obj.attributes
    return (fragility_rank(a.fragility), -a.mass_grams, obj.id)


def _ordered(objects) -> list[str]:
    """Ids in bottom-to-top stacking order."""
    return [o.id for o in sorted(objects, key=_stack_key)]


def _restack(tree: SceneTree, stacks) -> SceneTree:
    """The goal that rebuilds each stack (disjoint lists of ids, bottom
    first) as a chain on the root; every other object keeps its support.

    Every rule goal is built here, over the scene's own nodes and root, so
    it conserves the objects and, as each rebuilt stack sits on the root,
    is a valid tree whenever `tree` is.
    """
    parent = dict(tree.parent)
    for stack in stacks:
        below = tree.root
        for node_id in stack:
            parent[node_id] = below
            below = node_id
    return SceneTree(tree.root, tree.nodes, parent)


def rule_stack_all(tree: SceneTree) -> SceneTree:
    """Single stack above the root: low fragility at the bottom, ties by
    mass descending, remaining ties by id."""
    return _restack(tree, [_ordered(tree.nodes[n] for n in tree.parent)])


def rule_unstack_all(tree: SceneTree) -> SceneTree:
    """Every non-root object directly on the root."""
    return _restack(tree, [[n] for n in tree.parent])


def rule_group_by_material(tree: SceneTree) -> SceneTree:
    """One stack per material, each internally ordered like rule_stack_all."""
    groups: dict[str, list[ObjectInstance]] = {}
    for n in tree.parent:
        obj = tree.nodes[n]
        groups.setdefault(obj.attributes.material, []).append(obj)
    return _restack(tree, [_ordered(group) for group in groups.values()])


def rule_stack_object(tree: SceneTree, target: str) -> SceneTree:
    """Restack the target's current stack with the target on top.

    The stack is the subtree hanging off the target's ancestor that sits
    directly on the root; its other members are ordered like
    rule_stack_all beneath the target. Other stacks are untouched.
    """
    if target not in tree.nodes:
        raise UnknownId(f"stack target {target!r} not in tree")
    if target == tree.root:
        raise UnsupportedTask("cannot stack the support surface itself")
    base = target
    while tree.parent[base] != tree.root:
        base = tree.parent[base]
    members = [base]
    for n in members:
        members.extend(tree.children_of(n))
    others = _ordered(tree.nodes[n] for n in members if n != target)
    return _restack(tree, [others + [target]])


def check_physical_constraints(tree: SceneTree) -> tuple[ConstraintViolation, ...]:
    """Advisory scan of every support path for risky pairings.

    FragileBelowHeavier: a more fragile object beneath a less fragile one.
    MassInversion: a heavier object above a lighter one without the
    fragility justification (the upper object is not strictly more fragile).
    """
    violations: list[ConstraintViolation] = []
    path: list[str] = []  # supports between the root and the current node
    stack = [(child, 0) for child in tree.children_of(tree.root)]
    while stack:
        above, level = stack.pop()
        del path[level:]
        above_attrs = tree.nodes[above].attributes
        for below in path:
            below_attrs = tree.nodes[below].attributes
            if fragility_rank(below_attrs.fragility) > fragility_rank(above_attrs.fragility):
                violations.append(
                    ConstraintViolation("FragileBelowHeavier", above=above, below=below)
                )
            if above_attrs.mass_grams > below_attrs.mass_grams and fragility_rank(
                above_attrs.fragility
            ) <= fragility_rank(below_attrs.fragility):
                violations.append(
                    ConstraintViolation("MassInversion", above=above, below=below)
                )
        path.append(above)
        stack.extend((child, level + 1) for child in tree.children_of(above))
    # Stable: a pair's FragileBelowHeavier stays ahead of its MassInversion.
    violations.sort(key=lambda v: (v.below, v.above))
    return tuple(violations)


def check_goal(initial: SceneTree, goal: SceneTree) -> None:
    """The goal gate: same root, and validity. Conservation holds by
    construction (see the module docstring)."""
    if goal.root != initial.root:
        raise InvalidGoal(f"goal root {goal.root} differs from scene root {initial.root}")
    violations = validate_tree(goal)
    if violations:
        details = "; ".join(f"{v.kind.value}: {v.detail}" for v in violations)
        raise InvalidGoal(f"goal tree invalid: {details}")


def reorganize(tree: SceneTree, task: TaskSpec, config: BackendConfig) -> SceneTree:
    """Produce a goal tree for the task using the configured backend."""
    if config.backend is Backend.REMOTE:
        from .remote import request_goal_tree

        return request_goal_tree(tree, task, config)
    if task.kind is TaskKind.STACK_ALL:
        goal = rule_stack_all(tree)
    elif task.kind is TaskKind.UNSTACK_ALL:
        goal = rule_unstack_all(tree)
    elif task.kind is TaskKind.GROUP_BY_MATERIAL:
        goal = rule_group_by_material(tree)
    elif task.kind is TaskKind.STACK_OBJECT:
        goal = rule_stack_object(tree, task.target)
    else:
        raise UnsupportedTask(
            f"rule backend cannot handle free-text task {task.raw_prompt!r}"
        )
    check_goal(tree, goal)
    return goal
