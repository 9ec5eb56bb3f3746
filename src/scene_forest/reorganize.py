"""Task-driven tree reorganization: deterministic rules or a remote model.

Every backend output passes one goal gate, `check_goal`, exactly once:
same root and same id set as the input (each object used once) and full
tree validity. Rule goals are checked in `reorganize`; remote goals are
checked inside `remote.request_goal_tree`'s retry loop, where a failed
check triggers a re-prompt, never a silent repair.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidGoal, UnknownId, UnsupportedTask
from .model import (
    ObjectInstance,
    SceneTree,
    TaskKind,
    TaskSpec,
    fragility_rank,
)
from .treebuild import validate_tree


class Backend(Enum):
    RULE = "rule"
    REMOTE = "remote"


@dataclass(frozen=True)
class BackendConfig:
    backend: Backend
    endpoint_url: str | None = None
    model_name: str | None = None
    timeout_seconds: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backend is Backend.REMOTE and not (self.endpoint_url and self.model_name):
            raise ValueError("remote backend requires endpoint_url and model_name")


@dataclass(frozen=True)
class ConstraintViolation:
    kind: str  # "FragileBelowHeavier" | "MassInversion"
    above: str
    below: str


@dataclass(frozen=True)
class PhysicalConstraintReport:
    violations: tuple[ConstraintViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _stack_key(obj: ObjectInstance):
    # Bottom-to-top ordering: sturdy (low fragility) and heavy first.
    a = obj.attributes
    return (fragility_rank(a.fragility), -a.mass_grams, obj.id)


def _chain(tree: SceneTree, base_parent: str, ordered_ids: list[str]) -> dict[str, str]:
    parent = {}
    below = base_parent
    for node_id in ordered_ids:
        parent[node_id] = below
        below = node_id
    return parent


def rule_stack_all(tree: SceneTree) -> SceneTree:
    """Single stack above the root: low fragility at the bottom, ties by
    mass descending, remaining ties by id."""
    ordered = sorted(
        (tree.nodes[n] for n in tree.nodes if n != tree.root), key=_stack_key
    )
    parent = _chain(tree, tree.root, [o.id for o in ordered])
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


def rule_unstack_all(tree: SceneTree) -> SceneTree:
    """Every non-root object directly on the root."""
    parent = {n: tree.root for n in tree.nodes if n != tree.root}
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


def rule_group_by_material(tree: SceneTree) -> SceneTree:
    """One stack per material, each internally ordered like rule_stack_all."""
    groups: dict[str, list[ObjectInstance]] = {}
    for n, obj in tree.nodes.items():
        if n != tree.root:
            groups.setdefault(obj.attributes.material, []).append(obj)
    parent: dict[str, str] = {}
    for material in sorted(groups):
        ordered = sorted(groups[material], key=_stack_key)
        parent.update(_chain(tree, tree.root, [o.id for o in ordered]))
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


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
    members = [n for n in tree.preorder() if n == base or _is_descendant(tree, n, base)]
    others = sorted(
        (tree.nodes[n] for n in members if n != target), key=_stack_key
    )
    parent = dict(tree.parent)
    for n in members:
        del parent[n]
    chain_ids = [o.id for o in others] + [target]
    parent.update(_chain(tree, tree.root, chain_ids))
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


def _is_descendant(tree: SceneTree, node: str, ancestor: str) -> bool:
    cur = node
    while cur != tree.root:
        cur = tree.parent[cur]
        if cur == ancestor:
            return True
    return False


def check_physical_constraints(tree: SceneTree) -> PhysicalConstraintReport:
    """Advisory scan of every support path for risky pairings.

    FragileBelowHeavier: a more fragile object beneath a less fragile one.
    MassInversion: a heavier object above a lighter one without the
    fragility justification (the upper object is not strictly more fragile).
    """
    violations: list[ConstraintViolation] = []
    for below in sorted(tree.nodes):
        if below == tree.root:
            continue
        below_attrs = tree.nodes[below].attributes
        for above in sorted(tree.nodes):
            if above == below or not _is_descendant(tree, above, below):
                continue
            above_attrs = tree.nodes[above].attributes
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
    return PhysicalConstraintReport(violations=tuple(violations))


def check_goal(initial: SceneTree, goal: SceneTree) -> None:
    """The goal gate: conservation, same root, and validity."""
    if goal.ids() != initial.ids():
        missing = sorted(initial.ids() - goal.ids())
        extra = sorted(goal.ids() - initial.ids())
        raise InvalidGoal(
            f"object conservation violated (missing: {missing}, extra: {extra})"
        )
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
