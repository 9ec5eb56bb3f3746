"""Construction and validation of support hierarchies from triplets.

Rules: the support surface (lowest object) is the root, every edge points
from a support to the object resting on it, each node has a single parent,
and the support graph must be acyclic. Objects mentioned in no triplet are
attached directly to the root.

Both cycle checks rest on one memoised walk over the parent map that visits
each node once: O(n), plus a sort for `validate_tree`'s report order.

`to_dot` writes the DOT header and node block from a scene's
`treetext.TextTable`, the same for every tree over its objects, and adds
only the tree's sorted edge lines.
"""
from __future__ import annotations

from collections import Counter
from enum import Enum

from .model import ObjectInstance, SceneTree, SpatialTriplet, Value
from .treetext import TextTable, text_table

SURFACE_LABELS = {"table", "desk", "shelf"}


class ViolationKind(Enum):
    CYCLE = "Cycle"
    MULTIPLE_PARENTS = "MultipleParents"
    UNKNOWN_ID = "UnknownId"
    NO_ROOT = "NoRoot"


class Violation(Value):
    __slots__ = ("kind", "detail")

    def __init__(self, kind: ViolationKind, detail: str):
        set_kind, set_detail = self._setters
        set_kind(self, kind)
        set_detail(self, detail)


class BuildReport(Value):
    __slots__ = ("tree", "violations")

    def __init__(self, tree: SceneTree | None, violations: tuple[Violation, ...] = ()):
        set_tree, set_violations = self._setters
        set_tree(self, tree)
        set_violations(self, violations)

    @property
    def success(self) -> bool:
        return not self.violations


def _walk_chains(
    parent: dict[str, str],
) -> tuple[dict[str, str | None], dict[str, list[str]]]:
    """Follow every parent chain once, memoising where each one ends.

    Returns `end`, mapping each key of `parent` to the parentless node its
    chain reaches, or to None when the chain runs into a cycle; and each
    cycle as the path [x, ..., x] from its least node x, keyed by x. Nodes
    have one parent each, so cycles are disjoint and each node is walked
    once: O(n).
    """
    end: dict[str, str | None] = {}
    cycles: dict[str, list[str]] = {}
    for start in parent:
        if start in end:
            continue
        path: dict[str, None] = {}  # the unresolved chain so far, in walk order
        cur = start
        while cur in parent and cur not in end and cur not in path:
            path[cur] = None
            cur = parent[cur]
        if cur in end:
            tail = end[cur]
        elif cur in path:
            tail = None
            loop = list(path)
            loop = loop[loop.index(cur):]
            i = loop.index(min(loop))
            cycles[loop[i]] = loop[i:] + loop[:i + 1]
        else:
            tail = cur
        for node in path:
            end[node] = tail
    return end, cycles


def _infer_root(
    triplets: list[SpatialTriplet], objects: list[ObjectInstance]
) -> tuple[str | None, Violation | None]:
    subjects = {t.subject for t in triplets}
    candidates = sorted(o.id for o in objects if o.id not in subjects)
    if not candidates:
        return None, Violation(ViolationKind.NO_ROOT, "every object rests on another")
    by_id = {o.id: o for o in objects}
    surfaces = [c for c in candidates if by_id[c].label.lower() in SURFACE_LABELS]
    if len(surfaces) == 1:
        return surfaces[0], None
    if len(surfaces) > 1:
        return None, Violation(
            ViolationKind.NO_ROOT, f"multiple surface candidates: {', '.join(surfaces)}"
        )
    if len(candidates) == 1:
        return candidates[0], None
    return None, Violation(
        ViolationKind.NO_ROOT, f"ambiguous root candidates: {', '.join(candidates)}"
    )


def build_tree(
    triplets: list[SpatialTriplet],
    objects: list[ObjectInstance],
) -> BuildReport:
    """Assemble a SceneTree from triplets, reporting every rule violation."""
    violations: list[Violation] = []
    by_id = {o.id: o for o in objects}
    if len(by_id) != len(objects):
        dupes = sorted(i for i, n in Counter(o.id for o in objects).items() if n > 1)
        violations.append(
            Violation(ViolationKind.UNKNOWN_ID, f"duplicate object ids: {', '.join(dupes)}")
        )

    parent: dict[str, str] = {}
    usable: list[SpatialTriplet] = []
    for t in triplets:
        missing = [x for x in (t.subject, t.support) if x not in by_id]
        if missing:
            violations.append(
                Violation(ViolationKind.UNKNOWN_ID, f"undeclared ids: {', '.join(missing)}")
            )
            continue
        if t.subject in parent and parent[t.subject] != t.support:
            violations.append(
                Violation(
                    ViolationKind.MULTIPLE_PARENTS,
                    f"{t.subject} placed on both {parent[t.subject]} and {t.support}",
                )
            )
            continue
        parent[t.subject] = t.support
        usable.append(t)

    _, cycles = _walk_chains(parent)
    if cycles:
        shortest = min(cycles.values(), key=lambda c: (len(c), c[0]))
        violations.append(
            Violation(ViolationKind.CYCLE, "support cycle: " + " -> ".join(shortest))
        )

    root, root_violation = _infer_root(usable, objects)
    if root_violation:
        violations.append(root_violation)

    if violations:
        return BuildReport(tree=None, violations=tuple(violations))

    # Every edge now joins declared ids, each object has one parent, no
    # cycle exists and the root is no subject, so once every other object
    # has a parent the tree is valid: validate_tree would find nothing.
    assert root is not None
    for obj_id in by_id:
        if obj_id != root and obj_id not in parent:
            parent[obj_id] = root
    return BuildReport(SceneTree(root, dict(by_id), parent))


def validate_tree(tree: SceneTree) -> list[Violation]:
    """Check every SceneTree invariant; empty list means the tree is valid."""
    violations: list[Violation] = []
    if tree.root not in tree.nodes:
        violations.append(
            Violation(ViolationKind.UNKNOWN_ID, f"root {tree.root!r} not among nodes")
        )
        return violations
    for child, parent in tree.parent.items():
        if child not in tree.nodes:
            violations.append(
                Violation(ViolationKind.UNKNOWN_ID, f"parent map lists unknown {child!r}")
            )
        if parent not in tree.nodes:
            violations.append(
                Violation(ViolationKind.UNKNOWN_ID, f"unknown support {parent!r}")
            )
    if violations:
        return violations

    for node in tree.nodes:
        if node != tree.root and node not in tree.parent:
            violations.append(
                Violation(ViolationKind.NO_ROOT, f"{node} has no parent and is not root")
            )

    # A chain that runs into a cycle is reported once, as that cycle at its
    # least node; a chain that ends short of the root is a connectivity breach.
    end, cycles = _walk_chains(tree.parent)
    for node in sorted(tree.nodes):
        if node in cycles:
            violations.append(
                Violation(ViolationKind.CYCLE, "support cycle: " + " -> ".join(cycles[node]))
            )
        elif end.get(node, node) not in (None, tree.root):
            violations.append(
                Violation(ViolationKind.NO_ROOT, f"{node} does not reach root {tree.root}")
            )
    if tree.root in tree.parent and not any(
        v.kind is ViolationKind.CYCLE for v in violations
    ):
        violations.append(
            Violation(
                ViolationKind.MULTIPLE_PARENTS,
                f"root {tree.root} also appears as a child",
            )
        )
    return violations


def to_dot(tree: SceneTree, table: TextTable | None = None) -> str:
    """Deterministic DOT rendering (parent -> child) for figure export.

    The header and node block come from `table`, which must hold every
    object of `tree`; by default it is built from `tree.nodes`."""
    if table is None:
        table = text_table(tree.nodes)
    parent = tree.parent
    edges = [f'  "{parent[child]}" -> "{child}";\n' for child in sorted(parent)]
    return table.dot_nodes + "".join(edges) + "}\n"
