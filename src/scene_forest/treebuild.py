"""Construction and validation of support hierarchies from triplets.

Rules: the support surface (lowest object) is the root, every edge points
from a support to the object resting on it, each node has a single parent,
and the support graph must be acyclic. Objects mentioned in no triplet are
attached directly to the root.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import UnknownId
from .model import ObjectInstance, SceneTree, SpatialTriplet

SURFACE_LABELS = {"table", "desk", "shelf"}


class ViolationKind(Enum):
    CYCLE = "Cycle"
    MULTIPLE_PARENTS = "MultipleParents"
    UNKNOWN_ID = "UnknownId"
    SELF_SUPPORT = "SelfSupport"
    NO_ROOT = "NoRoot"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str


@dataclass(frozen=True)
class BuildReport:
    tree: SceneTree | None
    violations: tuple[Violation, ...] = ()

    @property
    def success(self) -> bool:
        return not self.violations


def detect_cycle(triplets: list[SpatialTriplet]) -> list[str] | None:
    """Shortest support cycle as an id path [x, ..., x], or None if acyclic.

    Deterministic: among shortest cycles the lexicographically least start
    node wins.
    """
    edges: dict[str, set[str]] = {}
    for t in triplets:
        edges.setdefault(t.subject, set()).add(t.support)
    best: tuple[int, str, list[str]] | None = None
    for start in sorted(edges):
        # BFS from start back to start over subject -> support edges.
        prev: dict[str, str] = {}
        queue = deque([start])
        seen = {start}
        found = None
        while queue:
            node = queue.popleft()
            for nxt in sorted(edges.get(node, ())):
                if nxt == start:
                    path = [start]
                    cur = node
                    while cur != start:
                        path.append(cur)
                        cur = prev[cur]
                    path.append(start)
                    path[1:-1] = reversed(path[1:-1])
                    found = path
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = node
                    queue.append(nxt)
            if found:
                break
        if found:
            key = (len(found), found[0], found)
            if best is None or key < best:
                best = key
    return best[2] if best else None


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
        dupes = sorted({o.id for o in objects if [x.id for x in objects].count(o.id) > 1})
        violations.append(
            Violation(ViolationKind.UNKNOWN_ID, f"duplicate object ids: {', '.join(dupes)}")
        )

    parent: dict[str, str] = {}
    usable: list[SpatialTriplet] = []
    for t in triplets:
        if t.subject == t.support:
            violations.append(
                Violation(ViolationKind.SELF_SUPPORT, f"{t.subject} supports itself")
            )
            continue
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

    cycle = detect_cycle(usable)
    if cycle:
        violations.append(
            Violation(ViolationKind.CYCLE, "support cycle: " + " -> ".join(cycle))
        )

    root, root_violation = _infer_root(usable, objects)
    if root_violation:
        violations.append(root_violation)

    if violations:
        return BuildReport(tree=None, violations=tuple(violations))

    assert root is not None
    for obj_id in by_id:
        if obj_id != root and obj_id not in parent:
            parent[obj_id] = root
    tree = SceneTree(root=root, nodes=dict(by_id), parent=parent)
    leftovers = validate_tree(tree)
    if leftovers:
        return BuildReport(tree=None, violations=tuple(leftovers))
    return BuildReport(tree=tree)


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

    # Walk parent chains; a chain that revisits a node is a cycle, a chain
    # that never reaches the root is a connectivity breach.
    cycle_nodes: set[str] = set()
    for node in sorted(tree.nodes):
        seen: list[str] = []
        cur = node
        while cur in tree.parent:
            if cur in seen:
                if node == cur and node not in cycle_nodes:
                    cycle_nodes.update(seen)
                    violations.append(
                        Violation(
                            ViolationKind.CYCLE,
                            "support cycle: " + " -> ".join(seen + [cur]),
                        )
                    )
                break
            seen.append(cur)
            cur = tree.parent[cur]
        else:
            if cur != tree.root:
                violations.append(
                    Violation(
                        ViolationKind.NO_ROOT,
                        f"{node} does not reach root {tree.root}",
                    )
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


def depth(tree: SceneTree, node_id: str) -> int:
    """Number of support edges between the root and `node_id`."""
    if node_id not in tree.nodes:
        raise UnknownId(f"{node_id!r} not in tree")
    count = 0
    cur = node_id
    while cur != tree.root:
        cur = tree.parent[cur]
        count += 1
    return count


def clear_objects(tree: SceneTree) -> set[str]:
    """Non-root objects with nothing on top of them (the pickable set)."""
    supports = set(tree.parent.values())
    return {n for n in tree.nodes if n != tree.root and n not in supports}


def to_dot(tree: SceneTree) -> str:
    """Deterministic DOT rendering (parent -> child) for figure export."""
    from .treetext import format_mass  # local import to avoid a cycle

    lines = ["digraph scene {", "  rankdir=BT;"]
    for node_id in sorted(tree.nodes):
        attrs = tree.nodes[node_id].attributes
        label = f"{node_id}\\n[{attrs.material}, {format_mass(attrs.mass_grams)}]"
        lines.append(f'  "{node_id}" [label="{label}"];')
    for child in sorted(tree.parent):
        lines.append(f'  "{tree.parent[child]}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
