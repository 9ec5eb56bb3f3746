"""Bit-exact text serialization of scene trees (`TREE` ... `END` blocks).

One line per node in pre-order, children in lexicographic id order,
indentation of two spaces per depth level. Node lines carry the attribute
summary; parsing only needs the ids and indentation, attributes are
recovered from the object registry.

A scene's objects are formatted once, into a `TextTable`: each object's
tree line without its indentation, and the DOT header and node block that
`treebuild.to_dot` shares. Trees over the same objects (a scene's initial
and goal trees) render from one table; each renderer builds one from the
tree's nodes when it is given none.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DuplicateObject,
    MalformedIndentation,
    MissingObject,
    NoTreeBlock,
    UnknownId,
)
from .model import ObjectInstance, SceneTree


def format_mass(mass_grams: float) -> str:
    """Decimal integer when integral, else shortest round-trip decimal."""
    if float(mass_grams) == int(mass_grams):
        return str(int(mass_grams))
    return repr(float(mass_grams))


class TextTable(NamedTuple):
    """The per-object texts of one scene's renderings."""

    lines: dict[str, str]  # id -> tree line without indentation
    dot_nodes: str  # DOT header and node lines in sorted id order


def text_table(nodes: dict[str, ObjectInstance]) -> TextTable:
    """Format each object once, for every tree and DOT file over `nodes`."""
    lines = {}
    dot = ["digraph scene {\n  rankdir=BT;\n"]
    for node_id in sorted(nodes):
        a = nodes[node_id].attributes
        mass = format_mass(a.mass_grams)
        lines[node_id] = (
            f"{node_id} [material={a.material}, mass={mass}, "
            f"fragility={a.fragility}, transparency={a.transparency}]"
        )
        dot.append(f'  "{node_id}" [label="{node_id}\\n[{a.material}, {mass}]"];\n')
    return TextTable(lines, "".join(dot))


def serialize_tree(tree: SceneTree, table: TextTable | None = None) -> str:
    """Render the tree block, deterministic and byte-stable. `table` must
    hold every object of `tree`; by default it is built from `tree.nodes`."""
    if table is None:
        table = text_table(tree.nodes)
    node_lines = table.lines
    children = tree._children  # the child index itself: `children_of` copies each list
    out = ["TREE"]
    stack = [(tree.root, "")]
    while stack:
        node_id, indent = stack.pop()
        out.append(indent + node_lines[node_id])
        kids = children.get(node_id)
        if kids:
            indent += "  "
            stack.extend([(kid, indent) for kid in reversed(kids)])
    out.append("END\n")
    return "\n".join(out)


def parse_tree_block(text: str, registry: list[ObjectInstance]) -> SceneTree:
    """Parse the first TREE...END block in `text` into a validated tree.

    Enforces conservation against the registry: every registry id exactly
    once, no extras.
    """
    lines = text.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.strip() == "TREE")
    except StopIteration:
        raise NoTreeBlock("no TREE line found") from None
    try:
        end = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "END")
    except StopIteration:
        raise NoTreeBlock("TREE block not terminated by END") from None

    by_id = {o.id: o for o in registry}
    parent: dict[str, str] = {}
    root: str | None = None
    stack: list[str] = []  # stack[d] = most recent node at depth d
    seen: set[str] = set()
    for line in lines[start + 1:end]:
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent % 2:
            raise MalformedIndentation(f"odd indentation on line {line!r}")
        node_depth = indent // 2
        node_id = line.strip().split()[0]
        if node_id in seen:
            raise DuplicateObject(f"object {node_id} listed twice")
        seen.add(node_id)
        if node_id not in by_id:
            raise UnknownId(f"object {node_id} not in registry")
        if node_depth == 0:
            if root is not None:
                raise MalformedIndentation(f"second root-level node {node_id}")
            root = node_id
            stack = [node_id]
            continue
        if root is None or node_depth > len(stack):
            raise MalformedIndentation(
                f"{node_id} at depth {node_depth} has no parent at depth {node_depth - 1}"
            )
        parent[node_id] = stack[node_depth - 1]
        del stack[node_depth:]
        stack.append(node_id)

    if root is None:
        raise NoTreeBlock("TREE block contains no nodes")
    missing = sorted(set(by_id) - seen)
    if missing:
        raise MissingObject(f"objects omitted from tree: {', '.join(missing)}")
    return SceneTree(root, dict(by_id), parent)
