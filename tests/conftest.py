import random
from collections import deque

import pytest
from hypothesis import strategies as st

from scene_forest.errors import UnknownId
from scene_forest.model import (
    AttributeSet,
    FRAGILITY_LEVELS,
    MATERIALS,
    MoveAction,
    ObjectInstance,
    Plan,
    SceneTree,
    TRANSPARENCY_LEVELS,
)
from scene_forest.planner import _check_pair

TABLE_ATTRS = AttributeSet(
    fragility="low", mass_grams=12000, material="wood", transparency="opaque"
)


def make_object(obj_id, label=None, fragility="low", mass=100.0, material="wood",
                transparency="opaque"):
    if label is None:
        label = obj_id.rsplit("_", 1)[0]
    return ObjectInstance(
        id=obj_id,
        label=label,
        attributes=AttributeSet(
            fragility=fragility,
            mass_grams=mass,
            material=material,
            transparency=transparency,
        ),
    )


def make_table():
    return ObjectInstance(id="table_1", label="table", attributes=TABLE_ATTRS)


def chain_tree(*ids):
    """table_1 <- ids[0] <- ids[1] <- ... as a single stack."""
    objects = [make_table()] + [make_object(i) for i in ids]
    parent = {}
    below = "table_1"
    for i in ids:
        parent[i] = below
        below = i
    return SceneTree(root="table_1", nodes={o.id: o for o in objects}, parent=parent)


def random_tree(rng: random.Random, n: int, distinct_labels: bool = True) -> SceneTree:
    """Random valid tree with n movable objects on a table root."""
    labels = ["book", "cup", "plate", "bowl", "box", "pen", "jar", "mug", "tray", "can"]
    objects = [make_table()]
    for i in range(n):
        if distinct_labels:
            label = labels[i % len(labels)]
            ordinal = i // len(labels) + 1
        else:
            label = rng.choice(labels[:3])
            ordinal = sum(1 for o in objects if o.label == label) + 1
        objects.append(
            ObjectInstance(
                id=f"{label}_{ordinal}",
                label=label,
                attributes=AttributeSet(
                    fragility=rng.choice(FRAGILITY_LEVELS),
                    mass_grams=round(rng.uniform(10, 3000), 1),
                    material=rng.choice(MATERIALS),
                    transparency=rng.choice(TRANSPARENCY_LEVELS),
                ),
            )
        )
    parent = {}
    placed = ["table_1"]
    for obj in objects[1:]:
        parent[obj.id] = rng.choice(placed)
        placed.append(obj.id)
    return SceneTree(root="table_1", nodes={o.id: o for o in objects}, parent=parent)


def random_parent_map(rng: random.Random, tree: SceneTree) -> SceneTree:
    """Another random arrangement over the same objects (for goal trees)."""
    ids = sorted(n for n in tree.nodes if n != tree.root)
    rng.shuffle(ids)
    parent = {}
    placed = [tree.root]
    for obj_id in ids:
        parent[obj_id] = rng.choice(placed)
        placed.append(obj_id)
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


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


class SearchBudgetExceeded(Exception):
    pass


def _state_key(parent: dict[str, str]) -> tuple:
    return tuple(sorted(parent.items()))


def optimal_plan_bfs(
    initial: SceneTree, goal: SceneTree, node_limit: int = 200_000
) -> Plan:
    """Shortest plan via breadth-first search over reachable arrangements.

    Intended as a test oracle for small scenes (≤ 6 movable objects).
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


@pytest.fixture
def rng():
    return random.Random(20240824)


@st.composite
def arrangements(draw, tree: SceneTree) -> SceneTree:
    """Another arrangement of `tree`'s objects: towers of one drawn height
    (1 to 8) over a drawn order, or a random forest."""
    order = draw(st.permutations(sorted(n for n in tree.nodes if n != tree.root)))
    parent = {}
    if draw(st.booleans()):
        height = draw(st.integers(1, 8))
        for i, obj_id in enumerate(order):
            parent[obj_id] = tree.root if i % height == 0 else order[i - 1]
    else:
        placed = [tree.root]
        for obj_id in order:
            parent[obj_id] = placed[draw(st.integers(0, len(placed) - 1))]
            placed.append(obj_id)
    return SceneTree(root=tree.root, nodes=tree.nodes, parent=parent)


@st.composite
def scene_trees(
    draw, max_objects: int = 30, masses=st.sampled_from([50, 100, 100.5, 2000])
) -> SceneTree:
    """A tree of up to `max_objects` objects on `table_1`, with ids whose
    string and numeric orders differ and attributes drawn from few values,
    so that ties occur. Masses are drawn from `masses`."""
    n = draw(st.integers(0, max_objects))
    objects = [make_table()] + [
        make_object(
            f"box_{i + 1}",
            fragility=draw(st.sampled_from(FRAGILITY_LEVELS)),
            mass=draw(masses),
            material=draw(st.sampled_from(MATERIALS[:3])),
        )
        for i in range(n)
    ]
    nodes = {o.id: o for o in objects}
    return draw(arrangements(SceneTree(root="table_1", nodes=nodes, parent={})))


# Reference renderers: the tree-text and DOT renderers as they were before a
# scene's object texts were shared between its trees, kept verbatim.

def reference_format_mass(mass_grams: float) -> str:
    """Decimal integer when integral, else shortest round-trip decimal."""
    if float(mass_grams) == int(mass_grams):
        return str(int(mass_grams))
    return repr(float(mass_grams))


def reference_serialize_tree(tree: SceneTree) -> str:
    """Render the tree block, deterministic and byte-stable."""
    lines = ["TREE"]
    depths = {tree.root: 0}
    for node_id in tree.preorder():
        if node_id != tree.root:
            depths[node_id] = depths[tree.parent[node_id]] + 1
        a = tree.nodes[node_id].attributes
        lines.append(
            "  " * depths[node_id]
            + f"{node_id} [material={a.material}, mass={reference_format_mass(a.mass_grams)}, "
            + f"fragility={a.fragility}, transparency={a.transparency}]"
        )
    lines.append("END")
    return "\n".join(lines) + "\n"


def reference_to_dot(tree: SceneTree) -> str:
    """Deterministic DOT rendering (parent -> child) for figure export."""
    lines = ["digraph scene {", "  rankdir=BT;"]
    for node_id in sorted(tree.nodes):
        attrs = tree.nodes[node_id].attributes
        label = f"{node_id}\\n[{attrs.material}, {reference_format_mass(attrs.mass_grams)}]"
        lines.append(f'  "{node_id}" [label="{label}"];')
    for child in sorted(tree.parent):
        lines.append(f'  "{tree.parent[child]}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
