"""Output checks that share no code with the package under test.

Every reader here (TREE blocks, plan.txt, DOT, `parse` output) and the plan
replay are written from the documented formats, so a defect in the
package's own serializer, parser or executor cannot make a check pass.
Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import hashlib
import json
import re

_MOVE_RE = re.compile(r"MOVE ([a-z][a-z0-9_]*) ONTO ([a-z][a-z0-9_]*)\Z")
_EDGE_RE = re.compile(r'\s*"([^"]+)" -> "([^"]+)";\Z')
_DOT_NODE_RE = re.compile(r'\s*"([^"]+)" \[label=')
_ATTR_RE = re.compile(
    r"\[material=([a-z]+), mass=([0-9.e+-]+), fragility=([a-z]+), "
    r"transparency=([a-z]+)\]\Z"
)


class CheckError(Exception):
    """An output could not be read in its documented format."""


class Tree:
    """A support hierarchy as read from text: root, parent map, line attributes."""

    def __init__(self, root: str, parent: dict[str, str], attrs: dict[str, str]):
        self.root = root
        self.parent = parent
        self.attrs = attrs

    def ids(self) -> set[str]:
        return set(self.parent) | {self.root}

    def children(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n: [] for n in self.ids()}
        for child, sup in self.parent.items():
            out[sup].append(child)
        return out


def read_tree_block(text: str) -> Tree:
    """Read the first TREE ... END block: two spaces of indent per level."""
    lines = text.splitlines()
    try:
        start = lines.index("TREE")
        end = lines.index("END", start + 1)
    except ValueError:
        raise CheckError("no TREE ... END block") from None
    root = None
    parent: dict[str, str] = {}
    attrs: dict[str, str] = {}
    path: list[str] = []
    for line in lines[start + 1:end]:
        body = line.lstrip(" ")
        indent = len(line) - len(body)
        if not body or indent % 2:
            raise CheckError(f"bad tree line {line!r}")
        level = indent // 2
        node, _, rest = body.partition(" ")
        if node in attrs:
            raise CheckError(f"{node} listed twice")
        attrs[node] = rest
        if level == 0:
            if root is not None:
                raise CheckError(f"second root {node}")
            root = node
        elif level > len(path):
            raise CheckError(f"{node} skips a level")
        else:
            parent[node] = path[level - 1]
        del path[level:]
        path.append(node)
    if root is None:
        raise CheckError("empty TREE block")
    return Tree(root, parent, attrs)


def tree_block(tree: Tree) -> str:
    """Write a TREE block with ids only, which the documented format allows."""
    kids = tree.children()
    lines = ["TREE"]
    stack = [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        lines.append("  " * level + node)
        stack.extend((c, level + 1) for c in sorted(kids[node], reverse=True))
    lines.append("END")
    return "\n".join(lines) + "\n"


def read_attrs(rest: str) -> dict:
    """Attributes of one tree line: material, mass, fragility, transparency."""
    match = _ATTR_RE.fullmatch(rest)
    if not match:
        raise CheckError(f"bad attribute text {rest!r}")
    material, mass, fragility, transparency = match.groups()
    return {"material": material, "mass_grams": float(mass),
            "fragility": fragility, "transparency": transparency}


def read_plan(text: str) -> list[tuple[str, str]]:
    moves = []
    for line in text.splitlines():
        match = _MOVE_RE.match(line)
        if not match:
            raise CheckError(f"bad plan line {line!r}")
        moves.append((match.group(1), match.group(2)))
    return moves


def read_dot(text: str) -> tuple[set[str], dict[str, str]]:
    nodes, parent = set(), {}
    for line in text.splitlines():
        edge = _EDGE_RE.match(line)
        if edge:
            sup, child = edge.groups()
            if child in parent:
                raise CheckError(f"{child} has two DOT parents")
            parent[child] = sup
            continue
        node = _DOT_NODE_RE.match(line)
        if node:
            nodes.add(node.group(1))
    return nodes, parent


def replay(tree: Tree, moves: list[tuple[str, str]]) -> dict[str, str]:
    """Apply moves, allowing only clear objects to be picked; return parents."""
    parent = dict(tree.parent)
    ids = tree.ids()
    load = {n: 0 for n in ids}
    for sup in parent.values():
        load[sup] += 1
    for step, (obj, dest) in enumerate(moves, 1):
        if obj not in parent or dest not in ids or obj == dest:
            raise CheckError(f"move {step}: illegal MOVE {obj} ONTO {dest}")
        if load[obj]:
            raise CheckError(f"move {step}: {obj} is not clear")
        cur = dest
        while cur != tree.root:
            if cur == obj:
                raise CheckError(f"move {step}: {dest} rests on {obj}")
            cur = parent[cur]
        load[parent[obj]] -= 1
        load[dest] += 1
        parent[obj] = dest
    return parent


def _stacks(tree: Tree) -> list[list[str]]:
    """Each object resting on the root with everything above it, as a chain,
    or None for a stack that branches."""
    kids = tree.children()
    stacks = []
    for base in sorted(kids[tree.root]):
        chain = [base]
        while len(kids[chain[-1]]) == 1:
            chain.append(kids[chain[-1]][0])
        stacks.append(chain if not kids[chain[-1]] else None)
    return stacks


def _subtree(tree: Tree, base: str) -> set[str]:
    kids = tree.children()
    out, todo = set(), [base]
    while todo:
        node = todo.pop()
        out.add(node)
        todo.extend(kids[node])
    return out


def check_goal_shape(initial: Tree, goal: Tree, task: dict, materials: dict) -> list[str]:
    """The goal has the shape its rule task defines."""
    kind = task["kind"]
    stacks = _stacks(goal)
    if kind == "unstack":
        if any(p != goal.root for p in goal.parent.values()):
            return ["unstack: an object is not on the surface"]
        return []
    if kind == "stack_object":
        target = task["target"]
        base = target
        while initial.parent[base] != initial.root:
            base = initial.parent[base]
        members = _subtree(initial, base)
        chain = next((c for c in stacks if c and c[-1] == target), None)
        if chain is None or set(chain) != members:
            return [f"stack_object: {target} is not on top of its own stack"]
        moved = [n for n in goal.parent
                 if n not in members and goal.parent[n] != initial.parent[n]]
        return [f"stack_object: other stacks changed: {moved[:3]}"] if moved else []
    if None in stacks:
        return [f"{kind}: a stack branches"]
    if kind == "stack_all":
        return [] if len(stacks) <= 1 else [f"stack_all: {len(stacks)} stacks"]
    if kind == "group_by_material":
        wanted = {materials[n] for n in goal.parent}
        seen = [{materials[n] for n in chain} for chain in stacks]
        if any(len(s) != 1 for s in seen) or len(seen) != len(wanted):
            return ["group_by_material: stacks do not match materials"]
        return []
    return [f"unknown task kind {kind}"]


def check_pipeline(files: dict[str, str], truth: Tree, task: dict,
                   materials: dict, expected_goal: Tree | None = None) -> list[str]:
    """Check one scene's `pipeline` outputs against the input and the task.

    `files` maps output names (initial.tree.txt, goal.tree.txt, plan.txt,
    initial.dot, goal.dot, result.json) to their text.
    """
    try:
        initial = read_tree_block(files["initial.tree.txt"])
        goal = read_tree_block(files["goal.tree.txt"])
        moves = read_plan(files["plan.txt"])
        result = json.loads(files["result.json"])
        problems = []
        if initial.root != truth.root or initial.parent != truth.parent:
            problems.append("initial tree differs from the input scene")
        if goal.root != truth.root or goal.ids() != truth.ids():
            problems.append("goal does not hold each input object exactly once")
            return problems
        if len(moves) > 2 * len(truth.parent):
            problems.append(f"plan has {len(moves)} moves for {len(truth.parent)} objects")
        if replay(initial, moves) != goal.parent:
            problems.append("replaying plan.txt does not reach the goal")
        if expected_goal is not None:
            if goal.parent != expected_goal.parent:
                problems.append("goal differs from the backend's reply")
        else:
            problems.extend(check_goal_shape(initial, goal, task, materials))
        for name, tree in (("initial.dot", initial), ("goal.dot", goal)):
            nodes, parent = read_dot(files[name])
            if nodes != tree.ids() or parent != tree.parent:
                problems.append(f"{name} differs from its tree")
        if result.get("verified") is not True:
            problems.append("result.json: verified is not true")
        if result.get("plan_length") != len(moves):
            problems.append("result.json: plan_length differs from plan.txt")
        return problems
    except (CheckError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]


def check_parse(stdout: str, expected: list[tuple[str, str, str]]) -> list[str]:
    """`parse` prints the generator's ground-truth triplets, in order."""
    try:
        got = [(d["subject"], d["predicate"], d["support"])
               for d in map(json.loads, stdout.splitlines())]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable parse output: {exc}"]
    if got != expected:
        wrong = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                     min(len(got), len(expected)))
        return [f"parse output differs from ground truth at triplet {wrong}"]
    return []


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        data = chunk.encode() if isinstance(chunk, str) else chunk
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


# --- self-test ---------------------------------------------------------------

_FIXTURE_INITIAL = """TREE
table_1 [material=wood, mass=12000, fragility=low, transparency=opaque]
  box_1 [material=wood, mass=900, fragility=low, transparency=opaque]
    cup_1 [material=glass, mass=200, fragility=high, transparency=transparent]
  plate_1 [material=ceramic, mass=400, fragility=medium, transparency=opaque]
END
"""
_FIXTURE_GOAL = """TREE
table_1 [material=wood, mass=12000, fragility=low, transparency=opaque]
  box_1 [material=wood, mass=900, fragility=low, transparency=opaque]
    plate_1 [material=ceramic, mass=400, fragility=medium, transparency=opaque]
      cup_1 [material=glass, mass=200, fragility=high, transparency=transparent]
END
"""
_FIXTURE_PLAN = "MOVE cup_1 ONTO table_1\nMOVE plate_1 ONTO box_1\nMOVE cup_1 ONTO plate_1\n"


def _fixture_dot(tree: Tree) -> str:
    nodes = "".join(f'  "{n}" [label="{n}"];\n' for n in sorted(tree.ids()))
    edges = "".join(f'  "{p}" -> "{c}";\n' for c, p in sorted(tree.parent.items()))
    return "digraph scene {\n  rankdir=BT;\n" + nodes + edges + "}\n"


def self_test() -> list[str]:
    """Each check must pass a correct fixture and catch a broken one."""
    truth = read_tree_block(_FIXTURE_INITIAL)
    goal = read_tree_block(_FIXTURE_GOAL)
    materials = {n: read_attrs(a)["material"] for n, a in truth.attrs.items() if a}
    task = {"kind": "stack_all"}
    good = {
        "initial.tree.txt": _FIXTURE_INITIAL,
        "goal.tree.txt": _FIXTURE_GOAL,
        "plan.txt": _FIXTURE_PLAN,
        "initial.dot": _fixture_dot(truth),
        "goal.dot": _fixture_dot(goal),
        "result.json": json.dumps({"verified": True, "plan_length": 3}),
    }
    lines = _FIXTURE_PLAN.splitlines(keepends=True)
    swapped = dict(good, **{"plan.txt": lines[0] + lines[2] + lines[1]})
    missing = dict(good, **{"goal.tree.txt": _FIXTURE_GOAL.replace(
        "      cup_1 [material=glass, mass=200, fragility=high, transparency=transparent]\n", "")})
    triplets = [("cup_1", "on", "box_1"), ("plate_1", "on_top_of", "table_1")]
    printed = "".join(json.dumps({"subject": s, "predicate": p, "support": o}) + "\n"
                      for s, p, o in triplets)
    wrong = printed.replace('"support": "box_1"', '"support": "plate_1"')
    failures = []
    if check_pipeline(good, truth, task, materials):
        failures.append("a correct pipeline output was rejected")
    if not check_pipeline(swapped, truth, task, materials):
        failures.append("a swapped MOVE line was not caught")
    if not check_pipeline(missing, truth, task, materials):
        failures.append("a goal missing an object was not caught")
    if check_parse(printed, triplets):
        failures.append("a correct parse output was rejected")
    if not check_parse(wrong, triplets):
        failures.append("a wrong triplet was not caught")
    return failures
