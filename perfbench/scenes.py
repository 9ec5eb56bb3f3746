"""Seeded scene records for the workloads, written without the package.

Each generator returns a scene record (the JSON schema from the README)
together with the ground truth the checks compare against: the support
tree, the caption triplets and, for free-text tasks, the goal a backend
should propose.
"""
from __future__ import annotations

import random

from checks import Tree

FRAGILITY = ("low", "medium", "high")
TRANSPARENCY = ("opaque", "translucent", "transparent")
MATERIALS = ("wood", "metal", "glass", "plastic", "ceramic", "paper")
LABELS = (
    "cup", "plate", "book", "box", "bowl", "bottle", "pen", "laptop", "mug",
    "vase", "lamp", "phone", "jar", "candle", "clock", "tray", "basket",
    "kettle", "spoon", "fork", "knife", "radio", "camera", "wallet",
    "notebook", "stapler", "sponge", "teapot", "pitcher", "tin",
)
ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth",
            "seventh", "eighth", "ninth", "tenth")
ROOT = {"id": "table_1", "label": "table", "fragility": "low",
        "mass_grams": 12000, "material": "wood", "transparency": "opaque"}


class Scene:
    """One input record plus its ground truth."""

    def __init__(self, record: dict, truth: Tree, task: dict, prompt: str,
                 triplets=None, goal: Tree | None = None):
        self.record = record
        self.truth = truth
        self.task = task
        self.prompt = prompt
        self.triplets = triplets
        self.goal = goal
        self.materials = {o["id"]: o["material"] for o in record["objects"]}


def _objects(rng: random.Random, labels: list[str]) -> list[dict]:
    seen: dict[str, int] = {}
    objects = [dict(ROOT)]
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        objects.append({
            "id": f"{label}_{seen[label]}",
            "label": label,
            "fragility": rng.choice(FRAGILITY),
            "mass_grams": round(rng.uniform(5.0, 2500.0), 1),
            "material": rng.choice(MATERIALS),
            "transparency": rng.choice(TRANSPARENCY),
        })
    return objects


def _forest(rng: random.Random, ids: list[str], max_height: int,
            tower_bias: float) -> dict[str, str]:
    """Random support forest under the root; `tower_bias` is the chance an
    object lands on the previous one, which grows tall stacks."""
    height = {ROOT["id"]: 0}
    open_supports = [ROOT["id"]]
    parent = {}
    prev = ROOT["id"]
    for node in ids:
        if height[prev] < max_height and rng.random() < tower_bias:
            support = prev
        else:
            support = open_supports[rng.randrange(len(open_supports))]
        parent[node] = support
        height[node] = height[support] + 1
        if height[node] < max_height:
            open_supports.append(node)
        prev = node
    return parent


def _record(scene_id: str, objects: list[dict], parent: dict[str, str],
            captions=(), cached=True) -> dict:
    record = {"scene_id": scene_id, "objects": objects, "captions": list(captions)}
    if cached:
        record["triplets"] = [
            {"subject": c, "predicate": "on", "support": p} for c, p in parent.items()
        ]
    return record


TOWER_HEIGHTS = (8, 1, 5, 2, 7, 3, 6, 4)


def _towers(ids: list[str]) -> dict[str, str]:
    """Towers whose heights cycle through TOWER_HEIGHTS; in a tower of four
    or more, the top object rests on the second one instead, so it branches.
    The shape depends only on the object count, which keeps the work of
    equal-sized scenes alike across seeds."""
    parent, i, t = {}, 0, 0
    while i < len(ids):
        tower = ids[i:i + TOWER_HEIGHTS[t % len(TOWER_HEIGHTS)]]
        below = ROOT["id"]
        for node in tower:
            parent[node], below = below, node
        if len(tower) >= 4:
            parent[tower[-1]] = tower[1]
        i, t = i + len(tower), t + 1
    return parent


def large_scene(rng: random.Random, scene_id: str, size: int, task_kind: str) -> Scene:
    """Many objects with repeated labels, in towers up to 8 high."""
    objects = _objects(rng, [rng.choice(LABELS[:8]) for _ in range(size)])
    ids = [o["id"] for o in objects[1:]]
    rng.shuffle(ids)
    parent = _towers(ids)
    truth = Tree(ROOT["id"], parent, {})
    task = {"kind": task_kind}
    prompt = {"stack_all": "stack all", "unstack": "unstack",
              "group_by_material": "group by material"}.get(task_kind)
    if task_kind == "stack_object":
        # The middle of the first (tallest) tower: objects below and above it.
        target = ids[3]
        task["target"] = target
        prompt = f"stack the {target}"
    return Scene(_record(scene_id, objects, parent), truth, task, prompt)


def _reference(obj: dict, counts: dict[str, int]) -> str:
    label, ordinal = obj["label"], int(obj["id"].rsplit("_", 1)[1])
    if counts[label] == 1:
        return f"the {label}"
    if ordinal <= len(ORDINALS):
        return f"the {ORDINALS[ordinal - 1]} {label}"
    return f"the {obj['id']}"


def caption_scene(rng: random.Random, scene_id: str, size: int) -> Scene:
    """Caption-only record: unique labels, ordinals, ids past "tenth" and
    plural "X and Y are on Z" clauses; triplets must come from the parser."""
    pool = list(LABELS)
    rng.shuffle(pool)
    unique = pool[:max(1, min(8, size // 4))]
    repeated = pool[len(unique):len(unique) + 3]
    labels = unique + [rng.choice(repeated) for _ in range(size - len(unique))]
    rng.shuffle(labels)
    objects = _objects(rng, labels)
    by_id = {o["id"]: o for o in objects}
    counts: dict[str, int] = {}
    for o in objects:
        counts[o["label"]] = counts.get(o["label"], 0) + 1
    parent = _forest(rng, [o["id"] for o in objects[1:]], max_height=6, tower_bias=0.3)
    groups: dict[str, list[str]] = {}
    for child, support in parent.items():
        groups.setdefault(support, []).append(child)
    sentences, triplets = [], []
    for support, children in groups.items():
        obj_ref = _reference(by_id[support], counts)
        while children:
            take = children[:2] if len(children) > 1 and rng.random() < 0.5 else children[:1]
            children = children[len(take):]
            on_top = rng.random() < 0.5
            predicate = "on_top_of" if on_top else "on"
            relation = "on top of" if on_top else "on"
            refs = [_reference(by_id[c], counts) for c in take]
            verb = "are" if len(take) == 2 else "is"
            sentence = " and ".join(refs) + f" {verb} {relation} {obj_ref}."
            sentences.append(sentence[0].upper() + sentence[1:])
            triplets.extend((c, predicate, support) for c in take)
    captions = [" ".join(sentences[i:i + 12]) for i in range(0, len(sentences), 12)]
    record = _record(scene_id, objects, parent, captions, cached=False)
    return Scene(record, Tree(ROOT["id"], parent, {}), {"kind": "parse"}, "",
                 triplets=triplets)


# --- free-text tasks for the remote backend ---------------------------------

def _chain(root: str, ids: list[str]) -> dict[str, str]:
    parent, below = {}, root
    for node in ids:
        parent[node], below = below, node
    return parent


def _lightest_first(root: str, attrs: dict[str, dict]) -> dict[str, str]:
    return _chain(root, sorted(attrs, key=lambda n: (attrs[n]["mass_grams"], n)))


def _by_transparency(root: str, attrs: dict[str, dict]) -> dict[str, str]:
    parent = {}
    for level in TRANSPARENCY:
        parent.update(_chain(root, sorted(n for n in attrs
                                          if attrs[n]["transparency"] == level)))
    return parent


def _towers_of_three(root: str, attrs: dict[str, dict]) -> dict[str, str]:
    ids, parent = sorted(attrs), {}
    for i in range(0, len(ids), 3):
        parent.update(_chain(root, ids[i:i + 3]))
    return parent


FREE_TEXT_TASKS = {
    "put everything in one tower with the lightest object at the bottom": _lightest_first,
    "make one tower per transparency level": _by_transparency,
    "build towers of at most three objects": _towers_of_three,
}


def free_text_goal(prompt: str, root: str, attrs: dict[str, dict]) -> Tree:
    """The goal a backend should propose; `attrs` excludes the root."""
    return Tree(root, FREE_TEXT_TASKS[prompt](root, attrs), {})


def remote_scene(rng: random.Random, scene_id: str, size: int, prompt: str) -> Scene:
    objects = _objects(rng, [rng.choice(LABELS[:12]) for _ in range(size)])
    parent = _forest(rng, [o["id"] for o in objects[1:]], max_height=5, tower_bias=0.4)
    attrs = {o["id"]: o for o in objects[1:]}
    goal = free_text_goal(prompt, ROOT["id"], attrs)
    return Scene(_record(scene_id, objects, parent), Tree(ROOT["id"], parent, {}),
                 {"kind": "free_text"}, prompt, goal=goal)
