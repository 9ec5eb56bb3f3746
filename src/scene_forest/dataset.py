"""Scene-record JSON files, caption rendering, and the synthetic generator.

A dataset is a directory of UTF-8 JSON files, one scene record per file.
Records carry object annotations, human-readable captions, and optionally
the cached triplet parse; no images are stored.
"""
from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError, IoError, SchemaError
from .model import (
    AttributeSet,
    FRAGILITY_LEVELS,
    MATERIALS,
    ObjectInstance,
    SceneRecord,
    SceneTree,
    SpatialPredicate,
    SpatialTriplet,
    TRANSPARENCY_LEVELS,
    canonicalize_id,
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def record_from_dict(data: dict) -> SceneRecord:
    """Build a SceneRecord from parsed JSON; any malformed part raises SchemaError."""
    try:
        return _record_from_dict(data)
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc


def _record_from_dict(data: dict) -> SceneRecord:
    _require(isinstance(data, dict), "record must be a JSON object")
    for key in ("scene_id", "objects", "captions"):
        _require(key in data, f"missing field {key!r}")
    _require(isinstance(data["scene_id"], str), "scene_id must be a string")
    _require(isinstance(data["objects"], list), "objects must be a list")
    _require(isinstance(data["captions"], list), "captions must be a list")

    objects = []
    seen_ids = set()
    for entry in data["objects"]:
        _require(isinstance(entry, dict), "object entry must be a JSON object")
        for key in ("id", "label", "fragility", "mass_grams", "material", "transparency"):
            _require(key in entry, f"object entry missing field {key!r}")
        _require(isinstance(entry["id"], str), "object id must be a string")
        _require(isinstance(entry["label"], str), "object label must be a string")
        _require(entry["id"] not in seen_ids, f"duplicate object id {entry['id']!r}")
        seen_ids.add(entry["id"])
        if not isinstance(entry["mass_grams"], (int, float)) or isinstance(
            entry["mass_grams"], bool
        ):
            raise SchemaError("mass_grams must be a number")
        attributes = AttributeSet(
            fragility=entry["fragility"],
            mass_grams=entry["mass_grams"],
            material=entry["material"],
            transparency=entry["transparency"],
        )
        objects.append(
            ObjectInstance(id=entry["id"], label=entry["label"], attributes=attributes)
        )

    captions = []
    for caption in data["captions"]:
        _require(isinstance(caption, str), "caption must be a string")
        captions.append(caption)

    triplets = None
    if "triplets" in data and data["triplets"] is not None:
        _require(isinstance(data["triplets"], list), "triplets must be a list")
        parsed = []
        for entry in data["triplets"]:
            _require(isinstance(entry, dict), "triplet entry must be a JSON object")
            for key in ("subject", "predicate", "support"):
                _require(key in entry, f"triplet entry missing field {key!r}")
                _require(isinstance(entry[key], str), f"triplet {key} must be a string")
            parsed.append(
                SpatialTriplet(
                    subject=entry["subject"],
                    predicate=SpatialPredicate.from_token(entry["predicate"]),
                    support=entry["support"],
                )
            )
        triplets = tuple(parsed)

    return SceneRecord(
        scene_id=data["scene_id"],
        objects=tuple(objects),
        captions=tuple(captions),
        triplets=triplets,
    )


def record_to_dict(record: SceneRecord) -> dict:
    data = {
        "scene_id": record.scene_id,
        "objects": [
            {
                "id": o.id,
                "label": o.label,
                "fragility": o.attributes.fragility,
                "mass_grams": o.attributes.mass_grams,
                "material": o.attributes.material,
                "transparency": o.attributes.transparency,
            }
            for o in record.objects
        ],
        "captions": list(record.captions),
    }
    if record.triplets is not None:
        data["triplets"] = [
            {"subject": t.subject, "predicate": t.predicate.value, "support": t.support}
            for t in record.triplets
        ]
    return data


def load_scene_record(path: str | Path) -> SceneRecord:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return record_from_dict(data)


def save_scene_record(record: SceneRecord, path: str | Path) -> None:
    try:
        Path(path).write_text(
            json.dumps(record_to_dict(record), indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# --- caption rendering -------------------------------------------------------

def _display_name(tree_nodes: dict[str, ObjectInstance], node_id: str) -> str:
    # Labels are rendered when unique within the scene; otherwise the id
    # itself disambiguates (and resolves back through the parser).
    label = tree_nodes[node_id].label
    shared = sum(1 for o in tree_nodes.values() if o.label == label)
    return label if shared == 1 else node_id


def render_triplet_sentence(
    triplet: SpatialTriplet, nodes: dict[str, ObjectInstance]
) -> str:
    relation = "on top of" if triplet.predicate is SpatialPredicate.ON_TOP_OF else "on"
    subject = _display_name(nodes, triplet.subject)
    support = _display_name(nodes, triplet.support)
    return f"The {subject} is {relation} the {support}."


def render_caption(tree: SceneTree) -> str:
    """One 'on top of' sentence per support edge, in pre-order."""
    sentences = []
    for node_id in tree.preorder():
        if node_id == tree.root:
            continue
        triplet = SpatialTriplet(
            subject=node_id,
            predicate=SpatialPredicate.ON_TOP_OF,
            support=tree.parent[node_id],
        )
        sentences.append(render_triplet_sentence(triplet, tree.nodes))
    if not sentences:
        warnings.warn("tree has no support edges; caption is empty", stacklevel=2)
        return ""
    return " ".join(sentences)


# --- synthetic generation ----------------------------------------------------

# Attribute weights over FRAGILITY_LEVELS and TRANSPARENCY_LEVELS, for every label.
_FRAGILITY_WEIGHTS = (1.0, 1.0, 1.0)
_TRANSPARENCY_WEIGHTS = (3.0, 1.0, 1.0)


@dataclass(frozen=True)
class AttributeSampler:
    """Per-label material choices and mass range."""

    material_choices: tuple[str, ...] = MATERIALS
    mass_range_grams: tuple[float, float] = (50.0, 2000.0)

    def sample(self, rng: random.Random) -> AttributeSet:
        fragility = rng.choices(FRAGILITY_LEVELS, weights=_FRAGILITY_WEIGHTS)[0]
        transparency = rng.choices(TRANSPARENCY_LEVELS, weights=_TRANSPARENCY_WEIGHTS)[0]
        material = rng.choice(self.material_choices)
        lo, hi = self.mass_range_grams
        mass = round(rng.uniform(lo, hi), 1)
        return AttributeSet(
            fragility=fragility,
            mass_grams=mass,
            material=material,
            transparency=transparency,
        )


_LABEL_VOCABULARY = (
    ("book", AttributeSampler(material_choices=("paper",),
                              mass_range_grams=(200.0, 900.0))),
    ("plate", AttributeSampler(material_choices=("ceramic", "glass", "plastic"),
                               mass_range_grams=(300.0, 800.0))),
    ("cup", AttributeSampler(material_choices=("ceramic", "glass", "plastic"),
                             mass_range_grams=(100.0, 400.0))),
    ("bowl", AttributeSampler(material_choices=("ceramic", "wood", "metal"),
                              mass_range_grams=(200.0, 700.0))),
    ("box", AttributeSampler(material_choices=("wood", "plastic", "paper"),
                             mass_range_grams=(150.0, 2500.0))),
    ("bottle", AttributeSampler(material_choices=("glass", "plastic"),
                                mass_range_grams=(100.0, 1200.0))),
    ("pen", AttributeSampler(material_choices=("plastic", "metal"),
                             mass_range_grams=(5.0, 40.0))),
    ("laptop", AttributeSampler(material_choices=("metal", "plastic"),
                                mass_range_grams=(900.0, 2500.0))),
)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    object_count_range: tuple[int, int] = (2, 6)
    max_stack_height: int = 4

    def __post_init__(self):
        lo, hi = self.object_count_range
        if not (1 <= lo <= hi):
            raise ValueError("object_count_range must satisfy 1 <= min <= max")
        if self.max_stack_height < 1:
            raise ValueError("max_stack_height must be positive")


_ROOT_ATTRIBUTES = AttributeSet(
    fragility="low", mass_grams=12000, material="wood", transparency="opaque"
)


def generate_synthetic_scene(config: GeneratorConfig, index: int) -> SceneRecord:
    """Deterministic synthetic scene record for (config.seed, index)."""
    rng = random.Random(f"{config.seed}:{index}")
    lo, hi = config.object_count_range
    count = rng.randint(lo, hi)

    root = ObjectInstance(id="table_1", label="table", attributes=_ROOT_ATTRIBUTES)
    ordinals: dict[str, int] = {}
    objects = [root]
    for _ in range(count):
        label, sampler = _LABEL_VOCABULARY[rng.randrange(len(_LABEL_VOCABULARY))]
        ordinals[label] = ordinals.get(label, 0) + 1
        objects.append(
            ObjectInstance(
                id=canonicalize_id(label, ordinals[label]),
                label=label,
                attributes=sampler.sample(rng),
            )
        )

    # Random valid forest under the table, bounded by max_stack_height.
    depths = {root.id: 0}
    triplets = []
    nodes = {o.id: o for o in objects}
    for obj in objects[1:]:
        supports = sorted(
            n for n, d in depths.items() if d < config.max_stack_height
        )
        support = supports[rng.randrange(len(supports))]
        depths[obj.id] = depths[support] + 1
        predicate = rng.choice((SpatialPredicate.ON, SpatialPredicate.ON_TOP_OF))
        triplets.append(
            SpatialTriplet(subject=obj.id, predicate=predicate, support=support)
        )

    captions = tuple(render_triplet_sentence(t, nodes) for t in triplets)
    return SceneRecord(
        scene_id=f"scene_{index:04d}",
        objects=tuple(objects),
        captions=captions,
        triplets=tuple(triplets),
    )
