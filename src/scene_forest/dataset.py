"""Scene-record JSON files, caption rendering, and the synthetic generator.

A dataset is a directory of UTF-8 JSON files, one scene record per file.
Records carry object annotations, human-readable captions, and optionally
the cached triplet parse; no images are stored.
"""
from __future__ import annotations

import json
import os
import random
import sys
from bisect import insort
from collections import Counter
import warnings
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
    Value,
    _ID_RE,
    _PREDICATE_BY_TOKEN,
    canonicalize_id,
)


def record_from_dict(data: dict) -> SceneRecord:
    """Build a SceneRecord from parsed JSON; any malformed part raises SchemaError."""
    try:
        return _record_from_dict(data)
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc


def _record_from_dict(data: dict) -> SceneRecord:
    # Checks run in a fixed order and the first failure names the record's
    # fault; messages are formatted only on failure. Each value constructor's
    # checks are made here, once, and a value that passes them is built
    # through its slot setters; one that fails goes to its constructor to raise.
    if not isinstance(data, dict):
        raise SchemaError("record must be a JSON object")
    for key in ("scene_id", "objects", "captions"):
        if key not in data:
            raise SchemaError(f"missing field {key!r}")
    scene_id = data["scene_id"]
    raw_objects = data["objects"]
    raw_captions = data["captions"]
    if not isinstance(scene_id, str):
        raise SchemaError("scene_id must be a string")
    if not isinstance(raw_objects, list):
        raise SchemaError("objects must be a list")
    if not isinstance(raw_captions, list):
        raise SchemaError("captions must be a list")

    new = object.__new__
    set_fragility, set_mass, set_material, set_transparency = AttributeSet._setters
    set_id, set_label, set_attributes = ObjectInstance._setters
    id_match = _ID_RE.match
    max_mass = sys.float_info.max
    objects = []
    seen_ids = set()
    for entry in raw_objects:
        if not isinstance(entry, dict):
            raise SchemaError("object entry must be a JSON object")
        try:  # looked up in the order the fields are checked
            obj_id = entry["id"]
            label = entry["label"]
            fragility = entry["fragility"]
            mass = entry["mass_grams"]
            material = entry["material"]
            transparency = entry["transparency"]
        except KeyError as exc:
            raise SchemaError(f"object entry missing field {exc.args[0]!r}") from None
        if not isinstance(obj_id, str):
            raise SchemaError("object id must be a string")
        if not isinstance(label, str):
            raise SchemaError("object label must be a string")
        if obj_id in seen_ids:
            raise SchemaError(f"duplicate object id {obj_id!r}")
        seen_ids.add(obj_id)
        if not isinstance(mass, (int, float)) or isinstance(mass, bool):
            raise SchemaError("mass_grams must be a number")
        if not (
            fragility in FRAGILITY_LEVELS and material in MATERIALS
            and transparency in TRANSPARENCY_LEVELS and 0 < mass <= max_mass
            and id_match(obj_id) and label
        ):  # the constructors raise the first failed check's message
            ObjectInstance(obj_id, label, AttributeSet(fragility, mass, material, transparency))
        attributes = new(AttributeSet)
        set_fragility(attributes, fragility)
        set_mass(attributes, mass)
        set_material(attributes, material)
        set_transparency(attributes, transparency)
        obj = new(ObjectInstance)
        set_id(obj, obj_id)
        set_label(obj, label)
        set_attributes(obj, attributes)
        objects.append(obj)

    for caption in raw_captions:
        if not isinstance(caption, str):
            raise SchemaError("caption must be a string")

    triplets = None
    declared = True  # whether every triplet names declared ids only
    raw_triplets = data.get("triplets")
    if raw_triplets is not None:
        if not isinstance(raw_triplets, list):
            raise SchemaError("triplets must be a list")
        set_subject, set_predicate, set_support = SpatialTriplet._setters
        by_token = _PREDICATE_BY_TOKEN
        parsed = []
        for entry in raw_triplets:
            if not isinstance(entry, dict):
                raise SchemaError("triplet entry must be a JSON object")
            if "subject" not in entry:
                raise SchemaError("triplet entry missing field 'subject'")
            subject = entry["subject"]
            if not isinstance(subject, str):
                raise SchemaError("triplet subject must be a string")
            if "predicate" not in entry:
                raise SchemaError("triplet entry missing field 'predicate'")
            predicate = entry["predicate"]
            if not isinstance(predicate, str):
                raise SchemaError("triplet predicate must be a string")
            if "support" not in entry:
                raise SchemaError("triplet entry missing field 'support'")
            support = entry["support"]
            if not isinstance(support, str):
                raise SchemaError("triplet support must be a string")
            # A member is truthy, so a token the table lacks goes to `from_token` to raise.
            predicate = by_token.get(predicate) or SpatialPredicate.from_token(predicate)
            if subject == support:
                SpatialTriplet(subject, predicate, support)  # raises its message
            triplet = new(SpatialTriplet)
            set_subject(triplet, subject)
            set_predicate(triplet, predicate)
            set_support(triplet, support)
            parsed.append(triplet)
            if subject not in seen_ids or support not in seen_ids:
                declared = False
        triplets = tuple(parsed)

    # Ids are unique (`seen_ids`), so only a triplet's reference can fail
    # the record's own checks, after every triplet entry, as they run there.
    if not declared:  # the constructor raises the first such triplet's message
        return SceneRecord(scene_id, tuple(objects), tuple(raw_captions), triplets)
    record = new(SceneRecord)
    for setter, value in zip(
        SceneRecord._setters, (scene_id, tuple(objects), tuple(raw_captions), triplets)
    ):
        setter(record, value)
    return record


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


# Bytes asked of each read: more than a generated record holds, so a scene
# file takes one read and the read that finds its end.
_READ_SIZE = 1 << 16


def load_scene_record(path: str | Path) -> SceneRecord:
    """Read and check one scene record.

    The file is read on a raw descriptor, three syscalls and the read that
    finds its end, with none of the buffer and text layers of
    `Path.read_text`. Line ends are not translated, so in an invalid-JSON
    message the `(char N)` offset counts the CRs of a CRLF file.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
        raw = b"".join(chunks).decode("utf-8")
    except OSError as exc:
        # Named as `Path` spells it, also when the read fails on a directory.
        exc.filename = str(Path(path))
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return record_from_dict(data)


def _write_in_place(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, then cut the file to what was written.

    Unlike `Path.write_text`, this does not open with O_TRUNC: on ext4,
    truncating a file that holds data makes `close()` start writeback of
    the new data, a flush on every rewrite. It works on the raw descriptor,
    four syscalls per file where a buffered file object adds an fstat, an
    isatty probe and seeks. Errors are the same `OSError` subclasses
    `write_text` raises; no fsync is done.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _json_list(items: list[str]) -> str:
    """A top-level field's JSON array of already-formatted `items`, in
    `json.dumps(indent=2)`'s layout."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def _json_number(value) -> str:
    # `repr` spells an int or a float as the encoder does; anything else
    # (an int or float subclass) goes through the encoder.
    return repr(value) if type(value) in (int, float) else json.dumps(value)


def _record_json(record: SceneRecord) -> str:
    """`json.dumps(record_to_dict(record), indent=2) + "\\n"`, without the
    pure-Python encoder that `indent` selects.

    The keys are those `record_to_dict` writes, in its order, so a key
    added there must be added here. The scene id, labels and captions are
    escaped by `json.dumps`. Object ids (which also name every triplet's
    subject and support), attribute values and predicates are tokens the
    model checks, which need no escaping.
    """
    objects = []
    for o in record.objects:
        a = o.attributes
        objects.append(
            "    {\n"
            f'      "id": "{o.id}",\n'
            f'      "label": {json.dumps(o.label)},\n'
            f'      "fragility": "{a.fragility}",\n'
            f'      "mass_grams": {_json_number(a.mass_grams)},\n'
            f'      "material": "{a.material}",\n'
            f'      "transparency": "{a.transparency}"\n'
            "    }"
        )
    captions = [f"    {json.dumps(caption)}" for caption in record.captions]
    text = (
        "{\n"
        f'  "scene_id": {json.dumps(record.scene_id)},\n'
        f'  "objects": {_json_list(objects)},\n'
        f'  "captions": {_json_list(captions)}'
    )
    if record.triplets is not None:
        triplets = [
            "    {\n"
            f'      "subject": "{t.subject}",\n'
            f'      "predicate": "{t.predicate.value}",\n'
            f'      "support": "{t.support}"\n'
            "    }"
            for t in record.triplets
        ]
        text += f',\n  "triplets": {_json_list(triplets)}'
    return text + "\n}\n"


def save_scene_record(record: SceneRecord, path: str | Path) -> None:
    try:
        _write_in_place(path, _record_json(record))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# --- caption rendering -------------------------------------------------------

def _display_names(nodes: dict[str, ObjectInstance]) -> dict[str, str]:
    # Labels are rendered when unique within the scene; otherwise the id
    # itself disambiguates (and resolves back through the parser).
    counts = Counter(o.label for o in nodes.values())
    return {
        node_id: o.label if counts[o.label] == 1 else node_id
        for node_id, o in nodes.items()
    }


def _sentence(
    subject: str, predicate: SpatialPredicate, support: str, names: dict[str, str]
) -> str:
    relation = "on top of" if predicate is SpatialPredicate.ON_TOP_OF else "on"
    return f"The {names[subject]} is {relation} the {names[support]}."


def render_caption(tree: SceneTree) -> str:
    """One 'on top of' sentence per support edge, in pre-order."""
    names = _display_names(tree.nodes)
    sentences = [
        _sentence(node_id, SpatialPredicate.ON_TOP_OF, tree.parent[node_id], names)
        for node_id in tree.preorder()
        if node_id != tree.root
    ]
    if not sentences:
        warnings.warn("tree has no support edges; caption is empty", stacklevel=2)
        return ""
    return " ".join(sentences)


# --- synthetic generation ----------------------------------------------------

# Attribute weights over FRAGILITY_LEVELS and TRANSPARENCY_LEVELS, for every label.
_FRAGILITY_WEIGHTS = (1.0, 1.0, 1.0)
_TRANSPARENCY_WEIGHTS = (3.0, 1.0, 1.0)


class AttributeSampler(Value):
    """Per-label material choices and mass range."""

    __slots__ = ("material_choices", "mass_range_grams")

    def __init__(self, material_choices: tuple[str, ...], mass_range_grams: tuple[float, float]):
        set_material_choices, set_mass_range_grams = self._setters
        set_material_choices(self, material_choices)
        set_mass_range_grams(self, mass_range_grams)

    def sample(self, rng: random.Random) -> AttributeSet:
        fragility = rng.choices(FRAGILITY_LEVELS, weights=_FRAGILITY_WEIGHTS)[0]
        transparency = rng.choices(TRANSPARENCY_LEVELS, weights=_TRANSPARENCY_WEIGHTS)[0]
        material = rng.choice(self.material_choices)
        lo, hi = self.mass_range_grams
        mass = round(rng.uniform(lo, hi), 1)
        return AttributeSet(fragility, mass, material, transparency)


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


# Objects per scene besides the table, drawn uniformly from this range, and
# the deepest level an object may sit at (the table is level 0).
_OBJECT_COUNT_RANGE = (2, 6)
_MAX_STACK_HEIGHT = 4

_ROOT_ATTRIBUTES = AttributeSet(
    fragility="low", mass_grams=12000, material="wood", transparency="opaque"
)


def generate_synthetic_scene(seed: int, index: int) -> SceneRecord:
    """Deterministic synthetic scene record for (seed, index)."""
    rng = random.Random(f"{seed}:{index}")
    count = rng.randint(*_OBJECT_COUNT_RANGE)

    root = ObjectInstance(id="table_1", label="table", attributes=_ROOT_ATTRIBUTES)
    ordinals: dict[str, int] = {}
    objects = [root]
    for _ in range(count):
        label, sampler = _LABEL_VOCABULARY[rng.randrange(len(_LABEL_VOCABULARY))]
        ordinals[label] = ordinals.get(label, 0) + 1
        objects.append(
            ObjectInstance(canonicalize_id(label, ordinals[label]), label, sampler.sample(rng))
        )

    # Random valid forest under the table, bounded by _MAX_STACK_HEIGHT.
    depths = {root.id: 0}
    supports = [root.id]  # sorted ids of the objects below _MAX_STACK_HEIGHT
    triplets = []
    for obj in objects[1:]:
        support = supports[rng.randrange(len(supports))]
        depths[obj.id] = depths[support] + 1
        if depths[obj.id] < _MAX_STACK_HEIGHT:
            insort(supports, obj.id)
        predicate = rng.choice((SpatialPredicate.ON, SpatialPredicate.ON_TOP_OF))
        triplets.append(SpatialTriplet(obj.id, predicate, support))

    names = _display_names({o.id: o for o in objects})
    captions = tuple(_sentence(t.subject, t.predicate, t.support, names) for t in triplets)
    return SceneRecord(f"scene_{index:04d}", tuple(objects), captions, tuple(triplets))
