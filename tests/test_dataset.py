import itertools
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scene_forest.captions import parse_caption
from scene_forest.dataset import (
    generate_synthetic_scene,
    load_scene_record,
    record_from_dict,
    record_to_dict,
    render_caption,
    save_scene_record,
)
from scene_forest.errors import DomainError, IoError, SchemaError
from scene_forest.model import (
    AttributeSet,
    ObjectInstance,
    SceneRecord,
    SpatialPredicate,
    SpatialTriplet,
)
from scene_forest.treebuild import build_tree, validate_tree

from conftest import chain_tree, random_tree

MINIMAL = {
    "scene_id": "scene_0000",
    "objects": [
        {"id": "table_1", "label": "table", "fragility": "low",
         "mass_grams": 12000, "material": "wood", "transparency": "opaque"},
    ],
    "captions": [""],
}


class TestLoadRecord:
    def test_minimal(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(MINIMAL))
        record = load_scene_record(path)
        assert len(record.objects) == 1
        assert record.triplets is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_scene_record(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        for raw in (b"{not json", b"\xff\xfe{}", b"[" * 100_000, b"1" * 5000):
            path.write_bytes(raw)
            with pytest.raises(SchemaError):
                load_scene_record(path)

    def test_duplicate_ids(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["objects"].append(dict(data["objects"][0]))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError):
            load_scene_record(path)

    def test_negative_mass(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        path = tmp_path / "s.json"
        for mass in (-3, 10**400):
            data["objects"][0]["mass_grams"] = mass
            path.write_text(json.dumps(data))
            with pytest.raises(SchemaError, match="mass_grams must be positive and finite") as info:
                load_scene_record(path)
            assert len(str(info.value)) < 120

    def test_bad_material(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["objects"][0]["material"] = "cheese"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError):
            load_scene_record(path)

    def test_missing_field(self):
        data = json.loads(json.dumps(MINIMAL))
        del data["objects"][0]["fragility"]
        with pytest.raises(SchemaError):
            record_from_dict(data)

    def test_triplet_unknown_reference(self):
        data = json.loads(json.dumps(MINIMAL))
        for triplet in (
            {"subject": "ghost_1", "predicate": "on", "support": "table_1"},
            {"subject": ["table_1"], "predicate": "on", "support": "table_1"},
            {"subject": "table_1", "predicate": "on", "support": 1},
            {"subject": "table_1", "predicate": ["on"], "support": "table_1"},
        ):
            data["triplets"] = [triplet]
            with pytest.raises(SchemaError):
                record_from_dict(data)


# Edge values sit beside arbitrary JSON so that each is drawn often; the
# first three are the ints nearest to and far past a float's range.
_EDGE_VALUES = st.sampled_from([
    2**1024, -(2**1024), 10**400, -1, 0, float("nan"), float("inf"), True, None,
    "", "table_1", [], {},
])
_JSON_VALUES = _EDGE_VALUES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["book_1", "on", "on_top_of", "low", "wood", "opaque"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "subject", "mass_grams", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _node_at(node, path):
    for key in path:
        node = node[key]
    return node


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


# The loader as it was before messages were formatted only on failure, kept
# verbatim as the reference for the check order and every message.
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


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


def reference_record_from_dict(data):
    try:
        return _record_from_dict(data)
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc


def _load_outcome(load, data):
    try:
        return load(data)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_record_loads_or_raises_schema_errors(data):
    # Arbitrary JSON values replace or delete parts of a valid record. The
    # site is drawn per field name (list items form one group and the whole
    # record another), so every field is hit however many objects there are.
    # The loader must return the reference's record or raise its message.
    index = data.draw(st.integers(0, 20))
    record = record_to_dict(generate_synthetic_scene(0, index))
    for _ in range(data.draw(st.integers(1, 3))):
        entries = [
            node for node in (_node_at(record, path) for path in _paths(record))
            if isinstance(node, dict)
        ]
        if entries and data.draw(st.booleans()):
            # Several faults in one JSON object, all deletions or all
            # replacements, so that the order of its checks shows.
            entry = entries[data.draw(st.integers(0, len(entries) - 1))]
            delete = data.draw(st.booleans())
            for key in sorted(entry):
                if data.draw(st.booleans()):
                    if delete:
                        del entry[key]
                    else:
                        entry[key] = data.draw(_JSON_VALUES)
            continue
        sites: dict = {}
        for path in _paths(record):
            field = path[-1] if path and isinstance(path[-1], str) else bool(path)
            sites.setdefault(field, []).append(path)
        field = data.draw(st.sampled_from(sorted(sites, key=repr)))
        path = data.draw(st.sampled_from(sites[field]))
        if not path:
            record = data.draw(_JSON_VALUES)
            continue
        container = record
        for key in path[:-1]:
            container = container[key]
        if data.draw(st.booleans()):
            del container[path[-1]]
        else:
            container[path[-1]] = data.draw(_JSON_VALUES)
    # Both loaders give equal records, or the same first SchemaError message.
    outcome = _load_outcome(record_from_dict, record)
    assert isinstance(outcome, (SceneRecord, str))
    assert outcome == _load_outcome(reference_record_from_dict, record)


_DELETE = object()
_BASE_RECORD = {
    "scene_id": "scene_0000",
    "objects": [
        MINIMAL["objects"][0],
        {"id": "book_1", "label": "book", "fragility": "high",
         "mass_grams": 300.5, "material": "paper", "transparency": "opaque"},
    ],
    "captions": ["The book is on the table."],
    "triplets": [{"subject": "book_1", "predicate": "on", "support": "table_1"}],
}
# (path of the container, key, new value or _DELETE): one fault per check.
_FAULTS = [
    ((), "scene_id", _DELETE), ((), "scene_id", 7),
    ((), "objects", _DELETE), ((), "objects", {}),
    ((), "captions", _DELETE), ((), "captions", "x"), (("captions",), 0, 1),
    ((), "triplets", "x"), (("triplets",), 0, []), (("objects",), 0, "x"),
    (("objects", 1), "id", _DELETE), (("objects", 1), "id", 1),
    (("objects", 1), "id", "table_1"), (("objects", 1), "id", "Book 1"),
    (("objects", 1), "label", _DELETE), (("objects", 1), "label", 2),
    (("objects", 1), "label", ""),
    (("objects", 1), "fragility", _DELETE), (("objects", 1), "fragility", "brittle"),
    (("objects", 1), "mass_grams", _DELETE), (("objects", 1), "mass_grams", "300"),
    (("objects", 1), "mass_grams", True), (("objects", 1), "mass_grams", -1),
    (("objects", 1), "material", _DELETE), (("objects", 1), "material", "cheese"),
    (("objects", 1), "transparency", _DELETE), (("objects", 1), "transparency", "clear"),
    (("triplets", 0), "subject", _DELETE), (("triplets", 0), "subject", 1),
    (("triplets", 0), "subject", "ghost_1"), (("triplets", 0), "subject", "table_1"),
    (("triplets", 0), "predicate", _DELETE), (("triplets", 0), "predicate", 1),
    (("triplets", 0), "predicate", "under"),
    (("triplets", 0), "support", _DELETE), (("triplets", 0), "support", None),
    (("triplets", 0), "support", "ghost_1"),
]


def test_every_pair_of_faults_gives_the_reference_message():
    # Whichever check comes first must fail first, as in the reference.
    checked = 0
    for first, second in itertools.combinations(_FAULTS, 2):
        if first[:2] == second[:2]:
            continue
        data = json.loads(json.dumps(_BASE_RECORD))
        try:
            for path, key, value in (first, second):
                container = _node_at(data, path)
                if value is _DELETE:
                    del container[key]
                else:
                    container[key] = value
        except (KeyError, IndexError, TypeError):
            continue  # the first fault removed the second one's container
        outcome = _load_outcome(record_from_dict, data)
        assert outcome == _load_outcome(reference_record_from_dict, data), (first, second)
        assert isinstance(outcome, str), (first, second)
        checked += 1
    assert checked > 500


def test_save_load_round_trip(tmp_path, rng):
    record = generate_synthetic_scene(5, 3)
    path = tmp_path / "scene.json"
    save_scene_record(record, path)
    assert load_scene_record(path) == record


_ids = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
# Labels, captions and scene ids need escapes: quotes, backslashes, control
# characters, non-ASCII text and surrogate pairs.
_texts = st.text(st.characters() | st.sampled_from('"\\\n\t\x00é☃𝄞'), max_size=8)


@st.composite
def _records(draw):
    ids = draw(st.lists(_ids, min_size=1, max_size=5, unique=True))
    masses = st.one_of(
        st.integers(1, 10**30),
        st.floats(5e-324, 1.7e308, allow_nan=False, allow_infinity=False),
        st.sampled_from([1e16, 1e-05, 12000, 12000.0, 0.1, True]),
    )
    objects = tuple(
        ObjectInstance(
            obj_id,
            draw(_texts.filter(bool)),
            AttributeSet(
                draw(st.sampled_from(["low", "medium", "high"])),
                draw(masses),
                draw(st.sampled_from(["wood", "glass", "other"])),
                draw(st.sampled_from(["opaque", "transparent"])),
            ),
        )
        for obj_id in ids
    )
    edges = st.tuples(st.sampled_from(ids), st.sampled_from(SpatialPredicate), st.sampled_from(ids))
    triplets = draw(st.none() | st.lists(edges, max_size=4))
    if triplets is not None:
        triplets = tuple(SpatialTriplet(*t) for t in triplets if t[0] != t[2])
    return SceneRecord(draw(_texts), objects, tuple(draw(st.lists(_texts, max_size=3))), triplets)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=_records())
def test_saved_bytes_are_the_indented_json_encoding(tmp_path, record):
    # `perfbench/digests.json` hashes the `gen` files, so the writer's bytes
    # must stay those of `json.dumps(indent=2)`.
    path = tmp_path / "scene.json"
    save_scene_record(record, path)
    assert path.read_bytes() == (json.dumps(record_to_dict(record), indent=2) + "\n").encode()
    if all(o.attributes.mass_grams is not True for o in record.objects):  # the loader rejects a bool
        assert load_scene_record(path) == record


def test_record_dict_schema_field_names():
    record = generate_synthetic_scene(1, 0)
    data = record_to_dict(record)
    assert set(data) == {"scene_id", "objects", "captions", "triplets"}
    entry = data["objects"][0]
    assert set(entry) == {
        "id", "label", "fragility", "mass_grams", "material", "transparency"
    }
    for t in data["triplets"]:
        assert t["predicate"] in ("on", "on_top_of")


class TestRenderCaption:
    def test_single_edge(self):
        tree = chain_tree("book_1")
        assert render_caption(tree) == "The book is on top of the table."

    def test_root_only_warns(self):
        tree = chain_tree()
        with pytest.warns(UserWarning):
            assert render_caption(tree) == ""

    def test_preorder_two_sentences(self):
        tree = chain_tree("a_1", "b_1")
        assert render_caption(tree) == (
            "The a is on top of the table. The b is on top of the a."
        )

    def test_round_trip_with_parser(self, rng):
        for _ in range(50):
            tree = random_tree(rng, rng.randint(1, 8))
            caption = render_caption(tree)
            triplets = parse_caption(caption, list(tree.nodes.values()))
            assert {(t.subject, t.support) for t in triplets} == set(
                tree.parent.items()
            )

    def test_round_trip_duplicate_labels(self, rng):
        for _ in range(30):
            tree = random_tree(rng, rng.randint(2, 7), distinct_labels=False)
            caption = render_caption(tree)
            triplets = parse_caption(caption, list(tree.nodes.values()))
            assert {(t.subject, t.support) for t in triplets} == set(
                tree.parent.items()
            )


    def test_scales_linearly_in_tree_size(self):
        # A 4 000-object chain with one shared label. Counting labels per
        # sentence took about 2 s on a 2-vCPU host (0.4 s at 2 000 objects);
        # one count per tree takes about 4 ms, so the bound tolerates a
        # loaded host and still catches a return to O(n^2).
        n = 4000
        tree = chain_tree(*(f"box_{i}" for i in range(1, n + 1)))
        start = time.perf_counter()
        caption = render_caption(tree)
        elapsed = time.perf_counter() - start
        assert caption.startswith("The box_1 is on top of the table. ")
        assert caption.endswith(f"The box_{n} is on top of the box_{n - 1}.")
        assert elapsed < 0.5, f"rendering a {n}-object chain took {elapsed:.2f} s"


class TestGenerator:
    def test_deterministic(self):
        assert generate_synthetic_scene(0, 0) == generate_synthetic_scene(0, 0)

    def test_distinct_indices_distinct_ids(self):
        ids = {generate_synthetic_scene(0, i).scene_id for i in range(50)}
        assert len(ids) == 50

    def test_generated_records_build_valid_trees(self):
        for i in range(100):
            record = generate_synthetic_scene(42, i)
            report = build_tree(list(record.triplets), record.objects)
            assert report.success
            assert validate_tree(report.tree) == []

    def test_caption_parse_matches_cached_triplets(self):
        for i in range(50):
            record = generate_synthetic_scene(9, i)
            parsed = []
            for caption in record.captions:
                parsed.extend(parse_caption(caption, record.objects))
            assert [(t.subject, t.support) for t in parsed] == [
                (t.subject, t.support) for t in record.triplets
            ]

    def test_max_stack_height_respected(self):
        # Scenes hold 2-6 objects besides the table, stacked at most 4 high;
        # over 300 scenes both ends of the count and the full height occur.
        from conftest import depth

        counts, heights = set(), set()
        for i in range(300):
            record = generate_synthetic_scene(3, i)
            tree = build_tree(list(record.triplets), record.objects).tree
            counts.add(len(record.objects) - 1)
            heights.add(max(depth(tree, n) for n in tree.nodes))
        assert counts == {2, 3, 4, 5, 6}
        assert max(heights) == 4
