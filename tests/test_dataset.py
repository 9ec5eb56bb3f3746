import json

import pytest
from hypothesis import given, settings, strategies as st

from scene_forest.captions import parse_caption
from scene_forest.dataset import (
    GeneratorConfig,
    generate_synthetic_scene,
    load_scene_record,
    record_from_dict,
    record_to_dict,
    render_caption,
    save_scene_record,
)
from scene_forest.errors import IoError, SchemaError
from scene_forest.model import SceneRecord, SpatialPredicate
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


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_record_loads_or_raises_schema_errors(data):
    # Arbitrary JSON values replace or delete parts of a valid record. The
    # site is drawn per field name (list items form one group and the whole
    # record another), so every field is hit however many objects there are.
    index = data.draw(st.integers(0, 20))
    record = record_to_dict(generate_synthetic_scene(GeneratorConfig(seed=0), index))
    for _ in range(data.draw(st.integers(1, 3))):
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
    try:
        assert isinstance(record_from_dict(record), SceneRecord)
    except SchemaError:
        pass


def test_save_load_round_trip(tmp_path, rng):
    config = GeneratorConfig(seed=5)
    record = generate_synthetic_scene(config, 3)
    path = tmp_path / "scene.json"
    save_scene_record(record, path)
    assert load_scene_record(path) == record


def test_record_dict_schema_field_names():
    record = generate_synthetic_scene(GeneratorConfig(seed=1), 0)
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


class TestGenerator:
    def test_deterministic(self):
        config = GeneratorConfig(seed=0)
        assert generate_synthetic_scene(config, 0) == generate_synthetic_scene(config, 0)

    def test_distinct_indices_distinct_ids(self):
        config = GeneratorConfig(seed=0)
        ids = {generate_synthetic_scene(config, i).scene_id for i in range(50)}
        assert len(ids) == 50

    def test_generated_records_build_valid_trees(self):
        config = GeneratorConfig(seed=42)
        for i in range(100):
            record = generate_synthetic_scene(config, i)
            report = build_tree(list(record.triplets), record.registry())
            assert report.success
            assert validate_tree(report.tree) == []

    def test_caption_parse_matches_cached_triplets(self):
        config = GeneratorConfig(seed=9)
        for i in range(50):
            record = generate_synthetic_scene(config, i)
            parsed = []
            for caption in record.captions:
                parsed.extend(parse_caption(caption, record.registry()))
            assert [(t.subject, t.support) for t in parsed] == [
                (t.subject, t.support) for t in record.triplets
            ]

    def test_max_stack_height_respected(self):
        config = GeneratorConfig(seed=3, object_count_range=(6, 8), max_stack_height=2)
        from conftest import depth

        for i in range(30):
            record = generate_synthetic_scene(config, i)
            tree = build_tree(list(record.triplets), record.registry()).tree
            assert max(depth(tree, n) for n in tree.nodes) <= 2

    def test_bad_config(self):
        with pytest.raises(ValueError):
            GeneratorConfig(object_count_range=(5, 2))
        with pytest.raises(ValueError):
            GeneratorConfig(max_stack_height=0)
