import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scene_forest import captions as caption_mod
from scene_forest.captions import (
    LabelIndex,
    parse_caption,
    resolve_reference,
)
from scene_forest.cli import _scene_triplets
from scene_forest.dataset import GeneratorConfig, generate_synthetic_scene
from scene_forest.errors import (
    AmbiguousReference,
    CaptionError,
    MalformedSentence,
    UnknownObject,
)
from scene_forest.model import SceneRecord, SpatialPredicate, canonicalize_id

from conftest import make_object, make_table


@pytest.fixture
def registry():
    return [make_table(), make_object("book_1"), make_object("cup_1"),
            make_object("pen_1")]


def triples(ts):
    return [(t.subject, t.predicate, t.support) for t in ts]


class TestParseCaption:
    def test_on_top_of(self, registry):
        result = parse_caption("The book is on top of the table.", registry)
        assert triples(result) == [("book_1", SpatialPredicate.ON_TOP_OF, "table_1")]

    def test_clause_conjunction(self, registry):
        result = parse_caption(
            "The cup is on the book and the pen is on the cup.", registry
        )
        assert triples(result) == [
            ("cup_1", SpatialPredicate.ON, "book_1"),
            ("pen_1", SpatialPredicate.ON, "cup_1"),
        ]

    def test_unknown_object(self):
        registry = [make_table(), make_object("book_1")]
        with pytest.raises(UnknownObject):
            parse_caption("The vase is on the shelf.", registry)

    def test_plural_subjects(self):
        registry = [make_table(), make_object("plate_1"), make_object("bowl_1")]
        result = parse_caption("The plate and the bowl are on the table.", registry)
        assert triples(result) == [
            ("plate_1", SpatialPredicate.ON, "table_1"),
            ("bowl_1", SpatialPredicate.ON, "table_1"),
        ]

    def test_imperative_is_malformed(self, registry):
        with pytest.raises(MalformedSentence):
            parse_caption("Stack the book.", registry)

    def test_sentence_separators(self, registry):
        semi = parse_caption("The book is on the table; the cup is on the book.", registry)
        dot = parse_caption("The book is on the table. The cup is on the book.", registry)
        assert triples(semi) == triples(dot)

    def test_case_insensitive(self, registry):
        upper = parse_caption("THE BOOK IS ON TOP OF THE TABLE.", registry)
        lower = parse_caption("the book is on top of the table.", registry)
        assert triples(upper) == triples(lower)

    def test_adjectives_stripped(self, registry):
        result = parse_caption("The red book is on the wooden table.", registry)
        assert triples(result) == [("book_1", SpatialPredicate.ON, "table_1")]

    def test_empty_caption(self, registry):
        with pytest.raises(MalformedSentence):
            parse_caption("   ", registry)

    def test_self_support_rejected(self, registry):
        with pytest.raises(MalformedSentence):
            parse_caption("The book is on the book.", registry)

    def test_determinism(self, registry):
        text = "The cup is on the book and the pen is on the cup."
        assert parse_caption(text, registry) == parse_caption(text, registry)

    def test_order_preservation(self, registry):
        result = parse_caption(
            "The pen is on the cup. The book is on the table.", registry
        )
        assert [t.subject for t in result] == ["pen_1", "book_1"]

    def test_duplicate_dedup_with_warning(self, registry):
        diags = []
        result = parse_caption(
            "The book is on the table. The book is on top of the table.", registry, diags
        )
        assert len(result) == 1
        assert [d.severity for d in diags] == ["warning"]
        assert diags[0].span[0] < diags[0].span[1] <= len(
            "The book is on the table. The book is on top of the table."
        )

    def test_predicate_closure(self, registry):
        result = parse_caption(
            "The book is on the table and the cup is on top of the book.", registry
        )
        assert all(
            t.predicate in (SpatialPredicate.ON, SpatialPredicate.ON_TOP_OF)
            for t in result
        )


class TestResolveReference:
    def test_unique_label(self):
        assert resolve_reference("the table", [make_table()]) == "table_1"

    def test_ordinal(self):
        registry = [make_object("cup_1"), make_object("cup_2")]
        assert resolve_reference("the second cup", registry) == "cup_2"

    def test_ambiguous(self):
        registry = [make_object("cup_1"), make_object("cup_2")]
        with pytest.raises(AmbiguousReference):
            resolve_reference("the cup", registry)

    def test_exact_id_wins(self):
        registry = [make_object("cup_1"), make_object("cup_2")]
        assert resolve_reference("the cup_2", registry) == "cup_2"

    def test_unknown(self):
        with pytest.raises(UnknownObject):
            resolve_reference("the spoon", [make_table()])

    def test_ordinal_out_of_range(self):
        registry = [make_object("cup_1")]
        with pytest.raises(UnknownObject):
            resolve_reference("the third cup", registry)

    def test_ordinal_fault_is_not_swallowed(self, monkeypatch):
        # Only a label that yields no id falls back to the sorted candidates;
        # any other error from canonicalize_id is a fault and surfaces.
        def broken(label, ordinal):
            raise RuntimeError("broken")

        monkeypatch.setattr(caption_mod, "canonicalize_id", broken)
        with pytest.raises(RuntimeError):
            resolve_reference("the second cup", [make_object("cup_1"), make_object("cup_2")])


_DETERMINERS = {"the", "a", "an"}
_ORDINAL_WORDS = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "sixth": 6, "seventh": 7, "eighth": 8, "ninth": 9, "tenth": 10,
}


def reference_resolve(phrase, registry):
    """The registry-scanning resolver the label index replaced, kept verbatim."""
    tokens = [t for t in re.split(r"[\s,]+", phrase.strip().lower()) if t]
    tokens = [t.strip(".,;:!?\"'") for t in tokens]
    tokens = [t for t in tokens if t]
    while tokens and tokens[0] in _DETERMINERS:
        tokens.pop(0)
    ordinal = None
    if tokens and tokens[0] in _ORDINAL_WORDS:
        ordinal = _ORDINAL_WORDS[tokens.pop(0)]
    if not tokens:
        raise UnknownObject(f"empty reference in {phrase!r}")
    head = tokens[-1]

    by_id = {o.id: o for o in registry}
    if head in by_id:
        return head
    candidates = sorted(o.id for o in registry if o.label.lower() == head)
    if not candidates:
        raise UnknownObject(f"no object matches {head!r}")
    if ordinal is not None:
        try:
            canonical = canonicalize_id(head, ordinal)
        except Exception:
            canonical = None
        if canonical in candidates:
            return canonical
        if ordinal <= len(candidates):
            return candidates[ordinal - 1]
        raise UnknownObject(f"no {ordinal}-th object labeled {head!r}")
    if len(candidates) > 1:
        raise AmbiguousReference(
            f"{head!r} matches {len(candidates)} objects: {', '.join(candidates)}"
        )
    return candidates[0]


def _outcome(resolve, phrase, registry):
    try:
        return resolve(phrase, registry)
    except (UnknownObject, AmbiguousReference) as exc:
        return type(exc), str(exc)


# Few labels and ids, so labels repeat, ids run past the tenth (where string
# and numeric order differ), and a label's canonical id may carry another
# label.
_LABELS = ["cup", "Cup", "CUP", "book", "box", "cup_2"]
_IDS = [f"{stem}_{n}" for stem in ("cup", "book", "box") for n in (1, 2, 3, 10, 11, 12)]


@st.composite
def registries(draw):
    ids = draw(st.lists(st.sampled_from(_IDS), unique=True, max_size=12))
    return [make_object(i, label=draw(st.sampled_from(_LABELS))) for i in ids]


_PHRASES = st.builds(
    lambda det, ordinal, adjective, head, tail: " ".join(
        w for w in (det, ordinal, adjective, head) if w
    ) + tail,
    st.sampled_from(["", "the", "The", "a", "an"]),
    st.sampled_from(["", "first", "second", "third", "tenth", "eleventh"]),
    st.sampled_from(["", "red", "first"]),
    st.sampled_from(["cup", "Cup", "book", "box", "spoon", "cup_2", "cup_10", "book_11", ""]),
    st.sampled_from(["", ",", ".", "!", " ,"]),
)


@settings(max_examples=400, deadline=None)
@given(registry=registries(), phrase=_PHRASES)
def test_resolve_matches_reference(registry, phrase):
    assert _outcome(resolve_reference, phrase, registry) == _outcome(
        reference_resolve, phrase, registry
    )


@settings(max_examples=200, deadline=None)
@given(
    registry=registries(),
    phrases=st.lists(_PHRASES.filter(lambda p: "." not in p), min_size=2, max_size=4),
)
def test_caption_resolves_as_reference(registry, phrases):
    # Every reference of a caption resolves through one index, as if each
    # were resolved alone against the whole registry. A "." would end the
    # sentence inside a phrase, so the phrases here carry none.
    caption = " and ".join(f"{a} is on {b}" for a, b in zip(phrases, phrases[1:]))
    expected = [_outcome(reference_resolve, p, registry) for p in phrases]
    try:
        result = parse_caption(caption, registry)
    except (UnknownObject, AmbiguousReference) as exc:
        assert (type(exc), str(exc)) in expected
    except MalformedSentence:
        pass
    else:
        pairs = list(dict.fromkeys(zip(expected, expected[1:])))
        assert [(t.subject, t.support) for t in result] == pairs


@st.composite
def caption_records(draw):
    """Caption-only records: a generated scene (one caption per relation, all
    of which parse), or drawn phrases over a tie-prone registry (most fail to
    resolve); blank captions are mixed in either way."""
    if draw(st.booleans()):
        config = GeneratorConfig(seed=draw(st.integers(0, 10**6)))
        generated = generate_synthetic_scene(config, draw(st.integers(0, 50)))
        objects, captions = generated.objects, list(generated.captions)
    else:
        objects = draw(registries())
        clauses = st.lists(_PHRASES.filter(lambda p: "." not in p), min_size=2, max_size=3)
        captions = [
            " and ".join(f"{a} is on {b}" for a, b in zip(ps, ps[1:]))
            for ps in draw(st.lists(clauses, min_size=1, max_size=4))
        ]
    for _ in range(draw(st.integers(0, 2))):
        captions.insert(draw(st.integers(0, len(captions))), " ")
    return SceneRecord(scene_id="s", objects=tuple(objects), captions=tuple(captions))


def _triplets_or_error(parse):
    try:
        return parse()
    except CaptionError as exc:
        return type(exc), str(exc)


def _parse_each_caption_alone(record):
    registry = record.registry()
    return [
        t for caption in record.captions if caption.strip()
        for t in parse_caption(caption, registry)
    ]


@settings(max_examples=200, deadline=None)
@given(record=caption_records())
def test_record_index_parses_as_per_caption_registry(record):
    # One label index shared by a record's captions gives the triplets (or
    # the first error) that parsing each caption against the registry gives.
    assert _triplets_or_error(lambda: _scene_triplets(record)) == _triplets_or_error(
        lambda: _parse_each_caption_alone(record)
    )


def test_parse_caption_accepts_a_label_index(registry):
    caption = "The book is on the table. The cup and the pen are on the book."
    assert parse_caption(caption, LabelIndex(registry)) == parse_caption(caption, registry)


def test_parse_scales_linearly_in_caption_length():
    # 3 000 sentences, one distinct label per object. On a 2-vCPU host the
    # registry scan per reference took about 3 s here and the label index
    # about 60 ms, so the bound tolerates a loaded host and still catches a
    # return to O(n^2).
    n = 3000
    registry = [make_table()] + [
        make_object(f"thing{i}_1", label=f"thing{i}") for i in range(n)
    ]
    caption = " ".join(
        f"The thing{i} is on the {'table' if i == 0 else f'thing{i - 1}'}."
        for i in range(n)
    )
    start = time.perf_counter()
    result = parse_caption(caption, registry)
    elapsed = time.perf_counter() - start
    assert len(result) == n and result[-1].support == f"thing{n - 2}_1"
    assert elapsed < 0.5, f"parsing a {n}-sentence caption took {elapsed:.2f} s"
