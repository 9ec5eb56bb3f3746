"""Rule-based parser turning spatial captions into support triplets.

The accepted grammar is closed: the only relations are "on" and "on top of",
clauses join with "and" / ";" / ".", and plural subjects ("X and Y are on Z")
are distributed. Matching is case-insensitive; determiners and adjectives
before a known label are ignored (the head noun is the last token of each
noun phrase).

A parse resolves every noun phrase against a `LabelIndex` of the registry
(each id's label, and each label's sorted ids) without rescanning the
registry, so parsing a caption costs O(caption length + registry size). A
caller parsing several captions over one registry builds the index once and
passes it in place of the registry.
"""
from __future__ import annotations

import re

from .errors import AmbiguousReference, InvalidLabel, MalformedSentence, UnknownObject
from .model import ObjectInstance, SpatialPredicate, SpatialTriplet, Value, canonicalize_id

_VERB_RE = re.compile(r"\b(is|are)\b", re.IGNORECASE)
_PRED_RE = re.compile(r"\s*on(\s+top\s+of)?\b", re.IGNORECASE)
_AND_RE = re.compile(r"\band\b", re.IGNORECASE)
_SENTENCE_RE = re.compile(r"[^.;]+")
_SPLIT_RE = re.compile(r"[\s,]+")

_DETERMINERS = {"the", "a", "an"}
_ORDINAL_WORDS = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "sixth": 6, "seventh": 7, "eighth": 8, "ninth": 9, "tenth": 10,
}


class ParseDiagnostic(Value):
    __slots__ = ("severity", "span", "message")

    def __init__(self, severity: str, span: tuple[int, int], message: str):
        set_severity, set_span, set_message = self._setters
        set_severity(self, severity)  # "warning"
        set_span(self, span)
        set_message(self, message)


class LabelIndex:
    """Each id's lowercased label and each lowercased label's sorted ids, built
    in one pass so that references resolve without rescanning the registry.
    Registry ids are unique (SceneRecord rejects duplicates)."""

    def __init__(self, registry: list[ObjectInstance]):
        self.label_of: dict[str, str] = {}
        self.by_label: dict[str, list[str]] = {}
        for o in registry:
            label = self.label_of[o.id] = o.label.lower()
            if label in self.by_label:
                self.by_label[label].append(o.id)
            else:
                self.by_label[label] = [o.id]
        for candidates in self.by_label.values():
            candidates.sort()

    def resolve(self, phrase: str) -> str:
        tokens = [t.strip(".,;:!?\"'") for t in _SPLIT_RE.split(phrase.strip().lower())]
        tokens = [t for t in tokens if t]
        while tokens and tokens[0] in _DETERMINERS:
            tokens.pop(0)
        ordinal = None
        if tokens and tokens[0] in _ORDINAL_WORDS:
            ordinal = _ORDINAL_WORDS[tokens.pop(0)]
        if not tokens:
            raise UnknownObject(f"empty reference in {phrase!r}")
        head = tokens[-1]

        if head in self.label_of:
            return head
        candidates = self.by_label.get(head)
        if not candidates:
            raise UnknownObject(f"no object matches {head!r}")
        if ordinal is not None:
            try:
                canonical = canonicalize_id(head, ordinal)
            except InvalidLabel:
                canonical = None
            if self.label_of.get(canonical) == head:
                return canonical
            if ordinal <= len(candidates):
                return candidates[ordinal - 1]
            raise UnknownObject(f"no {ordinal}-th object labeled {head!r}")
        if len(candidates) > 1:
            raise AmbiguousReference(
                f"{head!r} matches {len(candidates)} objects: {', '.join(candidates)}"
            )
        return candidates[0]


def resolve_reference(phrase: str, registry: list[ObjectInstance]) -> str:
    """Resolve a noun phrase to the unique matching registry id.

    The head noun is the last token after stripping determiners and
    punctuation. An exact id match wins; otherwise the label must match a
    single object, or carry an ordinal disambiguator ("the second cup").
    Indexes the registry on each call: O(n).
    """
    return LabelIndex(registry).resolve(phrase)


def _parse_clauses(sentence: str, base: int):
    """Yield (subject_phrases, predicate, object_phrase, span) per clause."""
    verbs = list(_VERB_RE.finditer(sentence))
    if not verbs:
        raise MalformedSentence(
            f"no supported relation in {sentence.strip()!r}",
            span=(base, base + len(sentence)),
        )
    clause_start = 0
    for i, verb in enumerate(verbs):
        subject_text = sentence[clause_start:verb.start()]
        pred = _PRED_RE.match(sentence, verb.end())
        if not pred:
            raise MalformedSentence(
                f"expected 'on' or 'on top of' after {verb.group(0)!r}",
                span=(base + verb.start(), base + verb.end()),
            )
        predicate = (
            SpatialPredicate.ON_TOP_OF if pred.group(1) else SpatialPredicate.ON
        )
        region_end = verbs[i + 1].start() if i + 1 < len(verbs) else len(sentence)
        region = sentence[pred.end():region_end]
        if i + 1 < len(verbs):
            # Object NPs never contain "and"; the first one starts the next clause.
            cut = _AND_RE.search(region)
            if not cut:
                raise MalformedSentence(
                    "missing clause boundary before next relation",
                    span=(base + pred.end(), base + region_end),
                )
            object_text = region[:cut.start()]
            clause_start = pred.end() + cut.end()
        else:
            object_text = region
        if verb.group(0).lower() == "are":
            subjects = [
                piece
                for part in _AND_RE.split(subject_text)
                for piece in part.split(",")
            ]
        else:
            subjects = [subject_text]
        subjects = [s.strip() for s in subjects if s.strip()]
        object_text = object_text.strip()
        if not subjects or not object_text:
            raise MalformedSentence(
                f"incomplete relation in {sentence.strip()!r}",
                span=(base + verb.start(), base + verb.end()),
            )
        span = (base + verb.start(), base + min(region_end, len(sentence)))
        yield subjects, predicate, object_text, span


def parse_caption(
    caption: str,
    registry: list[ObjectInstance] | LabelIndex,
    warnings: list[ParseDiagnostic] | None = None,
) -> list[SpatialTriplet]:
    """Parse a caption into support triplets, in textual order.

    `registry` is the scene's objects or a `LabelIndex` built from them.
    Duplicate relations within one caption are deduplicated, each with a
    warning appended to `warnings` when the caller passes a list. Errors
    (unknown object, ambiguous reference, malformed sentence) raise.
    """
    if not caption.strip():
        raise MalformedSentence("caption is empty", span=(0, len(caption)))
    triplets: list[SpatialTriplet] = []
    seen: set[tuple[str, str]] = set()
    index = registry if isinstance(registry, LabelIndex) else LabelIndex(registry)
    for sentence_match in _SENTENCE_RE.finditer(caption):
        sentence = sentence_match.group(0)
        if not sentence.strip():
            continue
        base = sentence_match.start()
        for subjects, predicate, object_text, span in _parse_clauses(sentence, base):
            support = index.resolve(object_text)
            for subject_phrase in subjects:
                subject = index.resolve(subject_phrase)
                if subject == support:
                    raise MalformedSentence(
                        f"{subject!r} cannot rest on itself", span=span
                    )
                key = (subject, support)
                if key in seen:
                    if warnings is not None:
                        warnings.append(
                            ParseDiagnostic(
                                "warning", span, f"duplicate relation {subject} -> {support}"
                            )
                        )
                    continue
                seen.add(key)
                triplets.append(SpatialTriplet(subject, predicate, support))
    return triplets
