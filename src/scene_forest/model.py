"""Core domain types: objects, attributes, triplets, trees, tasks, and plans.

All types are immutable values after construction and safe to share between
concurrent workers.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import DomainError, InvalidLabel

FRAGILITY_LEVELS = ("low", "medium", "high")
TRANSPARENCY_LEVELS = ("opaque", "translucent", "transparent")
MATERIALS = ("wood", "metal", "glass", "plastic", "ceramic", "paper", "fabric", "other")

_ID_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_NON_ID_RUN_RE = re.compile(r"[^a-z0-9]+")


def fragility_rank(level: str) -> int:
    """Ordinal position of a fragility level (low < medium < high)."""
    return FRAGILITY_LEVELS.index(level)


def canonicalize_id(label: str, ordinal: int) -> str:
    """Derive the deterministic object id `<lowercased-label>_<ordinal>`.

    Idempotent for identical inputs; raises InvalidLabel when the label
    cannot be reduced to a well-formed id token.
    """
    if ordinal < 1:
        raise InvalidLabel(f"ordinal must be positive, got {ordinal}")
    token = _NON_ID_RUN_RE.sub("_", label.strip().lower()).strip("_")
    candidate = f"{token}_{ordinal}"
    if not token or not _ID_RE.match(candidate):
        raise InvalidLabel(f"label {label!r} yields no valid id")
    return candidate


def _short_repr(value, limit: int = 40) -> str:
    """repr of `value`, cut to `limit` characters plus an ellipsis."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "…"


@dataclass(frozen=True)
class AttributeSet:
    fragility: str
    mass_grams: float
    material: str
    transparency: str

    def __post_init__(self):
        if self.fragility not in FRAGILITY_LEVELS:
            raise DomainError(
                f"fragility {_short_repr(self.fragility)} not in {FRAGILITY_LEVELS}"
            )
        if self.material not in MATERIALS:
            raise DomainError(f"material {_short_repr(self.material)} not in {MATERIALS}")
        if self.transparency not in TRANSPARENCY_LEVELS:
            raise DomainError(
                f"transparency {_short_repr(self.transparency)} not in {TRANSPARENCY_LEVELS}"
            )
        mass = self.mass_grams
        # Exact comparison: rejects NaN, infinities and ints too large for a float.
        if not isinstance(mass, (int, float)) or not 0 < mass <= sys.float_info.max:
            raise DomainError(f"mass_grams must be positive and finite, got {_short_repr(mass)}")


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    label: str
    attributes: AttributeSet

    def __post_init__(self):
        if not _ID_RE.match(self.id):
            raise DomainError(f"malformed object id {self.id!r}")
        if not self.label:
            raise DomainError("object label must be non-empty")


class SpatialPredicate(Enum):
    ON = "on"
    ON_TOP_OF = "on_top_of"

    @classmethod
    def from_token(cls, token: str) -> "SpatialPredicate":
        try:
            return _PREDICATE_BY_TOKEN[token]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise DomainError(f"unknown predicate token {token!r}") from None


_PREDICATE_BY_TOKEN = {member.value: member for member in SpatialPredicate}


@dataclass(frozen=True)
class SpatialTriplet:
    subject: str
    predicate: SpatialPredicate
    support: str

    def __post_init__(self):
        if self.subject == self.support:
            raise DomainError(f"object {self.subject!r} cannot support itself")


@dataclass(frozen=True)
class SceneTree:
    """Validated support hierarchy: root surface plus a single-parent map.

    `parent` maps every non-root id to the id it rests on. Children are
    derived, ordered lexicographically for deterministic traversal, and
    indexed once on first use: a tree's maps must not be mutated after
    that. The index is not a field, so equality and repr ignore it.
    """

    root: str
    nodes: dict[str, ObjectInstance]
    parent: dict[str, str]

    @cached_property
    def _children(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = {}
        for child, support in self.parent.items():
            index.setdefault(support, []).append(child)
        for kids in index.values():
            kids.sort()
        return index

    def children_of(self, node_id: str) -> list[str]:
        return list(self._children.get(node_id, ()))

    def ids(self) -> set[str]:
        return set(self.nodes)

    def preorder(self) -> list[str]:
        out: list[str] = []
        stack = [self.root]
        children = self._children
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(children.get(node, ())))
        return out


class TaskKind(Enum):
    STACK_ALL = "stack_all"
    STACK_OBJECT = "stack_object"
    UNSTACK_ALL = "unstack_all"
    GROUP_BY_MATERIAL = "group_by_material"
    FREE_TEXT = "free_text"


@dataclass(frozen=True)
class TaskSpec:
    kind: TaskKind
    raw_prompt: str
    target: str | None = None

    def __post_init__(self):
        if self.kind is TaskKind.STACK_OBJECT and not self.target:
            raise DomainError("stack-object task requires a target id")


@dataclass(frozen=True)
class MoveAction:
    object: str
    destination: str

    def __post_init__(self):
        if self.object == self.destination:
            raise DomainError(f"move of {self.object!r} onto itself")


@dataclass(frozen=True)
class Plan:
    moves: tuple[MoveAction, ...]

    def __len__(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        return "".join(f"MOVE {m.object} ONTO {m.destination}\n" for m in self.moves)


@dataclass(frozen=True)
class SceneRecord:
    scene_id: str
    objects: tuple[ObjectInstance, ...]
    captions: tuple[str, ...]
    triplets: tuple[SpatialTriplet, ...] | None = None

    def __post_init__(self):
        ids = [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise DomainError(f"duplicate object ids in scene {self.scene_id!r}")
        if self.triplets is not None:
            known = set(ids)
            for t in self.triplets:
                if t.subject not in known or t.support not in known:
                    raise DomainError(
                        f"triplet ({t.subject}, {t.support}) references undeclared id"
                    )
