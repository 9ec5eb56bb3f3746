"""Core domain types: objects, attributes, triplets, trees, tasks, and plans.

All types are immutable values after construction and safe to share between
concurrent workers. Each is a plain `__slots__` class on `Value`: its
`__init__` checks the arguments and sets each slot once through the slot's
descriptor, and `Value.__setattr__` and `__delattr__` raise `AttributeError`
on any later assignment or deletion. A value has no instance `__dict__`.

Two values are equal when they are of the same class and their fields are
equal, so a value never equals a tuple of its fields. Equal values hash
alike; a value holding a dict (a `SceneTree`) is unhashable.

The record loader, `dataset.record_from_dict`, makes each constructor's
checks itself and builds a value that passes them through `object.__new__`
and the class's `_setters`; one that fails goes to its constructor to raise.
"""
from __future__ import annotations

import re
import sys
from enum import Enum

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


class Value:
    """Base of the immutable value types.

    A subclass names its slots in `__slots__`, in constructor order. Slots
    whose names start with `_` hold data derived from the fields; the
    others are the fields, which equality, hashing, repr and pickling use.
    `_setters` holds each slot descriptor's `__set__`, in slot order, for
    the subclass's `__init__`. A subclass that declares no slots keeps its
    base's fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        if slots:
            cls._fields = tuple(name for name in slots if not name.startswith("_"))
            cls._setters = tuple(getattr(cls, name).__set__ for name in slots)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class AttributeSet(Value):
    __slots__ = ("fragility", "mass_grams", "material", "transparency")

    def __init__(self, fragility: str, mass_grams: float, material: str, transparency: str):
        if fragility not in FRAGILITY_LEVELS:
            raise DomainError(
                f"fragility {_short_repr(fragility)} not in {FRAGILITY_LEVELS}"
            )
        if material not in MATERIALS:
            raise DomainError(f"material {_short_repr(material)} not in {MATERIALS}")
        if transparency not in TRANSPARENCY_LEVELS:
            raise DomainError(
                f"transparency {_short_repr(transparency)} not in {TRANSPARENCY_LEVELS}"
            )
        # Exact comparison: rejects NaN, infinities and ints too large for a
        # float. A bool is no mass: the record loader rejects it too.
        if (
            not isinstance(mass_grams, (int, float)) or isinstance(mass_grams, bool)
            or not 0 < mass_grams <= sys.float_info.max
        ):
            raise DomainError(
                f"mass_grams must be positive and finite, got {_short_repr(mass_grams)}"
            )
        set_fragility, set_mass, set_material, set_transparency = self._setters
        set_fragility(self, fragility)
        set_mass(self, mass_grams)
        set_material(self, material)
        set_transparency(self, transparency)


class ObjectInstance(Value):
    __slots__ = ("id", "label", "attributes")

    def __init__(self, id: str, label: str, attributes: AttributeSet):
        if not _ID_RE.match(id):
            raise DomainError(f"malformed object id {id!r}")
        if not label:
            raise DomainError("object label must be non-empty")
        set_id, set_label, set_attributes = self._setters
        set_id(self, id)
        set_label(self, label)
        set_attributes(self, attributes)


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


class SpatialTriplet(Value):
    __slots__ = ("subject", "predicate", "support")

    def __init__(self, subject: str, predicate: SpatialPredicate, support: str):
        if subject == support:
            raise DomainError(f"object {subject!r} cannot support itself")
        set_subject, set_predicate, set_support = self._setters
        set_subject(self, subject)
        set_predicate(self, predicate)
        set_support(self, support)


class SceneTree(Value):
    """Validated support hierarchy: root surface plus a single-parent map.

    `parent` maps every non-root id to the id it rests on. Children are
    derived, ordered lexicographically for deterministic traversal, and
    indexed once on first use: a tree's maps must not be mutated after
    that. The index is not a field, so equality, hash and repr ignore it.
    """

    __slots__ = ("root", "nodes", "parent", "_index")

    def __init__(self, root: str, nodes: dict[str, ObjectInstance], parent: dict[str, str]):
        set_root, set_nodes, set_parent, set_index = self._setters
        set_root(self, root)
        set_nodes(self, nodes)
        set_parent(self, parent)
        set_index(self, None)

    @property
    def _children(self) -> dict[str, list[str]]:
        index = self._index
        if index is None:
            index = {}
            for child, support in self.parent.items():
                index.setdefault(support, []).append(child)
            for kids in index.values():
                kids.sort()
            SceneTree._index.__set__(self, index)
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


class TaskSpec(Value):
    __slots__ = ("kind", "raw_prompt", "target")

    def __init__(self, kind: TaskKind, raw_prompt: str, target: str | None = None):
        if kind is TaskKind.STACK_OBJECT and not target:
            raise DomainError("stack-object task requires a target id")
        set_kind, set_raw_prompt, set_target = self._setters
        set_kind(self, kind)
        set_raw_prompt(self, raw_prompt)
        set_target(self, target)


class MoveAction(Value):
    __slots__ = ("object", "destination")

    def __init__(self, object: str, destination: str):
        if object == destination:
            raise DomainError(f"move of {object!r} onto itself")
        set_object, set_destination = self._setters
        set_object(self, object)
        set_destination(self, destination)


class Plan(Value):
    __slots__ = ("moves",)

    def __init__(self, moves: tuple[MoveAction, ...]):
        self._setters[0](self, moves)

    def __len__(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        return "".join(f"MOVE {m.object} ONTO {m.destination}\n" for m in self.moves)


class SceneRecord(Value):
    __slots__ = ("scene_id", "objects", "captions", "triplets")

    def __init__(
        self,
        scene_id: str,
        objects: tuple[ObjectInstance, ...],
        captions: tuple[str, ...],
        triplets: tuple[SpatialTriplet, ...] | None = None,
    ):
        known = {o.id for o in objects}
        if len(known) != len(objects):
            raise DomainError(f"duplicate object ids in scene {scene_id!r}")
        if triplets is not None:
            for t in triplets:
                if t.subject not in known or t.support not in known:
                    raise DomainError(
                        f"triplet ({t.subject}, {t.support}) references undeclared id"
                    )
        set_scene_id, set_objects, set_captions, set_triplets = self._setters
        set_scene_id(self, scene_id)
        set_objects(self, objects)
        set_captions(self, captions)
        set_triplets(self, triplets)
