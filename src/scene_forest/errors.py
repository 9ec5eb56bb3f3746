"""Exception hierarchy shared across the package."""
from __future__ import annotations


class SceneForestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLabel(SceneForestError):
    pass


class DomainError(SceneForestError):
    """An attribute value falls outside its controlled vocabulary."""


class UnknownId(SceneForestError):
    pass


# --- caption parsing ---------------------------------------------------------

class CaptionError(SceneForestError):
    """Parse failure carrying a character span into the source caption."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span


class UnknownObject(CaptionError):
    pass


class AmbiguousReference(CaptionError):
    pass


class MalformedSentence(CaptionError):
    pass


# --- reorganizer -------------------------------------------------------------

class UnsupportedTask(SceneForestError):
    pass


class BackendError(SceneForestError):
    pass


class InvalidGoal(SceneForestError):
    """A proposed goal tree is unusable: it re-roots the scene or is not a
    valid tree, or a remote reply does not parse or breaks conservation."""


class GoalParseError(SceneForestError):
    """Base for failures while reading a serialized goal-tree response."""


class NoTreeBlock(GoalParseError):
    pass


class MalformedIndentation(GoalParseError):
    pass


class MissingObject(GoalParseError):
    pass


class DuplicateObject(GoalParseError):
    pass


# --- planner -----------------------------------------------------------------

class IdMismatch(SceneForestError):
    pass


class RootMismatch(SceneForestError):
    pass


class PickNotClear(SceneForestError):
    pass


# --- dataset io --------------------------------------------------------------

class IoError(SceneForestError):
    pass


class SchemaError(SceneForestError):
    pass
