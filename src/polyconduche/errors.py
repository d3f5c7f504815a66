"""Exception taxonomy shared across the package.

Every error that crosses a module boundary lives here so that callers (and the
CLI exit-code mapping) can catch one family.
"""

from __future__ import annotations


class PolyconducheError(Exception):
    """Base class for all package errors."""


class LexError(PolyconducheError):
    """Raised when the word lexer hits an unreadable character.

    position is the character offset into the input text.
    """

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.message = message


class NotWellParenthesized(PolyconducheError):
    pass


class NotComposite(PolyconducheError):
    """The word is an atom and has no top-level split."""


class BadOccurrence(PolyconducheError):
    """The given token span does not delimit the expected subword."""


class SchemaError(PolyconducheError):
    """A document or table references undeclared cells, or is malformed."""


class SettingError(PolyconducheError):
    """A setting taken from outside any document, such as an environment
    variable, has an unusable value."""


class LevelError(PolyconducheError):
    """A dimension or composition level is out of range."""


class NotWellFormed(PolyconducheError):
    """A word failed term formation.

    position is the token index of the leftmost failure; reason is one of
    "UnknownGenerator", "UnknownCell", "BoundaryMismatch", "LevelOutOfRange",
    "ShapeError". For boundary failures, level records the composition level.
    """

    def __init__(self, position: int, reason: str, message: str, level: int | None = None):
        super().__init__(f"{reason}: {message} (token {position})")
        self.position = position
        self.reason = reason
        self.message = message
        self.level = level


class BoundaryMismatch(PolyconducheError):
    """Two cells or terms that were required to share a boundary do not."""


class UndefinedComposite(PolyconducheError):
    """A composition-table lookup failed."""


class Stale(PolyconducheError):
    """A movement was applied to a word it was not enumerated from."""


class NotLiftable(PolyconducheError):
    """A movement could not be lifted; the Conduché hypothesis fails here."""


class NotSurjective(PolyconducheError):
    """A functor misses a cell that an image construction needs.

    Carries the level and one uncovered cell.
    """

    def __init__(self, level: int, cell: str):
        super().__init__(f"functor is not surjective at dimension {level}: {cell!r} has no preimage")
        self.level = level
        self.cell = cell


class UnknownObject(PolyconducheError):
    """The slice construction was asked for an object the category lacks."""
