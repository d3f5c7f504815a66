"""Word calculus: tokens, lexing, parenthesis profiles, and top-level splits.

Words are flat sequences of five token kinds: parentheses, composition symbols
"*k", generator atoms "c:name" and identity atoms "i:name". Concrete syntax is
whitespace-insensitive and round-trips through serialize/tokenize as long as
cell names stay inside the identifier grammar [A-Za-z_][A-Za-z0-9_]*.
Constructed categories (slices, pullbacks) may use pair-encoded names such as
"u|id_y"; words over those are built and compared as token tuples and still
serialize for display, but the serialized text is not re-lexable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BadOccurrence, LexError, NotComposite, NotWellParenthesized

LPAREN_KIND = "("
RPAREN_KIND = ")"
COMP_KIND = "*"
GEN_KIND = "c"
ID_KIND = "i"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The spelling of each token, by the ordinal of its code.
SPELLINGS: dict[int, str] = {}


@dataclass(frozen=True, slots=True, eq=False)
class SymbolToken:
    """One alphabet symbol. value is the generator/cell name or the level.

    Each symbol has exactly one token object (LPAREN, RPAREN and the cached
    constructors below), so tokens compare and hash by identity, and each
    spells its text once. Each also gets a one-character code, distinct
    from every other token's, so that a word's codes joined are a str that
    stands for it: SPELLINGS maps each code's ordinal to the token's
    spelling, and str.translate with it turns such a key into the word's
    serialization.
    """

    kind: str
    value: str | int | None = None
    spelling: str = field(init=False, repr=False)
    code: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind in (LPAREN_KIND, RPAREN_KIND):
            spelling = self.kind
        elif self.kind == COMP_KIND:
            spelling = f"*{self.value}"
        else:
            spelling = f"{self.kind}:{self.value}"
        code = chr(len(SPELLINGS))
        SPELLINGS[ord(code)] = spelling
        object.__setattr__(self, "spelling", spelling)
        object.__setattr__(self, "code", code)

    def text(self) -> str:
        return self.spelling


LPAREN = SymbolToken(LPAREN_KIND)
RPAREN = SymbolToken(RPAREN_KIND)


@lru_cache(maxsize=None)
def comp(level: int) -> SymbolToken:
    return SymbolToken(COMP_KIND, level)


@lru_cache(maxsize=None)
def gen(name: str) -> SymbolToken:
    return SymbolToken(GEN_KIND, name)


@lru_cache(maxsize=None)
def ident_of(cell: str) -> SymbolToken:
    return SymbolToken(ID_KIND, cell)


@dataclass(frozen=True, slots=True)
class Word:
    """An immutable token sequence."""

    tokens: tuple[SymbolToken, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, index: int) -> SymbolToken:
        return self.tokens[index]

    def sub(self, start: int, end: int) -> "Word":
        return Word(self.tokens[start:end])


@dataclass(frozen=True, slots=True)
class ParenProfile:
    """Running parenthesis count after each token."""

    values: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Whole:
    pass


@dataclass(frozen=True, slots=True)
class InsideLeft:
    offset: int


@dataclass(frozen=True, slots=True)
class InsideRight:
    offset: int


def tokenize(text: str) -> Word:
    """Lex concrete syntax into a Word. Raises LexError with a position."""
    tokens: list[SymbolToken] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(LPAREN)
            i += 1
            continue
        if ch == ")":
            tokens.append(RPAREN)
            i += 1
            continue
        if ch == "*":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise LexError(i, "expected a level after '*'")
            tokens.append(comp(int(text[i + 1 : j])))
            i = j
            continue
        if ch in ("c", "i") and i + 1 < n and text[i + 1] == ":":
            m = _IDENT_RE.match(text, i + 2)
            if m is None:
                raise LexError(i, f"expected an identifier after '{ch}:'")
            tokens.append(gen(m.group()) if ch == "c" else ident_of(m.group()))
            i = m.end()
            continue
        raise LexError(i, f"unexpected character {ch!r}")
    return Word(tuple(tokens))


def serialize(word: Word) -> str:
    """Concrete syntax for a word.

    Only round-trips through tokenize when every cell name fits the
    identifier grammar; constructed names ("x|y", "1x") are display-only.
    """
    return "".join([t.spelling for t in word.tokens])


def paren_profile(word: Word) -> ParenProfile:
    values = []
    depth = 0
    for t in word.tokens:
        if t is LPAREN:
            depth += 1
        elif t is RPAREN:
            depth -= 1
        values.append(depth)
    return ParenProfile(tuple(values))


def is_well_parenthesized(word: Word) -> bool:
    """Non-empty, profile never negative, and zero exactly at the last token."""
    tokens = word.tokens
    if not tokens:
        return False
    depth = 0
    last = len(tokens) - 1
    for i, t in enumerate(tokens):
        if t is LPAREN:
            depth += 1
        elif t is RPAREN:
            depth -= 1
            if depth < 0:
                return False
        if depth == 0 and i != last:
            return False
    return depth == 0


def is_atom(word: Word) -> bool:
    return (
        len(word) == 3
        and word[0] is LPAREN
        and word[1].kind in (GEN_KIND, ID_KIND)
        and word[2] is RPAREN
    )


def split_parenthesized(word: Word) -> tuple[Word, int, Word]:
    """Split "(w1 *k w2)" into (w1, k, w2).

    The splitting composition symbol is the unique one at depth 1; it sits
    right after the prefix of the interior whose profile first returns to
    zero. Raises NotComposite on atoms, NotWellParenthesized on anything
    else that is not a two-sided composite.
    """
    if not is_well_parenthesized(word):
        raise NotWellParenthesized(f"cannot split {serialize(word)!r}")
    if is_atom(word):
        raise NotComposite(f"{serialize(word)!r} is an atom")
    # Interior spans tokens[1:-1]; find where its running profile hits zero.
    tokens = word.tokens
    depth = 0
    split_at = None
    for i in range(1, len(tokens) - 1):
        t = tokens[i]
        if t is LPAREN:
            depth += 1
        elif t is RPAREN:
            depth -= 1
        if depth == 0:
            split_at = i
            break
    if split_at is None:
        raise NotWellParenthesized(f"no top-level split in {serialize(word)!r}")
    left = word.sub(1, split_at + 1)
    comp_tok = word[split_at + 1] if split_at + 1 < len(word) - 1 else None
    right = word.sub(split_at + 2, len(word) - 1)
    if (
        comp_tok is None
        or comp_tok.kind != COMP_KIND
        or not is_well_parenthesized(left)
        or not is_well_parenthesized(right)
    ):
        raise NotWellParenthesized(f"no top-level split in {serialize(word)!r}")
    return left, int(comp_tok.value), right


def parenthesized_subword_trichotomy(word: Word, occurrence: tuple[int, int]):
    """Locate a balanced subword of a composite: Whole, InsideLeft or InsideRight.

    occurrence is a half-open token span (start, end). A balanced subword of
    "(w1 *k w2)" is the whole word, inside w1, or inside w2; it can never
    straddle the splitting symbol. Offsets are relative to the factor.
    """
    left, _, right = split_parenthesized(word)
    start, end = occurrence
    if not (0 <= start < end <= len(word)):
        raise BadOccurrence(f"span {occurrence} out of range")
    if not is_well_parenthesized(word.sub(start, end)):
        raise BadOccurrence(f"span {occurrence} is not a balanced subword")
    if start == 0 and end == len(word):
        return Whole()
    left_end = 1 + len(left)  # one past w1
    right_start = left_end + 1  # skip the composition symbol
    if 1 <= start and end <= left_end:
        return InsideLeft(start - 1)
    if right_start <= start and end <= len(word) - 1:
        return InsideRight(start - right_start)
    raise AssertionError("balanced subword straddles the top-level split")
