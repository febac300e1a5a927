"""Configurations: points of the generalized shift space.

A configuration assigns 0/1 to reduced words of the free group generated by
the alphabet, subject to the local rules (filled at the identity, convex,
at most one forward extension, and the matrix-compatibility rule for
inverse letters).  Every configuration is determined by

* a finite stem plus a root drawn from the matrix's accumulation-column
  catalog (bounded case), or
* an infinite admissible sequence, represented here as an eventually
  periodic preperiod/period pair (unbounded case).

Only group words of the shape ``alpha * beta^{-1}`` with positive parts can
be filled; anything else evaluates to 0 and is modeled by the ``VANISHING``
marker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .matrices import AccumulationColumn, IntegerInterval, Symbol, TransitionMatrix
from .words import Word, backward_words, format_word, is_admissible, is_prefix


class _Vanishing:
    """Group words not of the form alpha * beta^{-1}; they evaluate to 0."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "VANISHING"


VANISHING = _Vanishing()


@dataclass(frozen=True)
class GroupWord:
    """Free-group word ``pos * neg^{-1}``, reduced on construction.

    ``neg`` is stored unreversed: the written word is
    ``pos[0] ... pos[-1] neg[-1]^{-1} ... neg[0]^{-1}``.  Matching letters at
    the junction cancel, so ``pos[-1] != neg[-1]`` afterwards.
    """

    pos: Word = ()
    neg: Word = ()

    def __post_init__(self) -> None:
        pos, neg = self.pos, self.neg
        while pos and neg and pos[-1] == neg[-1]:
            pos, neg = pos[:-1], neg[:-1]
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        if any(s < 1 for s in self.pos + self.neg):
            raise ValueError("symbols are positive integers")

    def times_gen(self, y: Symbol) -> Union["GroupWord", _Vanishing]:
        """Right-multiply by the generator y and reduce."""
        if not self.neg:
            return GroupWord(self.pos + (y,), ())
        if self.neg[0] == y:
            return GroupWord(self.pos, self.neg[1:])
        return VANISHING

    def times_inv(self, x: Symbol) -> "GroupWord":
        """Right-multiply by the inverse generator x^{-1} and reduce."""
        if not self.neg and self.pos and self.pos[-1] == x:
            return GroupWord(self.pos[:-1], ())
        return GroupWord(self.pos, (x,) + self.neg)

    def parent(self) -> Union["GroupWord", None]:
        """The word with its last written letter removed; None at the identity."""
        if self.neg:
            return GroupWord(self.pos, self.neg[1:])
        if self.pos:
            return GroupWord(self.pos[:-1], ())
        return None

    def __repr__(self) -> str:
        if not self.pos and not self.neg:
            return "e"
        parts = [format_word(self.pos)] if self.pos else []
        if self.neg:
            parts.append(f"({format_word(self.neg)})^-1")
        return "*".join(parts)


GroupWordLike = Union[GroupWord, _Vanishing]

IDENTITY = GroupWord()


@dataclass(frozen=True)
class BoundedConfig:
    """Finite-stem configuration: admissible stem plus catalog root."""

    matrix: TransitionMatrix
    stem: Word
    root: AccumulationColumn

    def __post_init__(self) -> None:
        if self.root not in self.matrix.accumulation_catalog:
            raise ValueError(f"root {self.root.id} not in catalog of {self.matrix.kind}")
        if not is_admissible(self.matrix, self.stem):
            raise ValueError(f"stem {format_word(self.stem)} is not admissible")
        if self.stem:
            last = self.stem[-1]
            if last not in self.root.allowed_terminal_symbols:
                raise ValueError(
                    f"stem may not end in {last} for accumulation column {self.root.id}")

    @property
    def bounded(self) -> bool:
        return True

    def symbol_at(self, i: int) -> Symbol | None:
        return self.stem[i] if i < len(self.stem) else None

    def has_prefix(self, w: Word) -> bool:
        return is_prefix(w, self.stem)

    def eval(self, g: GroupWordLike) -> int:
        if g is VANISHING:
            return 0
        assert isinstance(g, GroupWord)
        alpha, beta = g.pos, g.neg
        if not beta:
            return 1 if is_prefix(alpha, self.stem) else 0
        if not is_admissible(self.matrix, beta):
            return 0
        b_last = beta[-1]
        if alpha == self.stem:
            return 1 if b_last in self.root.support else 0
        if is_prefix(alpha, self.stem):
            # alpha is a strict prefix; the next stem symbol constrains b_last
            return 1 if self.matrix.entry(b_last, self.stem[len(alpha)]) == 1 else 0
        return 0

    def __repr__(self) -> str:
        return f"<stem={format_word(self.stem)};root={self.root.id}>"


@dataclass(frozen=True)
class UnboundedConfig:
    """Eventually periodic point of the sequence space, ``pre (per)^inf``."""

    matrix: TransitionMatrix
    preperiod: Word
    period: Word

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be non-empty")
        w = self.preperiod + self.period
        if not is_admissible(self.matrix, w):
            raise ValueError("preperiod + period is not admissible")
        if self.matrix.entry(self.period[-1], self.period[0]) != 1:
            raise ValueError("period does not close up")
        pre, per = _canonical_eventually_periodic(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @property
    def bounded(self) -> bool:
        return False

    def symbol_at(self, i: int) -> Symbol:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        return tuple(self.symbol_at(i) for i in range(n))

    def has_prefix(self, w: Word) -> bool:
        return all(self.symbol_at(i) == s for i, s in enumerate(w))

    def eval(self, g: GroupWordLike) -> int:
        if g is VANISHING:
            return 0
        assert isinstance(g, GroupWord)
        alpha, beta = g.pos, g.neg
        if not self.has_prefix(alpha):
            return 0
        if not beta:
            return 1
        if not is_admissible(self.matrix, beta):
            return 0
        return 1 if self.matrix.entry(beta[-1], self.symbol_at(len(alpha))) == 1 else 0

    def __repr__(self) -> str:
        return f"<pre={format_word(self.preperiod)};per={format_word(self.period)}>"


Configuration = Union[BoundedConfig, UnboundedConfig]


def _primitive(w: Word) -> Word:
    for d in range(1, len(w) + 1):
        if len(w) % d == 0 and w == w[:d] * (len(w) // d):
            return w[:d]
    return w


def _canonical_eventually_periodic(pre: Word, per: Word) -> tuple[Word, Word]:
    per = _primitive(per)
    pre = list(pre)
    per = list(per)
    while pre and pre[-1] == per[-1]:
        per = [per[-1]] + per[:-1]
        pre.pop()
    return tuple(pre), tuple(per)


def bounded(A: TransitionMatrix, stem: Word, root_id: int) -> BoundedConfig:
    return BoundedConfig(A, stem, A.column_by_id(root_id))


def empty_stem_config(A: TransitionMatrix, root_id: int) -> BoundedConfig:
    return BoundedConfig(A, (), A.column_by_id(root_id))


def unbounded(A: TransitionMatrix, preperiod: Word, period: Word) -> UnboundedConfig:
    return UnboundedConfig(A, preperiod, period)


def parse_config(A: TransitionMatrix, text: str) -> Configuration:
    """Parse textual literals ``stem=3.2.1;root=1`` and ``pre=;per=1``."""
    fields = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        fields[key.strip()] = value.strip()
    if "stem" in fields:
        from .words import word as parse_word
        return bounded(A, parse_word(fields["stem"]), int(fields.get("root", "1")))
    if "per" in fields:
        from .words import word as parse_word
        return unbounded(A, parse_word(fields.get("pre", "")), parse_word(fields["per"]))
    raise ValueError(f"cannot parse configuration literal {text!r}")


class EmptyStemError(ValueError):
    """The shift map is undefined on empty-stem configurations."""


def shift(c: Configuration) -> Configuration:
    """Drop the first stem symbol; the root is preserved."""
    if isinstance(c, BoundedConfig):
        if not c.stem:
            raise EmptyStemError("shift is undefined on an empty stem")
        return BoundedConfig(c.matrix, c.stem[1:], c.root)
    if c.preperiod:
        return UnboundedConfig(c.matrix, c.preperiod[1:], c.period)
    per = c.period
    return UnboundedConfig(c.matrix, (), per[1:] + per[:1])


def shift_n(c: Configuration, n: int) -> Configuration:
    for _ in range(n):
        c = shift(c)
    return c


def family_of(c: BoundedConfig) -> int:
    """Identifier of the boundary family the configuration belongs to."""
    return c.root.id


def preimages(c: BoundedConfig, n: int) -> list[BoundedConfig]:
    """All configurations mapped onto ``c`` by n applications of the shift.

    Exact on the built-in kinds: column supports are finite and the first
    prepended symbol of an empty stem is constrained by the root's terminal
    set.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    A = c.matrix
    seeds = A.predecessors(c.stem[0]) if c.stem else c.root.allowed_terminal_symbols
    stems = sorted(head + c.stem for head in backward_words(A, n, seeds))
    return [BoundedConfig(A, w, c.root) for w in stems]


def count_preimages_closed_form(A: TransitionMatrix, family_id: int,
                                n: int) -> int | IntegerInterval:
    """Closed-form (or interval) size of the n-th preimage generation."""
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = A.spec.counts if A.spec is not None else None
    if counts is None:
        raise ValueError(f"no closed-form preimage count for kind {A.kind}")
    return counts(family_id, n)


@dataclass
class RulesReport:
    ok: bool
    violated: str | None = None
    witness: GroupWord | None = None

    def __bool__(self) -> bool:
        return self.ok


def _group_words_up_to(depth: int, symbol_bound: int) -> Iterable[GroupWord]:
    """All pos/neg words with |pos| + |neg| <= depth over bounded symbols."""
    def words_up_to(max_len: int) -> list[Word]:
        out: list[Word] = [()]
        layer: list[Word] = [()]
        for _ in range(max_len):
            layer = [w + (s,) for w in layer for s in range(1, symbol_bound + 1)]
            out.extend(layer)
        return out

    for pos in words_up_to(depth):
        for neg in words_up_to(depth - len(pos)):
            if pos and neg and pos[-1] == neg[-1]:
                continue
            yield GroupWord(pos, neg)


def rules_check(c: Configuration, depth: int, symbol_bound: int | None = None) -> RulesReport:
    """Verify the defining local rules on all group words up to ``depth``.

    Checks, in order: filled at the identity; convexity (every filled word
    has its parent filled); at most one forward extension of any filled
    word; and the matrix-compatibility equivalence for inverse letters.
    Words range over symbols up to ``symbol_bound`` (default: ``depth``).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    bound = symbol_bound if symbol_bound is not None else depth
    if c.eval(IDENTITY) != 1:
        return RulesReport(False, "R1", IDENTITY)
    filled = [g for g in _group_words_up_to(depth, bound) if c.eval(g) == 1]
    for g in filled:
        parent = g.parent()
        if parent is not None and c.eval(parent) != 1:
            return RulesReport(False, "R2", g)
    for g in filled:
        extensions = [y for y in range(1, bound + 1) if c.eval(g.times_gen(y)) == 1]
        if len(extensions) > 1:
            return RulesReport(False, "R3", g)
        if len(extensions) == 1:
            y = extensions[0]
            A = c.matrix
            for x in range(1, bound + 1):
                lhs = c.eval(g.times_inv(x))
                if lhs != A.entry(x, y):
                    return RulesReport(False, "R4", g.times_inv(x))
    return RulesReport(True)
