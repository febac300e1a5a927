"""Configurations: points of the generalized shift space.

A configuration assigns 0/1 to reduced words of the free group generated by
the alphabet.  Every configuration is determined by

* a finite stem plus a root drawn from the matrix's accumulation-column
  catalog (bounded case), or
* an infinite admissible sequence, represented here as an eventually
  periodic preperiod/period pair (unbounded case).

Only group words of the shape ``alpha * beta^{-1}`` with positive parts can
be filled, so ``GroupWord`` holds exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .matrices import AccumulationColumn, IntegerInterval, Symbol, TransitionMatrix
from .words import Word, backward_words, format_word, is_admissible, is_prefix, missing_edge


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

    def __repr__(self) -> str:
        if not self.pos and not self.neg:
            return "e"
        parts = [format_word(self.pos)] if self.pos else []
        if self.neg:
            parts.append(f"({format_word(self.neg)})^-1")
        return "*".join(parts)


def _eval(c: Configuration, g: GroupWord) -> int:
    """Value at ``alpha beta^{-1}`` of either kind of point (each binds this as
    ``eval``): 1 iff ``alpha`` is a prefix and ``beta`` is empty, or admissible
    with a last letter that may precede the letter after ``alpha``; past a
    bounded stem there is none, and the root's letter set names those letters."""
    alpha, beta = g.pos, g.neg
    if not c.has_prefix(alpha):
        return 0
    if not beta:
        return 1
    if not is_admissible(c.matrix, beta):
        return 0
    nxt = c.symbol_at(len(alpha))
    if nxt is None:
        return 1 if beta[-1] in c.root.allowed_terminal_symbols else 0
    return 1 if c.matrix.entry(beta[-1], nxt) == 1 else 0


@dataclass(frozen=True)
class BoundedConfig:
    """Finite-stem configuration: admissible stem plus catalog root.

    Slotted, with no instance dict: ``preimages`` builds thousands of these,
    and ``_hash`` is set on the first ``hash`` only."""

    __slots__ = ("matrix", "stem", "root", "_hash")

    matrix: TransitionMatrix
    stem: Word
    root: AccumulationColumn

    def __post_init__(self) -> None:
        if self.root not in self.matrix.accumulation_catalog:
            raise ValueError(f"root {self.root.id} not in catalog of {self.matrix.kind}")
        if not is_admissible(self.matrix, self.stem):
            raise ValueError(f"stem {format_word(self.stem)} is not admissible: "
                             f"{missing_edge(self.matrix, self.stem)}")
        if self.stem:
            last = self.stem[-1]
            if last not in self.root.allowed_terminal_symbols:
                raise ValueError(
                    f"stem may not end in {last} for accumulation column {self.root.id}")

    def __hash__(self) -> int:
        # equal configurations have equal stems and roots; the matrix and the
        # root's letter set need not be hashed.  Kept from the first call, not
        # taken when built: most of the points preimages builds are never hashed
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.stem, self.root.id)))
            return self._hash

    def symbol_at(self, i: int) -> Symbol | None:
        return self.stem[i] if i < len(self.stem) else None

    def has_prefix(self, w: Word) -> bool:
        return is_prefix(w, self.stem)

    eval = _eval

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
            edge = missing_edge(self.matrix, w)
            raise ValueError(f"preperiod + period is not admissible: {edge}")
        if self.matrix.entry(self.period[-1], self.period[0]) != 1:
            edge = missing_edge(self.matrix, (self.period[-1], self.period[0]))
            raise ValueError(f"period does not close up: {edge}")
        pre, per = _canonical_eventually_periodic(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def symbol_at(self, i: int) -> Symbol:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def has_prefix(self, w: Word) -> bool:
        return all(self.symbol_at(i) == s for i, s in enumerate(w))

    eval = _eval

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


_set_matrix = BoundedConfig.matrix.__set__
_set_stem = BoundedConfig.stem.__set__
_set_root = BoundedConfig.root.__set__


def _config(A: TransitionMatrix, stem: Word, root: AccumulationColumn) -> BoundedConfig:
    """A ``BoundedConfig`` built without its constructor's checks; the caller
    has made them.  Its three fields are stored through their slot
    descriptors, as ``object.__setattr__`` does past the frozen class's
    ``__setattr__``, without the attribute lookup by name."""
    c = object.__new__(BoundedConfig)
    _set_matrix(c, A)
    _set_stem(c, stem)
    _set_root(c, root)
    return c


def preimages(c: BoundedConfig, n: int) -> list[BoundedConfig]:
    """All configurations mapped onto ``c`` by n applications of the shift.

    Exact on the built-in kinds: column supports are finite and the first
    prepended symbol of an empty stem is constrained by the root's terminal
    set.  The constructor's checks hold without re-running them: the root
    and the last letter are those of ``c`` (or, for an empty stem, a seed
    from the root's terminal set), and ``backward_words`` checks each
    distinct new edge once per walk, the junction into the stem included,
    because a non-empty stem's walk starts one letter further, at
    ``c.stem[0]``.  The list is in the walk's order, colexicographic in
    the stems: sorted by their last letter, then the letter before it, and
    so on; a caller that needs another order sorts.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    A, root = c.matrix, c.root
    if c.stem:
        heads, tail = backward_words(A, n + 1, (c.stem[0],)), c.stem[1:]
    else:
        heads, tail = backward_words(A, n, root.allowed_terminal_symbols), ()
    return [_config(A, w + tail, root) for w in heads]


def count_preimages_closed_form(A: TransitionMatrix, family_id: int,
                                n: int) -> int | IntegerInterval:
    """The kind's size of the n-th preimage generation: exact on a residue
    kind, an interval on prime renewal (``MatrixKind.counts``)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if A.spec.counts is None:
        raise ValueError(f"no closed-form preimage count for kind {A.kind}")
    return A.spec.counts(family_id, n)
