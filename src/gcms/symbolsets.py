"""Normalized sets of next-symbols used by cylinder families.

A family of cylinders is indexed by the symbol that follows a fixed prefix;
the index set is one of

* ``FiniteSet`` -- an explicit finite set,
* ``Sieve``     -- everything passing row constraints, minus finitely many
  symbols.  ``one_row=j`` requires A(j, k) = 1, each element of
  ``zero_rows`` requires A(j, k) = 0.  Only rows whose support is neither
  finite nor cofinite (irregular rows) are kept symbolic; all other rows
  are resolved eagerly, so intersections stay in this vocabulary.

Row j is ``A.row(j)``, in this normal form, and ``row_zero`` its complement.
All operations take the matrix as the first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .matrices import Symbol, TransitionMatrix


@dataclass(frozen=True)
class FiniteSet:
    symbols: frozenset[Symbol]


@dataclass(frozen=True)
class Sieve:
    one_row: Symbol | None
    zero_rows: frozenset[Symbol]
    excluded: frozenset[Symbol]


SymbolSet = Union[FiniteSet, Sieve]

EMPTY_SET = FiniteSet(frozenset())
ALL = Sieve(None, frozenset(), frozenset())


def all_except(symbols) -> Sieve:
    return Sieve(None, frozenset(), frozenset(symbols))


def row_zero(A: TransitionMatrix, j: Symbol) -> SymbolSet:
    """{ k : A(j, k) = 0 } in normal form: the complement of ``A.row(j)``."""
    row = A.row(j)
    if isinstance(row, FiniteSet):
        if A.size is not None:
            return FiniteSet(frozenset(range(1, A.size + 1)) - row.symbols)
        return all_except(row.symbols)
    if row.one_row is None:
        return FiniteSet(row.excluded)
    return Sieve(None, frozenset({j}), frozenset())


def contains(A: TransitionMatrix, s: SymbolSet, k: Symbol) -> bool:
    if k < 1:
        return False
    if A.size is not None and k > A.size:
        return False
    if isinstance(s, FiniteSet):
        return k in s.symbols
    if k in s.excluded:
        return False
    if s.one_row is not None and A.entry(s.one_row, k) != 1:
        return False
    return all(A.entry(j, k) == 0 for j in s.zero_rows)


def _canonical_sieve(A: TransitionMatrix, one_row: Symbol | None,
                     zero_rows: frozenset[Symbol], excluded: frozenset[Symbol]) -> SymbolSet:
    if one_row is not None and one_row in zero_rows:
        return EMPTY_SET
    if one_row is not None and zero_rows:
        # row(one_row) cap row_zero(j) leaves a finite dent in row(one_row)
        extra = set()
        for j in zero_rows:
            extra |= A.irregular_rows_intersection(one_row, j)
        excluded = excluded | frozenset(extra)
        zero_rows = frozenset()
    if one_row is None and zero_rows and zero_rows.issuperset(A.spec.cover):
        # no symbol avoids every row of a cover; zero rows are irregular,
        # so only rule-defined kinds get here
        return EMPTY_SET
    # keep only the exclusions that dent the row constraints (all are >= 1)
    base = Sieve(one_row, zero_rows, frozenset())
    excluded = frozenset(k for k in excluded if contains(A, base, k))
    return Sieve(one_row, zero_rows, excluded)


def intersect(A: TransitionMatrix, s: SymbolSet, t: SymbolSet) -> SymbolSet:
    if isinstance(s, FiniteSet):
        return FiniteSet(frozenset(k for k in s.symbols if contains(A, t, k)))
    if isinstance(t, FiniteSet):
        return intersect(A, t, s)
    if s.one_row is not None and t.one_row is not None and s.one_row != t.one_row:
        cand = A.irregular_rows_intersection(s.one_row, t.one_row)
        merged = Sieve(None, s.zero_rows | t.zero_rows, s.excluded | t.excluded)
        return FiniteSet(frozenset(k for k in cand if contains(A, merged, k)))
    one = s.one_row if s.one_row is not None else t.one_row
    return _canonical_sieve(A, one, s.zero_rows | t.zero_rows, s.excluded | t.excluded)


def is_definitely_empty(A: TransitionMatrix, s: SymbolSet) -> bool:
    if isinstance(s, FiniteSet):
        return not s.symbols
    if A.size is not None:
        return not any(contains(A, s, k) for k in range(1, A.size + 1))
    return False  # every canonical sieve over an infinite alphabet is infinite


def describe(s: SymbolSet) -> str:
    """Human-readable predicate name for reports."""
    if isinstance(s, FiniteSet):
        return f"Exactly({sorted(s.symbols)})"
    ones = f"A({s.one_row},k)=1" if s.one_row is not None else None
    zeros = [f"A({j},k)=0" for j in sorted(s.zero_rows)]
    conds = ([ones] if ones else []) + zeros
    if not conds:
        return f"AllExcept({sorted(s.excluded)})" if s.excluded else "All"
    body = " & ".join(conds)
    if s.excluded:
        body += f" & k not in {sorted(s.excluded)}"
    return "{k: " + body + "}"
