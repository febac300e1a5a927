"""Rule-defined countable transition matrices.

A transition matrix is a 0/1 matrix over the alphabet {1, 2, 3, ...}.
The built-in families (renewal, pair renewal, prime renewal, alternating
renewal) are infinite matrices defined by closed-form rules and are never
materialized; explicit finite matrices store their rows.

Each rule-defined family is one :class:`MatrixKind` entry of ``KINDS``,
with the fields ``entry`` (the rule), ``predecessors`` (the finite column
supports, which make backward word enumeration exact), ``is_irregular``
and ``irregular_meet`` (the rows kept symbolic by the cylinder algebra),
``catalog`` (the column accumulation points: the roots of the boundary
configurations the shift space acquires beyond the sequence space),
``cover`` (rows that tile the alphabet), ``growth`` (generation growth
rates), ``counts`` (closed-form generation counts) and ``truncated``
(whether the catalog is cut at ``prime_bound``).
:class:`TransitionMatrix` answers every query by looking its kind up,
never by branching on the kind's name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

Symbol = int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def _prime_power_base(j: int) -> int | None:
    """Return p if j = p**k for a prime p and k >= 1, else None."""
    if j < 2:
        return None
    for p in range(2, j + 1):
        if p * p > j:
            break
        if j % p == 0:
            m = j
            while m % p == 0:
                m //= p
            return p if m == 1 and _is_prime(p) else None
    return j if _is_prime(j) else None


@dataclass(frozen=True)
class AccumulationColumn:
    """One accumulation point of the column sequence of a matrix.

    ``support`` holds the positions carrying a 1; ``allowed_terminal_symbols``
    are the symbols a finite stem may end in for a boundary configuration
    rooted at this column (the empty stem is always allowed).
    """

    id: int
    support: frozenset[Symbol]
    allowed_terminal_symbols: frozenset[Symbol]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("accumulation column must have non-empty support")


@dataclass(frozen=True)
class IntegerInterval:
    lower: int
    upper: int

    def __contains__(self, value: int) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class MatrixKind:
    """What one rule-defined matrix family knows.

    * ``entry(i, j)``: A(i, j) for symbols i, j >= 1.
    * ``predecessors(j)``: the column support { i : A(i, j) = 1 }, sorted.
    * ``is_irregular(i)``: whether row i is neither finite nor cofinite.
      Every other row is cofinite (everything) for i = 1 and the single
      descent {i - 1} otherwise.
    * ``irregular_meet(i, j)``: the finite support intersection of two
      distinct irregular rows; None when the kind has fewer than two.
    * ``catalog(prime_bound)``: the accumulation columns; ``truncated``
      when the catalog is infinite and only columns up to ``prime_bound``
      are built.
    * ``cover``: rows whose supports tile the alphabet.
    * ``growth = (lower, upper)``: generation sizes are at most
      const * upper**n, and infinitely often at least const * lower**n.
    * ``counts(family_id, n)``: closed-form (or interval) size of
      generation n >= 0 of a family's preimage tree; None when unknown.
    """

    entry: Callable[[Symbol, Symbol], int]
    predecessors: Callable[[Symbol], tuple[Symbol, ...]]
    is_irregular: Callable[[Symbol], bool]
    irregular_meet: Callable[[Symbol, Symbol], frozenset[Symbol]] | None
    catalog: Callable[[int], tuple[AccumulationColumn, ...]]
    cover: tuple[Symbol, ...]
    growth: tuple[float, float]
    counts: Callable[[int, int], int | IntegerInterval] | None
    truncated: bool = False

    @property
    def critical_beta(self) -> float:
        """log(upper growth): above it the constant-potential series converge."""
        return math.log(self.growth[1])


def _column(col_id: int, support: set[Symbol]) -> AccumulationColumn:
    return AccumulationColumn(col_id, frozenset(support), frozenset(support))


def _pair_family1_count(n: int) -> int:
    """Exact size of generation n of the first pair-renewal family.

    Integer iteration of the 2x2 branching matrix; equals
    ((1-sqrt2)^n + (1-sqrt2)^{n+1} + (1+sqrt2)^n + (1+sqrt2)^{n+1}) / 4.
    """
    if n == 0:
        return 1
    r, s = 1, 1
    for _ in range(n - 1):
        r, s = r + 2 * s, r + s
    return r + s


def _pair_counts(family_id: int, n: int) -> int:
    if family_id == 1:
        return _pair_family1_count(n)
    if family_id == 2:
        return 1 if n == 0 else _pair_family1_count(n - 1)
    raise ValueError(f"pair renewal has families 1 and 2, not {family_id}")


def _alternating_counts(family_id: int, n: int) -> int:
    """Exact size of generation n of an alternating-renewal family.

    Letter 1 has the one predecessor 2, an even letter s the odd ones 1 and
    s + 1, an odd s >= 3 the even ones 2 and s + 1.  If E_n, O_n and N_n
    count the layer-n words of family 1 starting even, odd and with 1, then
    O_(n+1) = 2 E_n and N_(n+1) = E_n, so E_(n+1) = 2 O_n - N_n = 3 E_(n-1).
    From E_1 = 0, O_1 = E_2 = 1 the layers alternate in parity: c(2k) =
    3^(k-1), c(2k+1) = 2 * 3^(k-1).  Family 2's seed 2 is layer 2 of family
    1, so c_2(n) = c_1(n + 1).
    """
    if family_id not in (1, 2):
        raise ValueError(f"alternating renewal has families 1 and 2, not {family_id}")
    n += family_id - 1
    if n <= 1:
        return 1
    k, odd = divmod(n, 2)
    return (2 if odd else 1) * 3 ** (k - 1)


def _prime_entry(i: Symbol, j: Symbol) -> int:
    if i == 1 or i == j + 1:
        return 1
    return 1 if (_is_prime(i) and _prime_power_base(j) == i) else 0


def _prime_predecessors(j: Symbol) -> tuple[Symbol, ...]:
    p = _prime_power_base(j)
    return (1, j + 1) if p is None else (1, p, j + 1)


def _prime_meet(i: Symbol, j: Symbol) -> frozenset[Symbol]:
    # prime powers of distinct primes differ, so only the descents {i-1}
    # and {j-1} can be shared
    return frozenset(c for c in (i - 1, j - 1)
                     if c >= 1 and _prime_entry(i, c) and _prime_entry(j, c))


def _prime_catalog(prime_bound: int) -> tuple[AccumulationColumn, ...]:
    """Column {1} plus the column {1, p} of every prime p <= prime_bound.

    The full catalog is countably infinite; ``prime_bound`` truncates it.
    """
    if prime_bound < 2:
        raise ValueError("prime_bound must be >= 2")
    return (_column(1, {1}),) + tuple(_column(p, {1, p}) for p in range(2, prime_bound + 1)
                                      if _is_prime(p))


#: the rule-defined families, keyed by kind name
KINDS: dict[str, MatrixKind] = {
    "renewal": MatrixKind(
        entry=lambda i, j: 1 if (i == 1 or i == j + 1) else 0,
        predecessors=lambda j: (1, j + 1),
        is_irregular=lambda i: False,
        irregular_meet=None,
        catalog=lambda prime_bound: (_column(1, {1}),),
        cover=(1,),
        growth=(2.0, 2.0),
        counts=lambda family_id, n: 1 if n == 0 else 2 ** (n - 1)),
    "pair_renewal": MatrixKind(
        entry=lambda i, j: 1 if (i == 1 or i == j + 1 or (i == 2 and j % 2 == 0)) else 0,
        predecessors=lambda j: (1, 2, j + 1) if j % 2 == 0 else (1, j + 1),
        is_irregular=lambda i: i == 2,
        irregular_meet=None,
        catalog=lambda prime_bound: (_column(1, {1, 2}), _column(2, {1})),
        cover=(1,),
        growth=(1.0 + math.sqrt(2.0), 1.0 + math.sqrt(2.0)),
        counts=_pair_counts),
    "prime_renewal": MatrixKind(
        entry=_prime_entry,
        predecessors=_prime_predecessors,
        is_irregular=_is_prime,
        irregular_meet=_prime_meet,
        catalog=_prime_catalog,
        cover=(1,),
        growth=(2.0, 3.0),
        counts=lambda family_id, n: 1 if n == 0 else IntegerInterval(2 ** (n - 1), 3 ** n),
        truncated=True),
    # rows 1 and 2 take the even and the odd columns
    "alternating_renewal": MatrixKind(
        entry=lambda i, j: 1 if (i == j + 1 or i == 1 + j % 2) else 0,
        predecessors=lambda j: (2,) if j == 1 else (1 + j % 2, j + 1),
        is_irregular=lambda i: i in (1, 2),
        irregular_meet=lambda i, j: frozenset(),
        catalog=lambda prime_bound: (_column(1, {1}), _column(2, {2})),
        cover=(1, 2),
        growth=(math.sqrt(3.0), math.sqrt(3.0)),
        counts=_alternating_counts),
}


class TransitionMatrix:
    """Queryable 0/1 transition matrix over the alphabet of positive integers.

    Use the module-level constructors (:func:`renewal`, :func:`pair_renewal`,
    :func:`prime_renewal`, :func:`alternating_renewal`, :func:`full_shift`,
    :func:`explicit`) rather than instantiating directly.  ``spec`` is the
    kind's :class:`MatrixKind`, or None for a stored finite matrix.
    """

    def __init__(self, kind: str, *, rows: tuple[tuple[int, ...], ...] | None = None,
                 prime_bound: int = 7):
        self.kind = kind
        self._rows = rows
        self.prime_bound: int | None = None
        if rows is None:
            self.spec: MatrixKind | None = KINDS[kind]
            if self.spec.truncated:
                self.prime_bound = prime_bound
            self.size: int | None = None
            self._entry, self._predecessors = self.spec.entry, self.spec.predecessors
            self._catalog = self.spec.catalog(prime_bound)
        else:
            self.spec = None
            self.size = len(rows)
            self._validate_explicit()
            self._entry, self._predecessors = self._stored_entry, self._stored_predecessors
            self._catalog = ()

    # -- stored finite matrices -------------------------------------------------

    def _validate_explicit(self) -> None:
        rows = self._rows
        assert rows is not None
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("explicit matrix must be square")
            if any(v not in (0, 1) for v in r):
                raise ValueError("entries must be 0 or 1")
        for i, r in enumerate(rows):
            if not any(r):
                raise ValueError(f"row {i + 1} is all zero")
        for j in range(n):
            if not any(rows[i][j] for i in range(n)):
                raise ValueError(f"column {j + 1} is all zero")

    def _in_range(self, *symbols: Symbol) -> None:
        if max(symbols) > self.size:
            raise ValueError(f"symbol {max(symbols)} out of range for size {self.size}")

    def _stored_entry(self, i: Symbol, j: Symbol) -> int:
        self._in_range(i, j)
        return self._rows[i - 1][j - 1]

    def _stored_predecessors(self, j: Symbol) -> tuple[Symbol, ...]:
        self._in_range(j)
        return tuple(i + 1 for i, row in enumerate(self._rows) if row[j - 1] == 1)

    # -- basic queries --------------------------------------------------------

    def entry(self, i: Symbol, j: Symbol) -> int:
        """Matrix entry A(i, j), exact for all i, j on built-in kinds."""
        if i < 1 or j < 1:
            raise ValueError("symbols are positive integers")
        return self._entry(i, j)

    def predecessors(self, j: Symbol) -> tuple[Symbol, ...]:
        """Column support { i : A(i,j) = 1 }, finite for every supported kind."""
        if j < 1:
            raise ValueError("symbols are positive integers")
        return self._predecessors(j)

    # -- row structure for the cylinder algebra -------------------------------

    def row_structure(self, i: Symbol) -> tuple[str, frozenset[Symbol]]:
        """Normal form of row i as a symbol set.

        Returns ``("finite", S)`` when the row support is the finite set S,
        ``("cofinite", S)`` when the support is everything except S, and
        ``("irregular", frozenset())`` when both the support and its
        complement are infinite (the row stays symbolic).
        """
        if self._rows is not None:
            self._in_range(i)
            return ("finite", frozenset(j + 1 for j, v in enumerate(self._rows[i - 1]) if v == 1))
        if self.spec.is_irregular(i):
            return ("irregular", frozenset())
        if i == 1:
            return ("cofinite", frozenset())
        return ("finite", frozenset({i - 1}))

    def irregular_rows_intersection(self, i: Symbol, j: Symbol) -> frozenset[Symbol]:
        """Support of row i intersected with row j, both irregular, i != j.

        Finite for every built-in kind; this is what keeps the cylinder
        predicate algebra closed.
        """
        if i == j:
            raise ValueError("rows must differ")
        meet = self.spec.irregular_meet if self.spec is not None else None
        if meet is None:
            raise ValueError(f"kind {self.kind} has fewer than two irregular rows")
        return meet(i, j)

    # -- catalog ---------------------------------------------------------------

    @property
    def accumulation_catalog(self) -> tuple[AccumulationColumn, ...]:
        return self._catalog

    def column_by_id(self, col_id: int) -> AccumulationColumn:
        for c in self._catalog:
            if c.id == col_id:
                return c
        raise ValueError(f"no accumulation column with id {col_id} for kind {self.kind}")

    # -- identity --------------------------------------------------------------

    def _key(self) -> tuple:
        return (self.kind, self._rows, self.prime_bound)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TransitionMatrix) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if self.prime_bound is not None:
            return f"TransitionMatrix(kind={self.kind!r}, prime_bound={self.prime_bound})"
        if self.size is not None:
            return f"TransitionMatrix(kind={self.kind!r}, size={self.size})"
        return f"TransitionMatrix(kind={self.kind!r})"


def renewal() -> TransitionMatrix:
    """A(1,n) = A(n+1,n) = 1: full first row plus descent by one."""
    return TransitionMatrix("renewal")


def pair_renewal() -> TransitionMatrix:
    """A(1,n) = A(2,2n) = A(n+1,n) = 1."""
    return TransitionMatrix("pair_renewal")


def prime_renewal() -> TransitionMatrix:
    """A(1,n) = A(n+1,n) = A(p, p^n) = 1 for primes p.

    The accumulation-column catalog is countably infinite; only columns for
    primes up to the default ``prime_bound`` 7 are materialized (``from_dict``
    takes another bound).
    """
    return TransitionMatrix("prime_renewal")


def alternating_renewal() -> TransitionMatrix:
    """A(1,2n) = A(2,2n-1) = A(n+1,n) = 1."""
    return TransitionMatrix("alternating_renewal")


def full_shift(size: int) -> TransitionMatrix:
    """Finite full shift: all transitions allowed on {1..size}."""
    if size < 1:
        raise ValueError("size must be >= 1")
    rows = tuple(tuple(1 for _ in range(size)) for _ in range(size))
    return TransitionMatrix("full_shift", rows=rows)


def explicit(rows: Sequence[Sequence[int]]) -> TransitionMatrix:
    """Finite matrix with the given dense 0/1 rows (no accumulation columns)."""
    if not isinstance(rows, (list, tuple)) or not rows or not all(
            isinstance(r, (list, tuple)) for r in rows):
        raise ValueError(f"rows must be a non-empty list of lists, not {rows!r}")
    return TransitionMatrix("explicit", rows=tuple(tuple(r) for r in rows))


def _required(d: dict, key: str):
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    return d[key]


def _integer(key: str, value) -> int:
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return value


def from_dict(d: dict) -> TransitionMatrix:
    """The matrix a JSON specification names; a malformed one raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a matrix specification is a JSON object, not {d!r}")
    kind = _required(d, "kind")
    if kind == "full_shift":
        return full_shift(_integer("size", _required(d, "size")))
    if kind == "explicit":
        return explicit(_required(d, "rows"))
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return TransitionMatrix(kind, prime_bound=_integer("prime_bound", d.get("prime_bound", 7)))


def from_json(text: str) -> TransitionMatrix:
    return from_dict(json.loads(text))


@lru_cache(maxsize=None)
def by_kind(kind: str) -> TransitionMatrix:
    """Shared instance of a built-in kind, for CLI and tests."""
    return from_dict({"kind": kind})
