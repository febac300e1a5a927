"""Rule-defined countable transition matrices.

A transition matrix is a 0/1 matrix over the alphabet {1, 2, 3, ...}.
The built-in families (renewal, pair renewal, prime renewal, alternating
renewal) are infinite matrices defined by closed-form rules and are never
materialized; explicit finite matrices store their rows.  Renewal, pair
renewal and alternating renewal are residue kinds: a modulus and the
residue classes each irregular row holds describe all of their rows.

Every matrix has one :class:`MatrixKind`, which holds every fact about
it: each rule-defined family is an entry of ``KINDS``, and a stored finite
matrix gets a kind built once from its rows.  :class:`TransitionMatrix`
answers every query by looking its kind up, never by branching on the
kind's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .symbolsets import ALL, FiniteSet, Sieve, SymbolSet

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

    ``allowed_terminal_symbols`` is the root's one letter set.  It holds the
    positions carrying a 1, and the symbols a finite stem may end in for a
    boundary configuration rooted at this column (the empty stem is always
    allowed).  These are the same letters: s lies in the root R exactly when
    the columns that converge to R contain s, so R accumulates along row(s),
    and a stem may end in s exactly when s is in R.
    """

    id: int
    allowed_terminal_symbols: frozenset[Symbol]

    def __post_init__(self) -> None:
        if not self.allowed_terminal_symbols:
            raise ValueError("accumulation column must have non-empty support")


@dataclass(frozen=True)
class IntegerInterval:
    lower: int
    upper: int

    def __contains__(self, value: int) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class MatrixKind:
    """What one matrix family, or one stored finite matrix, knows.

    * ``entry(i, j)``: A(i, j) for symbols i, j >= 1.
    * ``predecessors(j)``: the column support { i : A(i, j) = 1 }, sorted;
      finite supports make backward word enumeration exact.
    * ``row(i)``: the row support { k : A(i, k) = 1 } as a symbol set: a
      ``FiniteSet``, ``ALL`` (the cofinite row 1 of the rule kinds), or
      ``Sieve(i)`` when the row is irregular, neither finite nor cofinite,
      and the cylinder algebra keeps it symbolic.
    * ``descent_stop(s)``: where the forced descent from s stops, on the
      rule kinds, derived from their rows.  Their only finite rows are
      {i - 1}, so a letter whose row does not branch is followed by the
      letter below it, and the descent s, s - 1, ... stops at the largest
      letter <= s whose row branches: row 1, or an irregular row.  None on
      a stored matrix, whose forced runs are walked letter by letter and
      may close a cycle.
    * ``irregular_meet(i, j)``: the finite support intersection of two
      distinct irregular rows; None when the kind has fewer than two.
    * ``catalog(prime_bound)``: the column accumulation points, the roots
      of the boundary configurations beyond the sequence space;
      ``truncated`` when the catalog is infinite and only columns up to
      ``prime_bound`` are built.
    * ``cover``: rows whose supports tile the alphabet.
    * ``growth = (lower, upper)``: generation sizes are at most
      const * upper**n, and infinitely often at least const * lower**n.
      ``growth[0] == growth[1]`` certifies the rate, and its log is the
      Gurevich entropy, the growth rate of the cycles through a letter.  A
      residue kind derives it (``_residue_kind``): its rate is the Perron
      root rho of its backward graph, and both ends are the largest double
      not above rho, so that a product with it >= 1 still proves a series
      divergent, and no double lies between it and rho.  Prime renewal
      states (2, 3).  On renewal and pair renewal row 1 holds every
      letter, so Z_n at base 1 counts the words of length n that end in 1:
      generation n of the {1}-family.  On alternating renewal row 1 holds
      the even letters, so Z_n counts the words ending in 1 that start
      with an even letter: the whole even generation, 3^(k-1) at n = 2k,
      and 0 at odd n.  The rule kinds are irreducible, so the base letter
      does not matter.  A stored matrix has None.  Every kind with
      boundary families (a non-empty catalog) has a growth rate, so
      ``measures.growth_band`` needs no refusal: a stored matrix has no
      families, and the measures refuse it before they ask for a rate.
    * ``max_predecessors``: d, the largest number of predecessors any
      letter has, so a backward walk hands each letter's weight to at most
      d letters of the next layer.  A residue kind (``_residue_kind``):
      the letters before j are the rows that hold j's residue class, and
      j + 1, which lies above them once j reaches the largest irregular
      row, so d is one more than the most rows that hold one class: 2 on
      renewal (row 1 holds every class) and alternating renewal (row 1 the
      even class, row 2 the odd one), 3 on pair renewal (rows 1 and 2 hold
      the even class).  Prime renewal: (1, j + 1), or (1, p, j + 1) when j
      is a power of the prime p (``_prime_predecessors``): row 1 holds
      every letter, and row i > 1 holds i - 1 and, for a prime i, the
      powers of i, so the letters before j are 1, j + 1 and the one prime
      whose power j is, if any.  These are distinct, as 2 <= p <= j < j + 1,
      so d = 3, reached at j = 2.  A stored matrix: its longest column.
      On pair and alternating renewal d exceeds the growth rate, so it is
      not ``growth[1]``.
    * ``counts(family_id, n)``: the size of generation n >= 0 of a
      family's preimage tree.  A residue kind derives it exactly, as a path
      count of its backward graph (``_residue_kind``); prime renewal
      states an interval, [2^(n-1), 3^n]; None on a stored matrix.
    * ``stem_sums(x, terminals)``: the stem sums of the boundary family
      with these terminal symbols when every letter weighs x, with x below
      the radius the growth band certifies: (1/c_e, {j: T(j)}), where
      1/c_e = 1 + the sum over non-empty stems of x^|stem|, and T(j) sums
      x^|d| over the words d admissible after j that end in a terminal.
      The sums it leaves out follow from the row rule of the y-measure.
      None where no closed form is known.
    """

    entry: Callable[[Symbol, Symbol], int]
    predecessors: Callable[[Symbol], tuple[Symbol, ...]]
    row: Callable[[Symbol], SymbolSet]
    descent_stop: Callable[[Symbol], Symbol] | None
    irregular_meet: Callable[[Symbol, Symbol], frozenset[Symbol]] | None
    catalog: Callable[[int], tuple[AccumulationColumn, ...]]
    cover: tuple[Symbol, ...]
    growth: tuple[float, float] | None
    max_predecessors: int
    counts: Callable[[int, int], int | IntegerInterval] | None
    stem_sums: Callable[[float, frozenset[Symbol]],
                        tuple[float, dict[Symbol, float]]] | None
    truncated: bool = False

    @property
    def critical_beta(self) -> float:
        """log(upper growth): above it the constant-potential series converge.
        With a certified rate it is the Gurevich entropy."""
        return math.log(self.growth[1])


def _rule_kind(irregular: Callable[[Symbol], bool], **facts) -> MatrixKind:
    """A rule kind, whose rows follow from which rows are irregular: row i is
    symbolic if irregular, every letter if i = 1, else {i - 1}.  Its descent
    stop is the largest letter <= s whose row branches, 1 or an irregular
    row.  Both memoized: symbol sets are frozen, and walks ask letter by
    letter.  The descent walk records the stop of every letter it passes,
    so a later query stops at the first letter it already knows."""
    @lru_cache(maxsize=None)
    def row(i: Symbol) -> SymbolSet:
        if irregular(i):
            return Sieve(i, frozenset(), frozenset())
        return ALL if i == 1 else FiniteSet(frozenset({i - 1}))

    stops: dict[Symbol, Symbol] = {}

    def descent_stop(s: Symbol) -> Symbol:
        walked = []
        while s not in stops and s > 1 and not irregular(s):
            walked.append(s)
            s -= 1
        stop = stops.setdefault(s, s)
        stops.update(dict.fromkeys(walked, stop))
        return stop
    return MatrixKind(row=row, descent_stop=descent_stop, **facts)


def _column(col_id: int, support: set[Symbol]) -> AccumulationColumn:
    return AccumulationColumn(col_id, frozenset(support))


def _descent_meet(entry: Callable[[Symbol, Symbol], int]
                  ) -> Callable[[Symbol, Symbol], frozenset[Symbol]]:
    """The meet of two distinct irregular rows i, j of a kind whose irregular
    rows share no letter beyond their descents {i - 1} and {j - 1}: rows of
    disjoint residue classes, or of the powers of distinct primes."""
    return lambda i, j: frozenset(c for c in (i - 1, j - 1)
                                  if c >= 1 and entry(i, c) and entry(j, c))


def _perron_root(graph: tuple[tuple[int, ...], ...]) -> float:
    """The largest double not above the Perron root rho of the graph's
    matrix M, M[r][s] the number of edges r -> s (``_residue_kind``).

    A double t = p/q is above rho exactly when every leading principal
    minor of pI - qM is positive: for a nonnegative M, tI - M is a
    nonsingular M-matrix iff t > rho, and a matrix with no positive entry
    off its diagonal is one iff its leading principal minors are all
    positive (Berman and Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*, 1979, ch. 6).  The minors are the pivots of
    Bareiss's fraction-free elimination, exact on the integers of
    ``as_integer_ratio``.  Bisection starts from lo = 0 <= rho < hi, one
    more than the longest row, as rho is at most the largest row sum, and
    keeps lo not above rho and hi above it.  The midpoint of two doubles
    with a double between them rounds to a double between them, which is
    nearer to it than either end, so the loop stops only at adjacent
    doubles lo <= rho < hi, and lo is the floor.
    """
    size = len(graph)

    def above(t: float) -> bool:
        p, q = t.as_integer_ratio()
        a = [[p * (r == s) - q * graph[r].count(s) for s in range(size)] for r in range(size)]
        prev = 1
        for k in range(size):
            if a[k][k] <= 0:
                return False
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return True
    lo, hi = 0.0, float(max(map(len, graph)) + 1)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return lo


def _residue_kind(modulus: int, irregular: dict[Symbol, set[int]],
                  stem_sums: Callable[[float, frozenset[Symbol]],
                                      tuple[float, dict[Symbol, float]]] | None) -> MatrixKind:
    """The rule kind of a modulus m and residue sets R_i, i in ``irregular``.

    An irregular row i is {j : j mod m in R_i} + {i - 1}, row 1 every letter
    unless it is irregular, any other row i is {i - 1}.  Each R_i is a
    non-empty proper subset of Z/m, so the row is neither finite nor
    cofinite.  The letters of class c have the predecessors ``classes[c]``,
    the rows that hold c, and j + 1, so column j tends to ``classes[c]``
    along the class: the catalog is the distinct class tuples, and d is one
    more than the longest.  Two irregular rows meet in a finite set only if
    no two R_i overlap (``_descent_meet``), and every column limit is a root
    only if every class is held, which row 1 ensures unless it is irregular;
    then the irregular rows cover the alphabet.  Both are checked, as are
    the modulus (m >= 1), the rows (letters >= 1) and each R_i.  The
    stem sums are the one fact the rule does not give here.

    The backward graph.  Let top be the largest irregular row, or 1.  A
    letter j above top has the predecessors ``classes[j mod m]``, all of
    them <= top, and j + 1, again above top and in the next class.  So
    every letter above top in one class has the same predecessors, up to
    that one step to the next class, and the backward walk, read per
    letter up to top and per class above it, is a walk on a finite graph:
    the states are the letters 1..top and the m classes above top, and
    state s has one edge to the state of each predecessor of a letter of
    s.  The letters top + 1..top + m stand for the m classes, in order.
    A layer of the walk is a vector of integers over the states.

    * ``counts(f, n)``: the total of layer n of the walk from family f's
      terminals, all <= top, which is the size of generation n, exactly;
      generation 0 is the empty stem.  Each family keeps its layer totals
      and its last layer, so asking for n = 1, 2, ..., N walks N layers.
    * ``growth``: generation sizes grow like rho^n, rho the Perron root of
      the graph's matrix (Lind and Marcus, *An Introduction to Symbolic
      Dynamics and Coding*, 1995, ch. 4), so rho is the rate, and its log
      the Gurevich entropy.  Both ends of the band are rho-hat, the largest
      double not above rho (``_perron_root``): a floor, so that rho-hat x
      >= 1 still proves the stem series divergent, and no double lies
      between rho-hat and rho.
    """
    m, held = modulus, [c for r in irregular.values() for c in r]
    if m < 1:
        raise ValueError(f"modulus must be >= 1, not {m}")
    for i, r in irregular.items():
        if i < 1:
            raise ValueError(f"row {i} is no letter: letters start at 1")
        if not r:
            raise ValueError(f"residue set of row {i} is empty, so the row is finite")
        if not all(0 <= c < m for c in r):
            raise ValueError(f"row {i} has residues {sorted(r)} outside 0..{m - 1}")
        if len(r) == m:
            raise ValueError(f"row {i} holds every class mod {m}, so it is cofinite, not irregular")
    if len(set(held)) < len(held):
        raise ValueError(f"residue sets {irregular} overlap modulo {m}")
    residues = {1: range(m), **irregular}
    classes = tuple(tuple(i for i in sorted(residues) if c in residues[i]) for c in range(m))
    if not all(classes):
        raise ValueError(f"irregular row 1 without a cover: rows {irregular} miss a class mod {m}")
    top = max(irregular, default=1)
    columns = tuple(_column(n, set(c)) for n, c in enumerate(dict.fromkeys(classes), 1))

    def entry(i: Symbol, j: Symbol) -> int:
        return 1 if i == j + 1 or i in classes[j % m] else 0

    def predecessors(j: Symbol) -> tuple[Symbol, ...]:
        c = classes[j % m]
        return c + (j + 1,) if j >= top else tuple(sorted({*c, j + 1}))

    def state(j: Symbol) -> int:
        return j - 1 if j <= top else top + (j - top - 1) % m
    graph = tuple(tuple(state(p) for p in predecessors(j)) for j in range(1, top + m + 1))
    walks: dict[int, tuple[list[int], list[int]]] = {}

    def counts(family_id: int, n: int) -> int:
        if not 0 < family_id <= len(columns):
            raise ValueError(f"no family {family_id}: the families are 1..{len(columns)}")
        terminals = columns[family_id - 1].allowed_terminal_symbols
        totals, layer = walks.setdefault(family_id, (
            [1], [int(s + 1 in terminals) for s in range(len(graph))]))
        while len(totals) <= n:
            totals.append(sum(layer))
            nxt = [0] * len(graph)
            for s, x in enumerate(layer):
                if x:
                    for p in graph[s]:
                        nxt[p] += x
            layer[:] = nxt
        return totals[n]
    rho = _perron_root(graph)
    return _rule_kind(irregular.__contains__, entry=entry, predecessors=predecessors,
                      irregular_meet=_descent_meet(entry) if len(irregular) > 1 else None,
                      catalog=lambda prime_bound: columns,
                      cover=tuple(sorted(irregular)) if 1 in irregular else (1,),
                      growth=(rho, rho), max_predecessors=1 + max(map(len, classes)),
                      counts=counts, stem_sums=stem_sums)


def _renewal_stem_sums(x: float, terminals: frozenset[Symbol]) -> tuple[float, dict]:
    """1/c_e = 1 + the sum of 2^(n-1) x^n over n >= 1, with r = 2x; row 1
    holds every letter, so the row rule gives every T(j)."""
    r = 2.0 * x
    return 1.0 + 0.5 * r / (1.0 - r), {}


def _pair_tails(u: float, terminals: frozenset[Symbol]) -> dict[Symbol, float]:
    """Continuation sums T(1), T(2), T(3) for the pair renewal matrix.

    T(j >= 4) = u^(j-3) T(3).  The sums close because the only branching
    rows are 1 (everything) and 2 (one plus the evens); the geometric
    pieces over the forced descents are summed analytically.  The caller
    has checked convergence, (1 + sqrt 2) u < 1.
    """
    h = float(len(terminals))
    e2 = 1.0 if 2 in terminals else 0.0
    M = np.array([
        [1.0 - u, -u, -u / (1.0 - u)],
        [-u, 1.0 - u, -u * u / (1.0 - u * u)],
        [0.0, -u, 1.0],
    ])
    rhs = np.array([u * h, u * (1.0 + e2), u * e2])
    t1, t2, t3 = np.linalg.solve(M, rhs)
    return {1: float(t1), 2: float(t2), 3: float(t3)}


def _pair_stem_sums(x: float, terminals: frozenset[Symbol]) -> tuple[float, dict]:
    """T(1), T(2), T(3) from one solve; row 1 holds every letter, so
    1/c_e = 1 + T(1)."""
    tails = _pair_tails(x, terminals)
    return 1.0 + tails[1], tails


def _alternating_stem_sums(x: float, terminals: frozenset[Symbol]) -> tuple[float, dict]:
    """T(1), T(2) and 1/c_e of an alternating-renewal family, rational in x.

    With B(s) = x ([s terminal] + T(s)), the stem weight below the letter s,
    T(1) sums B over the even letters and T(2) over the odd ones, and a
    letter s >= 3 is no terminal and descends to s - 1 alone, so
    B(s) = x^(s-2) B(2).  Hence T(1) = B(2) / (1 - x^2) and
    T(2) = B(1) + x B(2) / (1 - x^2).  With d = 1 - 3x^2 and the terminals
    t1 = [1 terminal], t2 = [2 terminal] (the catalog's are {1} and {2}),
    this linear system gives

        T(1) = (t1 x^2 + t2 x) / d,   T(2) = (t1 x (1 - x^2) + t2 2x^2) / d,

    and, as rows 1 and 2 split the alphabet, every non-empty stem starts in
    one of them: 1/c_e = 1 + T(1) + T(2).  The series converge for
    3x^2 < 1, the band of the growth sqrt 3, the Perron root of the kind's
    backward graph.  Where rounding leaves d <= 0, the value is inf.
    """
    # rounded as (3x)x, d stays positive at every double the band accepts;
    # 1 - 3(x x) is not positive at one of them
    d = 1.0 - 3.0 * x * x
    if d <= 0.0:
        return math.inf, {}
    t1, t2 = (1.0 if 1 in terminals else 0.0), (1.0 if 2 in terminals else 0.0)
    tails = {1: (t1 * x * x + t2 * x) / d, 2: (t1 * x * (1.0 - x * x) + t2 * 2.0 * x * x) / d}
    return 1.0 + tails[1] + tails[2], tails


def _prime_entry(i: Symbol, j: Symbol) -> int:
    if i == 1 or i == j + 1:
        return 1
    return 1 if (_is_prime(i) and _prime_power_base(j) == i) else 0


def _prime_predecessors(j: Symbol) -> tuple[Symbol, ...]:
    p = _prime_power_base(j)
    return (1, j + 1) if p is None else (1, p, j + 1)


def _prime_catalog(prime_bound: int) -> tuple[AccumulationColumn, ...]:
    """Column {1} plus the column {1, p} of every prime p <= prime_bound.

    The full catalog is countably infinite; ``prime_bound`` truncates it,
    at 100 at most, as the primes are found by trial division.
    """
    if prime_bound < 2:
        raise ValueError("prime_bound must be >= 2")
    if prime_bound > 100:
        raise ValueError(f"prime_bound must be <= 100, not {prime_bound}")
    return (_column(1, {1}),) + tuple(_column(p, {1, p}) for p in range(2, prime_bound + 1)
                                      if _is_prime(p))


#: the rule-defined families, keyed by kind name
KINDS: dict[str, MatrixKind] = {
    "renewal": _residue_kind(1, {}, _renewal_stem_sums),
    "pair_renewal": _residue_kind(2, {2: {0}}, _pair_stem_sums),
    "prime_renewal": _rule_kind(
        irregular=_is_prime,
        entry=_prime_entry,
        predecessors=_prime_predecessors,
        irregular_meet=_descent_meet(_prime_entry),
        catalog=_prime_catalog,
        cover=(1,),
        growth=(2.0, 3.0),
        max_predecessors=3,
        counts=lambda family_id, n: 1 if n == 0 else IntegerInterval(2 ** (n - 1), 3 ** n),
        stem_sums=None,
        truncated=True),
    # rows 1 and 2 take the even and the odd columns
    "alternating_renewal": _residue_kind(2, {1: {0}, 2: {1}}, _alternating_stem_sums),
}


def _stored_kind(rows: tuple[tuple[int, ...], ...]) -> MatrixKind:
    """The kind of a stored finite matrix: no boundary, cover, growth, counts,
    stem sums or descent rule."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("explicit matrix must be square")
        if any(v not in (0, 1) for v in r):
            raise ValueError("entries must be 0 or 1")
    for i, r in enumerate(rows):
        if not any(r):
            raise ValueError(f"row {i + 1} is all zero")
    columns = tuple(tuple(i + 1 for i in range(n) if rows[i][j]) for j in range(n))
    for j, c in enumerate(columns):
        if not c:
            raise ValueError(f"column {j + 1} is all zero")
    supports = tuple(FiniteSet(frozenset(j + 1 for j, v in enumerate(r) if v)) for r in rows)

    def in_range(*symbols: Symbol) -> None:
        if max(symbols) > n:
            raise ValueError(f"symbol {max(symbols)} out of range for size {n}")

    def entry(i: Symbol, j: Symbol) -> int:
        in_range(i, j)
        return rows[i - 1][j - 1]

    def predecessors(j: Symbol) -> tuple[Symbol, ...]:
        in_range(j)
        return columns[j - 1]

    def row(i: Symbol) -> SymbolSet:
        in_range(i)
        return supports[i - 1]

    return MatrixKind(entry=entry, predecessors=predecessors, row=row, descent_stop=None,
                      irregular_meet=None, catalog=lambda prime_bound: (), cover=(),
                      growth=None, max_predecessors=max(map(len, columns)), counts=None,
                      stem_sums=None)


# every matrix built so far, one object per (kind, stored rows, prime bound)
_matrices: dict[tuple, "TransitionMatrix"] = {}


class TransitionMatrix:
    """Queryable 0/1 transition matrix over the alphabet of positive integers.

    Built by :func:`by_kind`, :func:`from_dict`, :func:`full_shift` or
    :func:`explicit`; ``spec`` is its :class:`MatrixKind`.  The catalog of
    prime renewal is countably infinite: only the columns of the primes up
    to ``prime_bound`` (7 unless the specification names another) are built.

    Matrices are interned: every build from an equal key (kind, stored rows
    and prime bound, the bound counting only on a truncated kind) returns
    one object, built and validated once, so two matrices are equal iff
    they are the same object, and ``==`` and ``hash`` are the object's own.
    A refused build leaves nothing behind.  ``copy`` rebuilds a matrix
    through the constructor (``__reduce__``), so it returns that object.
    """

    def __new__(cls, kind: str, *, rows: tuple[tuple[int, ...], ...] | None = None,
                prime_bound: int = 7) -> "TransitionMatrix":
        key = (kind, rows, prime_bound if rows is None and KINDS[kind].truncated else None)
        A = _matrices.get(key)
        if A is None:
            A = object.__new__(cls)
            A.kind, A.rows, A.prime_bound = key
            A.spec = KINDS[kind] if rows is None else _stored_kind(rows)
            A.size = None if rows is None else len(rows)
            A._entry, A._predecessors = A.spec.entry, A.spec.predecessors
            A.accumulation_catalog = A.spec.catalog(prime_bound)
            A = _matrices.setdefault(key, A)
        return A

    def __reduce__(self):
        return partial(TransitionMatrix, self.kind, rows=self.rows,
                       prime_bound=self.prime_bound), ()

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

    def row(self, i: Symbol) -> SymbolSet:
        """Row support { k : A(i,k) = 1 } as a symbol set in normal form."""
        if i < 1:
            raise ValueError("symbols are positive integers")
        return self.spec.row(i)

    def irregular_rows_intersection(self, i: Symbol, j: Symbol) -> frozenset[Symbol]:
        """Support of row i intersected with row j, both irregular, i != j.

        Finite for every built-in kind; this is what keeps the cylinder
        predicate algebra closed.
        """
        if i == j:
            raise ValueError("rows must differ")
        if self.spec.irregular_meet is None:
            raise ValueError(f"kind {self.kind} has fewer than two irregular rows")
        return self.spec.irregular_meet(i, j)

    def column_by_id(self, col_id: int) -> AccumulationColumn:
        for c in self.accumulation_catalog:
            if c.id == col_id:
                return c
        raise ValueError(f"no accumulation column with id {col_id} for kind {self.kind}")

    def __repr__(self) -> str:
        if self.prime_bound is not None:
            return f"TransitionMatrix(kind={self.kind!r}, prime_bound={self.prime_bound})"
        if self.size is not None:
            return f"TransitionMatrix(kind={self.kind!r}, size={self.size})"
        return f"TransitionMatrix(kind={self.kind!r})"


def full_shift(size: int) -> TransitionMatrix:
    """Finite full shift: all transitions allowed on {1..size}."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return TransitionMatrix("full_shift", rows=((1,) * size,) * size)


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


def by_kind(kind: str) -> TransitionMatrix:
    """Shared instance of a built-in kind, for CLI and tests."""
    return from_dict({"kind": kind})
