"""Conformal measures and eigenmeasures on the generalized shift space.

Sign convention.  Every measure here carries a triple ``(weight, beta,
lam)`` and satisfies, on special sets B,

    mu(shift(B)) = integral over B of  lam * exp(-beta * weight(x0)) dmu,

where ``weight`` depends on the first stem letter only.  The two readings
found in practice are recorded per measure in ``convention``:

* a classical "exp(beta F)-conformal" measure instantiates weight = -F
  with lam = 1,
* an eigenmeasure of the transfer operator for beta*F with eigenvalue lam
  instantiates weight = +F.

Atomic measures on a boundary family have stem masses

    c(w) = lam^-|w| * exp(beta * weight-sum over w) * c(e),

which is the conformality relation read letter by letter.  Masses of
cylinders and cylinder families are series over stems; they are evaluated
through the continuation sums

    T(j) = sum over words d admissible after j, ending in a terminal,
           of their letter-weight products.

The stems behind 1/c(e) are the same sums, so ``normalizer`` computes both
at once: the kind's closed form (``MatrixKind.stem_sums``) on renewal, pair
renewal and alternating renewal, and on any other kind one generation walk.
The walk stops once a geometric bound read off its own last layer shows
that the rest cannot move 1/c(e), and that one bound certifies 1/c(e) and
every T(j).  One row rule gives the sums they leave out: T(j) = 1/c(e) - 1
on a row that holds every letter, and T(j) = u(j-1) ([j-1 terminal] +
T(j-1)) on a forced descent j -> j-1.

Measures carried by the sequence space follow from the same relation and
the masses of their end letters.  A letter n with a single successor n'
has C_n = C_(n n'), so nu(C_n) = lam^-1 exp(beta * weight(n)) nu(C_n'),
and the forced extension of n ends on a letter whose row branches, whose
mass the construction supplies (see ``SequenceMeasure``).
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import symbolsets as ss
from .configs import BoundedConfig
from .cylinders import CylFamily, SetExpr, shift_image
from .matrices import AccumulationColumn, Symbol, TransitionMatrix
from .thermo import (LOG_POTENTIAL, UNIT_POTENTIAL, Constant, Potential, beta_c_log, bisect,
                     normalization_series, pressure_log_potential, worst, zeta)
from .words import Word, generation_layers, is_admissible


def negate(F: Constant) -> Constant:
    """The constant potential -F."""
    return Constant(-F.c)


class MeasureError(ValueError):
    pass


class AbsenceOfMeasure(MeasureError):
    """The normalizing series diverges: no finite measure on this family."""


class Inconclusive(MeasureError):
    """Neither the convergence nor the divergence certificate applies."""


TAIL_TOL = 1e-13   # certified bound on the truncated tail of every stem series


# --------------------------------------------------------------------------
# the normalizer
# --------------------------------------------------------------------------

@dataclass
class NormalizerResult:
    """1/c_e, the bound on its truncated tail, and the continuation sums
    T(j) that the same closed form or walk gave (none on renewal)."""

    value: float
    tail_bound: float
    status: str          # "finite" | "divergent"
    tails: dict[Symbol, float] = field(default_factory=dict)

    @property
    def divergent(self) -> bool:
        return self.status == "divergent"


def growth_band(A: TransitionMatrix, weight: Constant, beta: float) -> str:
    """Whether the stems of a boundary family of A carry a finite measure
    with these letter weights at beta, as the kind's growth (lower, upper)
    decides it with x = exp(beta * weight.c): ``"absent"`` where the stem
    series diverges, lower * x >= 1, ``"inconclusive"`` where only
    upper * x >= 1, and ``"exists"`` otherwise.  A letter weight past the
    largest double makes the series diverge too.  This is the one decision
    of which y-measures exist: the normalizer, the phase table
    (``phase_row``) and ``constructed_measures`` read it.  Every kind with
    boundary families has a growth rate (``MatrixKind``).
    """
    lower, upper = A.spec.growth
    try:
        x = math.exp(beta * weight.c)
    except OverflowError:
        return "absent"
    return "absent" if lower * x >= 1.0 else "inconclusive" if upper * x >= 1.0 else "exists"


def normalizer(A: TransitionMatrix, family: AccumulationColumn, weight: Constant,
               beta: float) -> NormalizerResult:
    """1/c_e = 1 + sum over non-empty family stems of their letter weights,
    with the continuation sums T(j) over the same stems.

    ``growth_band`` certifies divergence; the prime-renewal band between
    the bounds raises ``Inconclusive``.  Where the kind states its stem
    sums in closed form (``MatrixKind.stem_sums``), they are exact, with no
    tail; a closed form that rounding leaves infinite inside the band
    raises ``Inconclusive``.  A kind without one, prime renewal or a drawn
    residue kind, walks the generation layers once and stops at the first
    layer N whose tail bound is at most 2^-53 times the running 1/c_e,
    where the rest cannot move the sum by more than an ulp, or at the cap,
    layer depth + 1.

    The bound.  Let L_n be the total weight of layer n, the stems of
    length n.  The N layers leave out of 1/c_e the stems longer than N.
    The walk's T(j) holds the words d after j with |d| <= N - 1, as j d
    lies in layer |d| + 1; it misses those with |d| >= N, each of them a
    stem of its own.  So both miss at most the sum of L_n over n >= N, and
    ``tail_bound`` is the lesser of two bounds on it:

    * a priori, rho^N / (1 - rho), rho = upper * x: at most upper^n stems
      have length n;
    * a posteriori, L_N / (1 - d x), d = ``max_predecessors``: each letter
      hands its weight, times x, to at most d letters of the next layer,
      so L_(n+1) <= d x L_n, and L_n <= (d x)^(n - N) L_N.  1 - d x is
      rounded down, so the bound never comes out too small; where d x >= 1
      there is no such bound.

    Both bound the truncation of the series at the double x; the rounding
    of the walk's own sums, a few ulp, is outside them, as it was.  The cap
    is where the a-priori bound falls to about ``TAIL_TOL``, held between 9
    and 401 layers.  The layers of prime renewal shrink by its growth rate,
    about 2.597 x, not by 3 x, so the a-posteriori bound ends its walks
    well before the cap (by layer 125 at beta 1.263, where the cap is 196),
    and the measure's refusal of a tail above ``TAIL_TOL`` is left only
    within about 3e-13 of log 3.  Renewal, pair and alternating renewal,
    walked without their closed forms, reach the cap first within 2.9 of
    their critical beta, where the a-posteriori bound is no tighter.  Where
    exp(beta * c) underflows to 0, every non-empty stem weighs 0: the
    a-priori bound is 0 after the first layer, and every T(j) is 0.
    """
    x = math.exp(beta * weight.c)    # a weight past the largest double overflows here
    band = growth_band(A, weight, beta)
    if band == "absent":
        return NormalizerResult(math.inf, math.inf, "divergent")
    if band == "inconclusive":
        lower, upper = A.spec.growth
        raise Inconclusive(
            "between the divergence bound (growth "
            f"{lower:g}) and the convergence bound (growth {upper:g})")
    if A.spec.stem_sums is not None:
        value, tails = A.spec.stem_sums(x, family.allowed_terminal_symbols)
        if value == math.inf:
            raise Inconclusive("the stem sums' closed form diverges at the rounded letter weight")
        return NormalizerResult(value, 0.0, "finite", tails)
    rho = A.spec.growth[1] * x
    depth = 8 if x == 0.0 else min(400, max(8, int(math.log(TAIL_TOL * (1 - rho))
                                                   / math.log(rho)) + 2))
    # 1 - d x rounded down: d x rounded up, the difference rounded down
    gap = math.nextafter(1.0 - math.nextafter(A.spec.max_predecessors * x, math.inf), 0.0)
    terms: list[float] = []
    sums: dict[Symbol, float] = {}
    running = 1.0
    for n, layer in enumerate(generation_layers(A, family.allowed_terminal_symbols, depth + 1,
                                                weight=x), 1):
        terms += layer.values()
        if n > 1:
            for j, w in layer.items():
                sums[j] = sums.get(j, 0.0) + w
        total = sum(layer.values())
        running += total
        tail = min(rho ** n / (1.0 - rho), total / gap if gap > 0.0 else math.inf)
        if tail <= 2.0 ** -53 * running:
            break
    return NormalizerResult(1.0 + math.fsum(terms), tail, "finite",
                            {j: w / x if x else 0.0 for j, w in sums.items()})


# --------------------------------------------------------------------------
# the mass evaluator
# --------------------------------------------------------------------------

class Measure:
    """Masses of points, cylinders and cylinder families under one measure.

    The rules every measure shares live here: the empty word is the whole
    space, an inadmissible word has mass 0, a finite family is the sum of
    its cylinders, and points carry no mass unless a subclass says
    otherwise.  A sieve family weighs ``peel(prefix)`` times the sum of
    ``base_value(k)`` over its symbols k, and one rule gives that sum for
    every measure: inclusion-exclusion over the row sums ``_tail(j)``, the
    sums of ``base_value`` over the row of j.  A subclass sets ``matrix``,
    ``weight``, ``beta``, ``lam``, ``convention`` and an empty
    ``_factors`` dict, and supplies ``_cyl_mass(alpha)`` for an admissible
    non-empty word, those three numbers, ``total_mass()``, ``report()``
    and ``_mass_table(plan)``.

    ``_mass_table`` gives the conformality rows their masses: for a
    ``_RowPlan``, the ``_cyl_mass`` of each word of its table, in table
    order, then of each planned atom, each bit-identical to ``_cyl_mass``
    of the word.  A measure fills it from a peel column, one multiply per
    table word (``_peel_column``; a constant weight peels once per length
    instead), and a letter term per letter, so it makes the floating-point
    products of ``_cyl_mass`` in the same order.

    Admissibility is checked once, where a word enters: ``cyl_mass`` checks
    the word a caller names, and ``verify_conformality`` reads it from the
    word's memoized shift image (``cylinders.shift_image``), which checked
    it once per (matrix, word).
    The parts of a normal form need no check, so
    ``measure_setexpr`` reads them unchecked (``_family_mass`` for a
    family): a ``Subbasis`` checks its word, ``normalize`` and
    ``_assemble`` only forced-extend admissible words, which keeps them
    admissible, and a family's symbols are cut to the row of its prefix's
    last letter.
    """

    def point_mass(self, c: BoundedConfig) -> float:
        return 0.0

    def cyl_mass(self, alpha: Word) -> float:
        if not alpha:
            return self.total_mass()
        return self._cyl_mass(alpha) if is_admissible(self.matrix, alpha) else 0.0

    def _family_mass(self, f: CylFamily) -> float:
        """Mass of the union of the cylinders on f.prefix + (k,), k in f.symbols,
        for a family of a normal form."""
        if isinstance(f.symbols, ss.FiniteSet):
            return math.fsum(self._cyl_mass(f.prefix + (k,)) for k in sorted(f.symbols.symbols))
        return self._sieve_mass(f.prefix, f.symbols)

    def _sieve_mass(self, prefix: Word, symbols: ss.Sieve) -> float:
        return self.peel(prefix) * self._sieve_sum(symbols)

    def _sieve_sum(self, s: ss.Sieve) -> float:
        """Sum of base values over a sieve symbol set.

        Uses the row sums ``_tail(j)`` plus inclusion-exclusion over the
        (finitely intersecting) zero rows; the whole alphabet is the union
        of the matrix's cover rows.
        """
        if s.one_row is not None:
            total = self._tail(s.one_row)
        elif not s.zero_rows:
            total = self._tail_union(self.matrix.spec.cover)
        else:
            total = self._sieve_sum(ss.ALL)
            total -= self._tail_union(tuple(sorted(s.zero_rows)))
        return total - math.fsum(self.base_value(k) for k in s.excluded)

    def _tail_union(self, rows: tuple[Symbol, ...]) -> float:
        """Base-value sum over the union of the given row supports.

        Overlaps between irregular rows are finite explicit sets, so the
        multiplicity of every shared symbol is corrected exactly.
        """
        A = self.matrix
        total = math.fsum(self._tail(r) for r in rows)
        shared: set[Symbol] = set()
        for i, r in enumerate(rows):
            for r2 in rows[i + 1:]:
                shared |= A.irregular_rows_intersection(r, r2)
        for k in shared:
            mult = sum(1 for r in rows if A.entry(r, k) == 1)
            if mult > 1:
                total -= (mult - 1) * self.base_value(k)
        return total

    def _factor(self, s: Symbol) -> float:
        """The letter factor lam^-1 exp(beta * weight(s)), kept per letter."""
        f = self._factors.get(s)
        if f is None:
            f = self._factors[s] = math.exp(self.beta * self.weight.value(s)) / self.lam
        return f

    def _product(self, letters: Iterable[Symbol], start: float) -> float:
        """``start`` times each letter's factor, left to right, kept ones read inline."""
        factors = self._factors
        m = start
        for s in letters:
            f = factors.get(s)
            m *= self._factor(s) if f is None else f
        return m

    def _peel_column(self, plan: _RowPlan, start: float) -> list[float]:
        """``_product(word, start)`` of each table word of ``plan``, in table
        order, each its parent's entry times its last letter's factor: the
        products of ``_product``, in its order.  One entry more, the last,
        holds ``start``: the empty word's, the parent of every letter."""
        factors = {s: self._factor(s) for s in plan.alphabet}
        peel = [start] * (len(plan.letters) + 1)
        for i, (p, s) in enumerate(zip(plan.parents, plan.letters)):
            peel[i] = peel[p] * factors[s]
        return peel


# --------------------------------------------------------------------------
# atomic measures on a boundary family
# --------------------------------------------------------------------------

@dataclass(eq=False)
class YFamilyMeasure(Measure):
    """Probability carried by the stems of one boundary family (lam = 1).

    The stem w has mass ``peel(w)``, c_e times its letter weights, and
    ``base_value(k)`` is the stem weight below the letter k.  Cylinder and
    family masses read the continuation sums T(j), the base values summed
    over the row of j (``tails``); one row rule (``_tail``) fills the
    letters they do not name.  A construction supplies only data:
    ``y_measure`` takes c_e and the sums from the one closed form or walk
    of ``normalizer`` that certifies both, and ``log_eigenmeasure`` gives
    the renewal closed form of c_e and no sums, since on renewal the row
    rule fills every T(j).  Letter factors are kept per instance (``Measure._factor``), next
    to the sums T(j); as lam = 1 each is exp(beta * weight(s)).
    """

    matrix: TransitionMatrix
    family: AccumulationColumn
    weight: Potential
    beta: float
    convention: str
    c_e: float
    tails: dict[Symbol, float]
    _factors: dict[Symbol, float] = field(default_factory=dict, init=False, repr=False)

    kind = "y_family"
    lam = 1.0

    def __post_init__(self) -> None:
        self.normalizer_value = 1.0 / self.c_e

    # -- stem weights ---------------------------------------------------------

    def peel(self, w: Word) -> float:
        """c_e times the letter weights of ``w``: the mass the stem ``w`` would carry."""
        return self._product(w, self.c_e)

    def point_mass(self, c: BoundedConfig) -> float:
        if c.matrix is not self.matrix or c.root != self.family:
            return 0.0
        return self.peel(c.stem)

    # -- continuation sums ----------------------------------------------------

    def _tail(self, j: Symbol) -> float:
        """T(j): total weight of admissible continuations after letter j.

        One row rule fills the sums that the normalizer did not hand over.
        A row that holds every letter is followed by every non-empty stem,
        so T(j) = 1/c_e - 1; a forced descent j -> j-1 gives
        T(j) = u(j-1) * ([j-1 terminal] + T(j-1)).  T is filled upward, in a
        loop, from the first letter below j whose sum is known.  A prime row
        of prime renewal past the normalizer's walk counts its descent only:
        its other continuations are longer than the walk's depth, so the
        walk's tail bound covers them.

        Where no letter up to j has a known sum or holds every letter (a
        residue kind whose row 1 is irregular, walked a few layers), the
        fill starts at T(1) = 0.  The walk's sums hold T(k) for every letter
        k that begins a word of layers 2..N, so a letter k missing from them
        begins none: every word d after k that ends in a terminal has
        |d| >= N, and is a stem of its own longer than the walk, which the
        walk's tail bound covers.  So T(1) = 0 within ``tail_bound``.
        """
        tails = self.tails
        if j not in tails:
            k = next((k for k in range(j, 1, -1)
                      if k in tails or self.matrix.row(k) == ss.ALL), 1)
            if k not in tails:
                tails[k] = self.normalizer_value - 1.0 if self.matrix.row(k) == ss.ALL else 0.0
            for i in range(k + 1, j + 1):
                tails[i] = self.base_value(i - 1)
        return tails[j]

    # -- cylinder and family masses --------------------------------------------

    def _term(self, k: Symbol) -> float:
        """[k terminal] + T(k): the stems below the letter k, over its weight."""
        return (1.0 if k in self.family.allowed_terminal_symbols else 0.0) + self._tail(k)

    def _cyl_mass(self, alpha: Word) -> float:
        return self.peel(alpha) * self._term(alpha[-1])

    def _mass_table(self, plan: _RowPlan) -> array:
        """``peel(w) * _term(w[-1])`` of each table word; an atom, its base
        b with the forced run r down to e, weighs ``peel(b + r) * _term(e)``."""
        peel = self._peel_column(plan, self.c_e)
        terms = {s: self._term(s) for s in plan.alphabet}
        letters = plan.letters
        masses = array("d", (x * terms[s] for x, s in zip(peel, letters)))
        masses.extend(self._product(range(letters[b] - 1, e - 1, -1), peel[b]) * terms[e]
                      for b, e in zip(plan.atom_bases, plan.atom_stops))
        return masses

    def base_value(self, k: Symbol) -> float:
        """u(k) * ([k terminal] + T(k)): total stem weight below one letter."""
        return self._factor(k) * self._term(k)

    def total_mass(self) -> float:
        return self.c_e * self.normalizer_value

    def report(self) -> dict:
        return {"kind": self.kind, "family": self.family.id, "beta": self.beta,
                "lambda": self.lam, "c_e": self.c_e, "convention": self.convention}


# --------------------------------------------------------------------------
# measures carried by the sequence space
# --------------------------------------------------------------------------

@dataclass(eq=False)
class SequenceMeasure(Measure):
    """A conformal measure carried by the sequence space.

    Conformality fixes it from the masses of its end letters, those whose
    rows branch.  Every construction lives on a rule kind, where the forced
    extension of the letter n is the descent n, n - 1, ..., e down to
    e = ``A.spec.descent_stop(n)``, so the cylinder on n has mass

        base_value(n) = peel(range(n, e, -1)) * end_masses[e],

    the cylinder on alpha has ``peel(alpha[:-1]) * base_value(alpha[-1])``,
    and a sieve family below ``prefix`` has ``peel(prefix)`` times the
    sieve's base-value sum (``Measure._sieve_sum``).  A construction
    supplies only data: its weight, beta and lam, the end-letter masses,
    the total mass, the base-value sum over each infinite row (``row_sums``,
    read by ``_tail``), and the entries its report adds.  Base values
    and letter factors are kept per instance, so the end-letter masses are
    read, and each lam^-1 exp(beta*weight(s)) evaluated, once per letter.
    """

    kind: str
    matrix: TransitionMatrix
    weight: Potential
    beta: float
    lam: float
    end_masses: dict[Symbol, float]
    total: float
    row_sums: dict[Symbol, float]
    convention: str
    info: dict
    _base: dict[Symbol, float] = field(default_factory=dict, init=False, repr=False)
    _factors: dict[Symbol, float] = field(default_factory=dict, init=False, repr=False)

    def peel(self, head: Sequence[Symbol]) -> float:
        """The factor lam^-1 exp(beta*weight(s)) of every letter s of ``head``:
        in closed form for a constant weight, letter by letter otherwise.
        Where lam^k passes the largest double, the product, which may still
        be one, is taken as a single exponential."""
        if isinstance(self.weight, Constant):
            k = len(head)
            try:
                return math.exp(self.beta * self.weight.c * k) / self.lam ** k
            except OverflowError:
                return math.exp(self.beta * self.weight.c * k - k * math.log(self.lam))
        return self._product(head, 1.0)

    def base_value(self, n: Symbol) -> float:
        """The mass of the cylinder on n; the forced run is peeled as a
        ``range``, in its own order, so a constant weight reads only its
        length."""
        if n not in self._base:
            end = self.matrix.spec.descent_stop(n)
            self._base[n] = self.peel(range(n, end, -1)) * self.end_masses[end]
        return self._base[n]

    def _cyl_mass(self, alpha: Word) -> float:
        return self.peel(alpha[:-1]) * self.base_value(alpha[-1])

    def _mass_table(self, plan: _RowPlan) -> array:
        """``peel(w[:-1]) * base_value(w[-1])`` of each table word; an atom,
        its base b with the forced run r down to e, weighs
        ``peel(b + r[:-1]) * base_value(e)``.  A constant weight peels once
        per length, in closed form, at the word's length - 1; any other
        reads the word's parent in the peel column."""
        bv = {s: self.base_value(s) for s in plan.alphabet}
        letters, bases, stops = plan.letters, plan.atom_bases, plan.atom_stops
        if isinstance(self.weight, Constant):
            table = plan.table
            atom_heads = [len(table[b]) + letters[b] - e - 1 for b, e in zip(bases, stops)]
            peels = [self.peel(range(k))
                     for k in range(max(max(map(len, table)), max(atom_heads, default=0) + 1))]
            masses = array("d", (peels[len(w) - 1] * bv[s] for w, s in zip(table, letters)))
            masses.extend(peels[k] * bv[e] for k, e in zip(atom_heads, stops))
            return masses
        peel = self._peel_column(plan, 1.0)
        masses = array("d", (peel[p] * bv[s] for p, s in zip(plan.parents, letters)))
        masses.extend(self._product(range(letters[b] - 1, e, -1), peel[b]) * bv[e]
                      for b, e in zip(bases, stops))
        return masses

    def _tail(self, j: Symbol) -> float:
        """The base values summed over the row of j, as the construction gave them."""
        return self.row_sums[j]

    def total_mass(self) -> float:
        return self.total

    def report(self) -> dict:
        return {"kind": self.kind, **self.info, "convention": self.convention}


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def y_measure(A: TransitionMatrix, family_id: int, F: Potential, beta: float) -> YFamilyMeasure:
    """The exp(beta*F)-conformal probability on one boundary family.

    Exists iff the normalizing series converges; stem masses are
    c(w) = exp(-beta * F-sum over w) * c(e).  Only a constant F has a
    certified normalizer, so any other potential raises ``Inconclusive``.
    """
    if not isinstance(F, Constant):
        raise Inconclusive(f"no y-measure for potential {F!r} on kind {A.kind}: "
                           "only constant potentials are certified")
    family = A.column_by_id(family_id)
    weight = negate(F)
    res = normalizer(A, family, weight, beta)
    if res.divergent:
        raise AbsenceOfMeasure(
            f"normalizing series diverges on family {family.id} at beta={beta}")
    if res.tail_bound > TAIL_TOL:
        raise Inconclusive("normalizer tail exceeds the certified tolerance")
    return YFamilyMeasure(A, family, weight, beta,
                          f"exp(beta*F)-conformal on family {family_id}",
                          1.0 / res.value, res.tails)


def _matrix(A: TransitionMatrix, kind: str) -> TransitionMatrix:
    if A.kind != kind:
        raise MeasureError(f"this measure is specific to the {kind.replace('_', ' ')} matrix")
    return A


def sarig_measure_renewal(A: TransitionMatrix) -> SequenceMeasure:
    """The renewal eigenmeasure for constant potentials: 2^-(reduced length).

    The reduced length |alpha| - 1 + alpha[-1] is that of the forced
    extension of alpha down to the letter 1.  Independent of beta; for the
    potential -beta it is the eigenmeasure with eigenvalue 2 exp(-beta), so
    lam * exp(-beta * weight) is 2 for every beta.
    """
    return SequenceMeasure(
        "sarig_renewal_const", _matrix(A, "renewal"), negate(UNIT_POTENTIAL), 0.0, 2.0,
        end_masses={1: 0.5}, total=1.0, row_sums={1: 1.0},
        convention="eigenmeasure of the transfer operator for -beta*1, eigenvalue 2*exp(-beta)",
        info={"lambda_role": "2*exp(-beta)"})


def pair_renewal_critical_measure(A: TransitionMatrix) -> SequenceMeasure:
    """The unique sequence-space conformal probability of the pair renewal
    matrix with unit potential, at the critical inverse temperature.

    Rows 1 and 2 branch; the even letters, which row 2 also admits, sum
    geometrically from the mass of the letter 2.
    """
    A = _matrix(A, "pair_renewal")
    b = A.spec.critical_beta
    nu1 = math.exp(-b)
    nu2 = math.exp(-b) * (1.0 - math.exp(-2.0 * b)) / (2.0 * math.sinh(b) - 1.0)
    evens = nu2 / (1.0 - math.exp(-2.0 * b))
    return SequenceMeasure(
        "pair_renewal_critical", A, negate(UNIT_POTENTIAL), b, 1.0, end_masses={1: nu1, 2: nu2},
        total=nu1 + nu2 / (1.0 - math.exp(-b)),
        row_sums={1: 1.0, 2: nu1 + evens},
        convention="exp(beta)-conformal on the sequence space at the critical beta",
        info={"beta": b, "lambda": 1.0, "base_values": {"1": nu1, "2": nu2}})


def pair_renewal_normalization_root() -> float:
    """Root y = exp(-beta) of the probability normalization y^2 + 2y - 1 = 0,
    found by bisection; equals sqrt(2) - 1."""
    return bisect(lambda y: y * y + 2.0 * y - 1.0 < 0.0, 0.0, 1.0, 0.5e-12)


def log_ratio_support(A: TransitionMatrix, beta: float) -> str:
    """Where the renewal log-ratio eigenmeasure lives at beta: on the
    boundary family above the critical inverse temperature, on the sequence
    space at and below it.  The eigenmeasure and the log-ratio phase table
    both read this switch, and through ``_phase_picture`` the catalog's
    ``log_ratio`` flag, the one check that they are on renewal; it needs
    beta > 0."""
    critical, _ = _phase_picture(A, LOG_POTENTIAL)
    if not beta > 0:
        raise ValueError("beta must be positive")
    return "boundary family" if beta > critical else "sequence space"


def log_eigenmeasure(beta: float, A: TransitionMatrix) -> Measure:
    """The unique probability eigenmeasure of the renewal log-ratio potential.

    Above the critical inverse temperature it is atomic on the boundary
    family with c(e) = 2 - zeta(beta).  At and below, it lives on the
    sequence space with eigenvalue lam = exp(pressure), and the letter 1
    has mass 2^-beta / lam, so the letter n has lam^-n (n+1)^-beta.
    """
    if log_ratio_support(A, beta) == "boundary family":
        return YFamilyMeasure(A, A.column_by_id(1), LOG_POTENTIAL, beta,
                              "eigenmeasure of the transfer operator, eigenvalue 1",
                              2.0 - zeta(beta), {})
    bc = beta_c_log()
    lam = math.exp(pressure_log_potential(beta)) if beta < bc else 1.0
    total = normalization_series(beta, lam) if beta < bc else zeta(beta) - 1.0
    return SequenceMeasure(
        "log_eigen_sigma", A, LOG_POTENTIAL, beta, lam, end_masses={1: 2.0 ** -beta / lam},
        total=total, row_sums={1: total},
        convention="eigenmeasure of the transfer operator for beta*F, eigenvalue exp(pressure)",
        info={"beta": beta, "lambda": lam})


@dataclass(frozen=True)
class KindMeasures:
    """The measures a matrix kind has beyond the y-measures, which its
    catalog names (``constructed_measures``).  ``critical`` is (suite key,
    constructor) of the sequence-space measure at the critical beta;
    ``log_ratio`` tells whether the log-ratio eigenmeasures are built.
    """

    critical: tuple[str, Callable[[TransitionMatrix], Measure]]
    log_ratio: bool = False


_KIND_MEASURES: dict[str, KindMeasures] = {
    "renewal": KindMeasures(("sarig_renewal_const", sarig_measure_renewal), log_ratio=True),
    "pair_renewal": KindMeasures(("pair_critical", pair_renewal_critical_measure)),
}


def _phase_picture(A: TransitionMatrix,
                   potential: Potential) -> tuple[float | None, KindMeasures | None]:
    """The critical beta of the potential on A and the kind's catalog entry,
    or None: the one reader of ``_KIND_MEASURES``.

    The tables draw two potentials.  The unit constant's critical beta is
    the kind's, ``critical_beta``, or None on a matrix without a growth
    rate (a stored one, which has no boundary families); the log ratio's is
    ``beta_c_log()``, on a kind whose entry builds the log-ratio
    eigenmeasures (renewal).  Any other potential, or the log ratio on
    another kind, raises ``MeasureError``: no table here draws it.
    """
    known = _KIND_MEASURES.get(A.kind)
    if potential == UNIT_POTENTIAL:
        return A.spec.critical_beta if A.spec.growth else None, known
    if potential != LOG_POTENTIAL:
        raise MeasureError(f"no phase picture for potential {potential!r}: "
                           f"only {UNIT_POTENTIAL!r} and {LOG_POTENTIAL!r} are drawn")
    if known is None or not known.log_ratio:
        raise MeasureError("this measure is specific to the renewal matrix")
    return beta_c_log(), known


def phase_row(A: TransitionMatrix, potential: Potential, beta: float,
              tol: float) -> tuple[str, str, float]:
    """The three columns of the phase table after beta.

    The unit constant gets the boundary column, the sequence column and
    the kind's critical beta.  The boundary column is the growth band's
    answer, with ``"exists"`` read off the catalog: one measure, one per
    family (n extremal), or one per family of a truncated, countably
    infinite catalog.  The sequence column says whether beta is within
    ``tol`` of the critical beta, where the kind's critical measure lives;
    a kind without one is not classified.  A matrix without boundary
    families has no phase table.  The log-ratio potential gets the support
    of its one eigenmeasure (``log_ratio_support``, renewal only), which
    exists at every beta, and its critical beta.  Any other potential is
    refused (``_phase_picture``).
    """
    critical, known = _phase_picture(A, potential)
    if potential == LOG_POTENTIAL:
        return log_ratio_support(A, beta), "1 eigenmeasure for every beta", critical
    catalog = A.accumulation_catalog
    if not catalog:
        raise MeasureError(f"no phase table for kind {A.kind}")
    boundary = growth_band(A, negate(potential), beta)
    if boundary == "exists":
        boundary = ("1 per family (countably many)" if A.spec.truncated
                    else f"{len(catalog)} extremal" if len(catalog) > 1 else "1 measure")
    if known is None:
        return boundary, "not classified", critical
    return boundary, "1 measure" if abs(beta - critical) <= tol else "absent", critical


def convergence(A: TransitionMatrix,
                potential: Potential) -> tuple[float, Callable[[float], Measure], Measure]:
    """The critical beta of the potential on A, the net beta -> measure
    that approaches it from above, and the measure at it, the net's
    weak-star limit: the y-measures of family 1 and the kind's critical
    sequence measure for the unit constant, the renewal log-ratio
    eigenmeasures for the log ratio.  Any other potential is refused
    (``_phase_picture``).
    """
    critical, known = _phase_picture(A, potential)
    if potential == LOG_POTENTIAL:
        return critical, (lambda b: log_eigenmeasure(b, A)), log_eigenmeasure(critical, A)
    if known is None:
        raise MeasureError(f"no convergence construction for kind {A.kind}")
    return critical, (lambda b: y_measure(A, 1, potential, b)), known.critical[1](A)


def constructed_measures(A: TransitionMatrix, beta: float) -> dict[str, Measure]:
    """The measures built on A at beta, by suite key: the critical sequence
    measure, where the kind has one; the y-measure of the unit constant on
    every boundary family where ``growth_band`` says it exists, keyed
    ``y_family`` on a one-family catalog and ``y_family_<id>`` otherwise;
    and the renewal log eigenmeasure at beta, which needs beta > 0.
    """
    _, known = _phase_picture(A, UNIT_POTENTIAL)
    out: dict[str, Measure] = {}
    if known is not None:
        name, build = known.critical
        out[name] = build(A)
    catalog = A.accumulation_catalog
    if catalog and growth_band(A, negate(UNIT_POTENTIAL), beta) == "exists":
        out.update((f"y_family_{col.id}" if len(catalog) > 1 else "y_family",
                    y_measure(A, col.id, UNIT_POTENTIAL, beta)) for col in catalog)
    if known is not None and known.log_ratio:
        out["log_eigenmeasure"] = log_eigenmeasure(beta, A)
    return out


# --------------------------------------------------------------------------
# evaluation on set expressions
# --------------------------------------------------------------------------

def measure_setexpr(m: Measure, s: SetExpr) -> float:
    """Measure of a normalized set expression: points + cylinders + families.

    The parts of a normal form are admissible by construction, so no word
    of them is checked again (see ``Measure``)."""
    if s.matrix is not m.matrix:
        raise MeasureError("set expression over a different matrix")
    if s.whole_space:
        return m.total_mass()
    parts = [m.point_mass(p) for p in s.points]
    parts += [m._cyl_mass(a) for a in s.atoms]
    parts += [m._family_mass(f) for f in s.families]
    return math.fsum(parts)


# --------------------------------------------------------------------------
# conformality verification
# --------------------------------------------------------------------------

@dataclass
class ConformalityReport:
    max_residual: float


class _RowPlan(NamedTuple):
    """What the conformality rows over one word list read, whatever the
    measure (``_conformality_rows``).

    ``table`` holds the words, each after its parent: ``parents[i]`` is the
    position of the parent of ``table[i]``, -1 for a letter, and
    ``letters[i]`` its last letter.  A planned atom is the forced extension
    of a table word, its base: ``atom_bases[k]`` is the base's position and
    ``atom_stops[k]`` the letter its run stops at, so the run is
    ``range(letters[b] - 1, stop - 1, -1)``.  ``alphabet`` holds the
    table's letters and the stops, each once.

    The masses of a check are the measure's ``_mass_table`` (table words,
    then planned atoms), then ``measure_setexpr`` of each of ``images``,
    then 0.0.  Row j weighs ``masses[lhs[j]]`` against ``masses[rhs[j]]``
    times the factor of its first letter ``firsts[j]``; ``first_letters``
    holds each first letter once.  An image's index counts from the end,
    where 0.0 is last, since the number of atoms is known only once every
    row is planned.
    """

    table: tuple[Word, ...]
    parents: array
    letters: tuple[Symbol, ...]
    alphabet: tuple[Symbol, ...]
    atom_bases: array
    atom_stops: tuple[Symbol, ...]
    images: tuple[SetExpr, ...]
    firsts: tuple[Symbol, ...]
    first_letters: tuple[Symbol, ...]
    lhs: array
    rhs: array


@lru_cache(maxsize=None)
def _conformality_rows(A: TransitionMatrix, words: tuple[Word, ...]) -> _RowPlan:
    """The plan of the conformality rows over ``words``: what they read
    that no measure changes.  Planned once per (matrix, word tuple), like
    ``cylinders.shift_image``: it depends on nothing else, and the suites
    check many measures over one word list.  The unmemoized function is
    ``_conformality_rows.__wrapped__``.

    The table is the word list itself when each word's parent comes before
    it, as in a sorted prefix-closed list, and otherwise the sorted set of
    the words and their prefixes.  A row reads its word's mass unless the
    word is inadmissible, which is when its image is empty (see
    ``verify_conformality``).  An image that is exactly one atom is, on a
    rule kind, the forced extension of its base (``words.forced_extension``):
    the word's tail alpha[1:], or for a one-letter word the atom's first
    letter.  The row reads the atom's mass from the table when the base is
    in it: the base's own mass when its run is empty, else a planned atom,
    one per distinct base.  Every other image goes through
    ``measure_setexpr``.  The columns of positions are arrays of C ints,
    so a long word list's plan holds no int object per word.
    """
    if not all(words):
        raise ValueError("conformality needs non-empty cylinder words")
    # A word as long as the longest is no parent or tail of another, so on
    # a list that is its own table only shorter words need their position:
    # a row reads its own word at its own index.
    limit = max(2, max(map(len, words)))
    table = words
    position = {w: i for i, w in enumerate(table) if len(w) < limit}
    position[()] = -1
    parents = array("i", (position.get(w[:-1], -2) for w in table))   # -2: not listed
    if -2 in parents or not all(map(int.__lt__, parents, range(len(table)))):
        table = tuple(sorted({w[:k] for w in words for k in range(1, len(w) + 1)}))
        position = dict(zip(table, range(len(table))))
        position[()] = -1
        parents = array("i", (position[w[:-1]] for w in table))
    letters = tuple(w[-1] for w in table)
    stop = A.spec.descent_stop
    stop_of = {s: stop(s) for s in set(letters)} if stop else {}
    atom_of = array("i", [-1]) * len(table)
    bases, lhs, rhs = array("i"), array("i"), array("i")
    stops: list[Symbol] = []
    images: list[SetExpr] = []
    for i, alpha in enumerate(words):
        s = shift_image(A, alpha)
        one_atom = len(s.atoms) == 1 and not (s.points or s.families or s.whole_space)
        reads_mass = one_atom or len(alpha) == 1 or not s.is_empty
        rhs.append((i if table is words else position[alpha]) if reads_mass else -1)
        b = None
        if one_atom and stop:
            b = position.get(alpha[1:] if len(alpha) > 1 else s.atoms[0][:1])
        if b is None:
            images.append(s)
            lhs.append(-1 - len(images))
            continue
        if atom_of[b] < 0:
            e = stop_of[letters[b]]
            atom_of[b] = b if e == letters[b] else len(table) + len(stops)
            if e != letters[b]:
                bases.append(b)
                stops.append(e)
        lhs.append(atom_of[b])
    del position, atom_of   # before the last columns, which would raise a long list's peak
    firsts = tuple(alpha[0] for alpha in words)
    return _RowPlan(table, parents, letters, tuple({*letters, *stops}), bases, tuple(stops),
                    tuple(reversed(images)), firsts, tuple(set(firsts)), lhs, rhs)


def _conformality_residuals(m: Measure, test_cylinders: Iterable[Word]) -> Iterator[float]:
    """|mu(shift(C)) - lam exp(-beta*weight(first letter)) mu(C)| for each
    word, in order, as an iterator over the masses of one check, so that
    ``verify_conformality`` keeps only the worst of them."""
    words = tuple(test_cylinders)
    if not words:
        raise ValueError("conformality needs at least one cylinder word")
    plan = _conformality_rows(m.matrix, words)
    masses = m._mass_table(plan)
    masses.extend([measure_setexpr(m, s) for s in plan.images])
    masses.append(0.0)
    factors = {a: m.lam * math.exp(-m.beta * m.weight.value(a)) for a in plan.first_letters}
    return (abs(masses[i] - factors[a] * masses[j])
            for a, i, j in zip(plan.firsts, plan.lhs, plan.rhs))


def verify_conformality(m: Measure, test_cylinders: Iterable[Word]) -> ConformalityReport:
    """Residuals of mu(shift(C)) = lam exp(-beta*weight(first letter)) mu(C),
    with the measure's own weight, beta and lam.

    Cylinders are special sets, and the shift image of a cylinder is again
    expressible in the normal form, so both sides are closed-form or
    certified series evaluations.  For a sequence measure the rows of
    length >= 2 are near-tautologies, since its masses are built by the
    same peel; the length-one rows, which weigh end-letter masses against
    sieve sums and point masses, are the independent check.

    What a row needs besides the measure is planned once per (matrix, word
    tuple) by ``_conformality_rows``, and every later check over the same
    words, by any measure, reads it back.  Each check fills the measure's
    mass table over the plan once (``Measure._mass_table``), and each row
    reads two entries of it: the mass of its word, and that of its image's
    one atom, which is ``_cyl_mass(atom)``, so ``measure_setexpr`` of the
    image (the fsum of one number is that number).  Every other image goes
    through ``measure_setexpr``.  The factor lam exp(-beta*weight(a)) is
    formed once per first letter a per call, the same product as per row.

    Admissibility is checked once per (matrix, word), where the image is
    built, and never per measure: a single letter is admissible, and a
    longer word is admissible exactly when its image is non-empty (the
    image holds the atom alpha[1:]).  So the right-hand side reads the
    word's mass unchecked, or 0 on an empty image, which is ``cyl_mass``
    on every word; the image's parts are read unchecked too.  A check over
    no cylinder would read as a pass, so an empty word list is refused, as
    is an empty word, and a nan residual makes the worst residual nan.
    """
    return ConformalityReport(worst(_conformality_residuals(m, test_cylinders)))


# --------------------------------------------------------------------------
# weak-star sweeps
# --------------------------------------------------------------------------

@dataclass
class SweepRow:
    beta: float
    set_id: str
    value: float
    target: float

    @property
    def diff(self) -> float:
        return abs(self.value - self.target)


def weak_star_sweep(model_of_beta: Callable[[float], Measure],
                    target: Measure, basis: Sequence[tuple[str, SetExpr]],
                    beta_grid: Sequence[float]) -> list[SweepRow]:
    """Evaluate a net of measures against a target on basis sets, one row
    per (beta, basis set)."""
    rows: list[SweepRow] = []
    for b in beta_grid:
        mb = model_of_beta(b)
        for set_id, expr in basis:
            rows.append(SweepRow(b, set_id, measure_setexpr(mb, expr),
                                 measure_setexpr(target, expr)))
    return rows


def measure_report_json(m: Measure, max_du_residual: float) -> str:
    d = m.report()
    d["total_mass"] = m.total_mass()
    d["max_DU_residual"] = max_du_residual
    return json.dumps(d, sort_keys=True)
