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
           of their letter-weight products,

which close into exact linear systems on the renewal and pair renewal
matrices and are otherwise summed by a generation dynamic program with a
certified geometric tail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import symbolsets as ss
from .configs import BoundedConfig
from .cylinders import CylFamily, SetExpr, normalize
from .matrices import KINDS, AccumulationColumn, Symbol, TransitionMatrix
from .thermo import (LOG_POTENTIAL, Constant, GDiff, Potential, beta_c_log,
                     normalization_series, pressure_log_potential, zeta)
from .words import Word, forced_extension, is_admissible


def negate(F: Potential) -> Potential:
    """The potential -F; a difference potential negates its g and its name."""
    if isinstance(F, Constant):
        return Constant(-F.c)
    name = F.name[1:] if F.name.startswith("-") else "-" + F.name
    return GDiff(lambda s, g=F.g: -g(s), name)


class MeasureError(ValueError):
    pass


class AbsenceOfMeasure(MeasureError):
    """The normalizing series diverges: no finite measure on this family."""


class Inconclusive(MeasureError):
    """Neither the convergence nor the divergence certificate applies."""


# --------------------------------------------------------------------------
# generation counts and the normalizer
# --------------------------------------------------------------------------

def family_generation_counts(A: TransitionMatrix, family: AccumulationColumn,
                             n_max: int) -> list[int]:
    """Exact generation sizes of the family's preimage tree, n = 0..n_max."""
    counts = [1]
    layer: dict[Symbol, int] = {t: 1 for t in sorted(family.allowed_terminal_symbols)}
    for _ in range(n_max):
        counts.append(sum(layer.values()))
        nxt: dict[Symbol, int] = {}
        for sym, c in layer.items():
            for p in A.predecessors(sym):
                nxt[p] = nxt.get(p, 0) + c
        layer = nxt
    return counts


def _pair_tails(u: float, terminals: frozenset[Symbol]) -> dict[Symbol, float]:
    """Continuation sums T(1), T(2), T(3) for the pair renewal matrix.

    T(j >= 4) = u^(j-3) T(3).  The sums close because the only branching
    rows are 1 (everything) and 2 (one plus the evens); the geometric
    pieces over the forced descents are summed analytically.
    """
    if KINDS["pair_renewal"].growth[1] * u >= 1.0:
        raise AbsenceOfMeasure("continuation series diverges on the pair renewal matrix")
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


@dataclass
class NormalizerResult:
    value: float
    tail_bound: float
    status: str          # "finite" | "divergent"

    @property
    def divergent(self) -> bool:
        return self.status == "divergent"


def normalizer(A: TransitionMatrix, family: AccumulationColumn, weight: Potential,
               beta: float, lam: float = 1.0, tail_tol: float = 1e-13,
               length_cap: int = 400) -> NormalizerResult:
    """1/c_e = 1 + sum over non-empty family stems of their letter weights.

    Closed forms on the renewal and pair renewal matrices; enumeration with
    a geometric tail certificate elsewhere.  Divergence is certified by the
    lower growth bound; the prime-renewal band between the bounds raises
    ``Inconclusive``.
    """
    if isinstance(weight, Constant):
        x = math.exp(beta * weight.c) / lam
        if A.spec is None:
            raise Inconclusive(f"no certified growth rate for kind {A.kind}")
        lower, upper = A.spec.growth
        if lower * x >= 1.0:
            return NormalizerResult(math.inf, math.inf, "divergent")
        if upper * x >= 1.0:
            raise Inconclusive(
                "between the divergence bound (growth "
                f"{lower:g}) and the convergence bound (growth {upper:g})")
        if A.kind == "renewal":
            r = 2.0 * x
            return NormalizerResult(1.0 + 0.5 * r / (1.0 - r), 0.0, "finite")
        if A.kind == "pair_renewal":
            tails = _pair_tails(x, family.allowed_terminal_symbols)
            return NormalizerResult(1.0 + tails[1], 0.0, "finite")
        rho = upper * x
        depth = min(length_cap, max(8, int(math.log(tail_tol * (1 - rho))
                                           / math.log(rho)) + 2))
        counts = family_generation_counts(A, family, depth)
        value = math.fsum(c * x ** n for n, c in enumerate(counts))
        tail = rho ** (depth + 1) / (1.0 - rho)
        return NormalizerResult(value, tail, "finite")
    if A.kind == "renewal" and weight == LOG_POTENTIAL and lam == 1.0:
        # eigenmeasure weights: the stem series sums to 1/(2 - zeta) - 1
        if beta <= 1.0 or zeta(beta) >= 2.0:
            return NormalizerResult(math.inf, math.inf, "divergent")
        return NormalizerResult(1.0 / (2.0 - zeta(beta)), 1e-13, "finite")
    raise Inconclusive(f"no certificate for weight {weight!r} on kind {A.kind}")


# --------------------------------------------------------------------------
# atomic measures on a boundary family
# --------------------------------------------------------------------------

class YFamilyMeasure:
    """Probability carried by the stems of one boundary family."""

    kind = "y_family"

    def __init__(self, A: TransitionMatrix, family: AccumulationColumn,
                 weight: Potential, beta: float, lam: float = 1.0,
                 c_e: float | None = None, convention: str = "",
                 tail_tol: float = 1e-13, length_cap: int = 400):
        self.matrix = A
        self.family = family
        self.weight = weight
        self.beta = beta
        self.lam = lam
        self.tail_tol = tail_tol
        self.convention = convention
        if c_e is None:
            res = normalizer(A, family, weight, beta, lam, tail_tol, length_cap)
            if res.divergent:
                raise AbsenceOfMeasure(
                    f"normalizing series diverges on family {family.id} at beta={beta}")
            if res.tail_bound > tail_tol:
                raise Inconclusive("normalizer tail exceeds the requested tolerance")
            c_e = 1.0 / res.value
        self.c_e = c_e
        self.normalizer_value = 1.0 / c_e
        self._tails: dict[Symbol, float] = {}
        self._cont: tuple[dict[Symbol, float], float] | None = None

    # -- stem weights ---------------------------------------------------------

    def _u(self, s: Symbol) -> float:
        return math.exp(self.beta * self.weight.value(s)) / self.lam

    def stem_mass(self, w: Word) -> float:
        """Mass of the configuration with stem ``w`` (0 if no such stem)."""
        if w and (not is_admissible(self.matrix, w)
                  or w[-1] not in self.family.allowed_terminal_symbols):
            return 0.0
        m = self.c_e
        for s in w:
            m *= self._u(s)
        return m

    def point_mass(self, c: BoundedConfig) -> float:
        if c.matrix != self.matrix or c.root != self.family:
            return 0.0
        return self.stem_mass(c.stem)

    # -- continuation sums ----------------------------------------------------

    def _tail(self, j: Symbol) -> float:
        """T(j): total weight of admissible continuations after letter j."""
        if j in self._tails:
            return self._tails[j]
        A = self.matrix
        if A.kind == "renewal":
            if j == 1:
                t = self.normalizer_value - 1.0
            else:
                t = self._u(j - 1) * (self._tail(j - 1) + (1.0 if j - 1 == 1 else 0.0))
        elif A.kind == "pair_renewal":
            if not isinstance(self.weight, Constant):
                raise Inconclusive("pair renewal continuation sums need a constant weight")
            base = _pair_tails(self._u(1), self.family.allowed_terminal_symbols)
            self._tails.update(base)
            if j in self._tails:
                return self._tails[j]
            t = self._u(1) ** (j - 3) * base[3]
        else:
            cont, _ = self._generic_cont()
            t = cont.get(j, 0.0)
        self._tails[j] = t
        return t

    def _generic_cont(self) -> tuple[dict[Symbol, float], float]:
        """T(j) for all relevant j by a generation walk, plus the tail bound."""
        if self._cont is not None:
            return self._cont
        if not isinstance(self.weight, Constant):
            raise Inconclusive(
                f"continuation sums on kind {self.matrix.kind} need a constant weight")
        A = self.matrix
        _, upper = A.spec.growth
        u = self._u(1)
        rho = upper * u
        if rho >= 1.0:
            raise AbsenceOfMeasure("continuation series diverges")
        p_max = 3.0
        depth = max(8, int(math.log(self.tail_tol * (1.0 - rho) / p_max)
                           / math.log(rho)) + 2)
        cont: dict[Symbol, float] = {}
        layer = {t: u for t in self.family.allowed_terminal_symbols}
        for _ in range(depth):
            nxt: dict[Symbol, float] = {}
            for sym, x in layer.items():
                for p in A.predecessors(sym):
                    cont[p] = cont.get(p, 0.0) + x
                    nxt[p] = nxt.get(p, 0.0) + u * x
            layer = nxt
        tail_bound = p_max * rho ** (depth + 1) / (1.0 - rho)
        self._cont = (cont, tail_bound)
        return self._cont

    # -- cylinder and family masses --------------------------------------------

    def cyl_mass(self, alpha: Word) -> float:
        if not alpha:
            return self.total_mass()
        if not is_admissible(self.matrix, alpha):
            return 0.0
        head = self.c_e
        for s in alpha:
            head *= self._u(s)
        terminal = 1.0 if alpha[-1] in self.family.allowed_terminal_symbols else 0.0
        return head * (terminal + self._tail(alpha[-1]))

    def _letter_weight(self, k: Symbol) -> float:
        """u(k) * ([k terminal] + T(k)): total stem weight below one letter."""
        t = 1.0 if k in self.family.allowed_terminal_symbols else 0.0
        return self._u(k) * (t + self._tail(k))

    def _sieve_sum(self, s: ss.Sieve) -> float:
        """Sum of letter weights over a sieve symbol set.

        Uses T(j) = sum over the row of j of the letter weights, plus
        inclusion-exclusion over the (finitely intersecting) zero rows; the
        whole alphabet is the union of the matrix's cover rows.
        """
        if s.one_row is not None:
            total = self._tail(s.one_row)
        elif not s.zero_rows:
            total = self._tail_union(self.matrix.spec.cover)
        else:
            total = self._sieve_sum(ss.Sieve(None, frozenset(), frozenset()))
            total -= self._tail_union(tuple(sorted(s.zero_rows)))
        return total - math.fsum(self._letter_weight(k) for k in s.excluded)

    def _tail_union(self, rows: tuple[Symbol, ...]) -> float:
        """Letter-weight sum over the union of the given row supports.

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
                total -= (mult - 1) * self._letter_weight(k)
        return total

    def family_mass(self, prefix: Word, symbols: ss.SymbolSet) -> float:
        if prefix and not is_admissible(self.matrix, prefix):
            return 0.0
        if isinstance(symbols, ss.FiniteSet):
            return math.fsum(self.cyl_mass(prefix + (k,))
                             for k in sorted(symbols.symbols))
        head = self.c_e
        for s in prefix:
            head *= self._u(s)
        return head * self._sieve_sum(symbols)

    def total_mass(self) -> float:
        return self.c_e * self.normalizer_value

    def report(self) -> dict:
        return {"kind": self.kind, "family": self.family.id, "beta": self.beta,
                "lambda": self.lam, "c_e": self.c_e, "convention": self.convention}


def _plain_sieve_excluded(symbols: ss.Sieve) -> frozenset[Symbol]:
    """Complement description of a sieve on a matrix without irregular rows."""
    if symbols.one_row is not None or symbols.zero_rows:
        raise MeasureError("unexpected row predicate on this matrix")
    return symbols.excluded


# --------------------------------------------------------------------------
# measures carried by the sequence space
# --------------------------------------------------------------------------

class SarigRenewalConst:
    """The renewal eigenmeasure for constant potentials: 2^-(reduced length).

    Independent of beta; for the potential -beta it is the eigenmeasure
    with eigenvalue 2 exp(-beta), so the conformality factor is exactly 2.
    """

    kind = "sarig_renewal_const"

    def __init__(self, A: TransitionMatrix):
        if A.kind != "renewal":
            raise MeasureError("this measure is specific to the renewal matrix")
        self.matrix = A
        self.weight: Potential = Constant(-1.0)
        self.beta = 0.0
        self.lam = 2.0   # lam * exp(-beta * weight) is 2 for every beta
        self.convention = ("eigenmeasure of the transfer operator for -beta*1, "
                           "eigenvalue 2*exp(-beta)")

    def point_mass(self, c: BoundedConfig) -> float:
        return 0.0

    def cyl_mass(self, alpha: Word) -> float:
        if not alpha:
            return 1.0
        if not is_admissible(self.matrix, alpha):
            return 0.0
        return 2.0 ** (-len(forced_extension(self.matrix, alpha)))

    def family_mass(self, prefix: Word, symbols: ss.SymbolSet) -> float:
        if prefix and not is_admissible(self.matrix, prefix):
            return 0.0
        if isinstance(symbols, ss.FiniteSet):
            return math.fsum(self.cyl_mass(prefix + (k,)) for k in sorted(symbols.symbols))
        excl = _plain_sieve_excluded(symbols)
        # the reduced length of prefix + (k,) is |prefix| + k, so the full
        # sum over k telescopes to 2^-|prefix|
        return 2.0 ** (-len(prefix)) * (1.0 - math.fsum(2.0 ** (-k) for k in excl))

    def total_mass(self) -> float:
        return 1.0

    def report(self) -> dict:
        return {"kind": self.kind, "lambda_role": "2*exp(-beta)",
                "convention": self.convention}


class PairRenewalCritical:
    """The unique sequence-space conformal probability of the pair renewal
    matrix with unit potential, at the critical inverse temperature."""

    kind = "pair_renewal_critical"

    def __init__(self, A: TransitionMatrix):
        if A.kind != "pair_renewal":
            raise MeasureError("this measure is specific to the pair renewal matrix")
        self.matrix = A
        self.beta = A.spec.critical_beta
        self.weight: Potential = Constant(-1.0)
        self.lam = 1.0
        self.convention = "exp(beta)-conformal on the sequence space at the critical beta"
        b = self.beta
        self.base_values: dict[Symbol, float] = {
            1: math.exp(-b),
            2: math.exp(-b) * (1.0 - math.exp(-2.0 * b)) / (2.0 * math.sinh(b) - 1.0),
        }

    def base_value(self, n: Symbol) -> float:
        if n in self.base_values:
            return self.base_values[n]
        return math.exp(-self.beta * (n - 2)) * self.base_values[2]

    def point_mass(self, c: BoundedConfig) -> float:
        return 0.0

    def cyl_mass(self, alpha: Word) -> float:
        if not alpha:
            return 1.0
        if not is_admissible(self.matrix, alpha):
            return 0.0
        return math.exp(-self.beta * (len(alpha) - 1)) * self.base_value(alpha[-1])

    def _even_sum(self) -> float:
        return self.base_values[2] / (1.0 - math.exp(-2.0 * self.beta))

    def family_mass(self, prefix: Word, symbols: ss.SymbolSet) -> float:
        if prefix and not is_admissible(self.matrix, prefix):
            return 0.0
        if isinstance(symbols, ss.FiniteSet):
            return math.fsum(self.cyl_mass(prefix + (k,)) for k in sorted(symbols.symbols))
        scale = math.exp(-self.beta * len(prefix))
        s = symbols
        if s.one_row is None and not s.zero_rows:
            total = 1.0
        elif s.one_row == 2 and not s.zero_rows:
            total = self.base_value(1) + self._even_sum()
        elif s.one_row is None and s.zero_rows == frozenset({2}):
            total = 1.0 - self.base_value(1) - self._even_sum()
        else:  # pragma: no cover - no other sieves arise on this matrix
            raise MeasureError(f"unsupported sieve {s!r} for the pair renewal measure")
        return scale * (total - math.fsum(self.base_value(k) for k in s.excluded))

    def total_mass(self) -> float:
        return self.base_value(1) + self.base_values[2] / (1.0 - math.exp(-self.beta))

    def report(self) -> dict:
        return {"kind": self.kind, "beta": self.beta, "lambda": self.lam,
                "base_values": {str(k): self.base_values[k] for k in (1, 2)},
                "convention": self.convention}


class LogEigenSigma:
    """Sequence-space eigenmeasure of the log-ratio potential for beta <= beta_c.

    Length-one masses are lam^-n (n+1)^-beta with lam = exp(pressure);
    longer cylinders peel first letters off through the conformality
    relation.
    """

    kind = "log_eigen_sigma"

    def __init__(self, A: TransitionMatrix, beta: float):
        if A.kind != "renewal":
            raise MeasureError("this measure is specific to the renewal matrix")
        bc = beta_c_log()
        if beta > bc:
            raise MeasureError("above the critical beta the eigenmeasure leaves "
                               "the sequence space")
        self.matrix = A
        self.beta = beta
        self.weight: Potential = LOG_POTENTIAL
        if beta < bc:
            self.lam = math.exp(pressure_log_potential(beta))
            self.unit_sum = normalization_series(beta, self.lam)
        else:
            self.lam = 1.0
            self.unit_sum = zeta(beta) - 1.0
        self.convention = ("eigenmeasure of the transfer operator for beta*F, "
                           "eigenvalue exp(pressure)")

    def base_value(self, n: Symbol) -> float:
        return self.lam ** (-n) * (n + 1.0) ** (-self.beta)

    def point_mass(self, c: BoundedConfig) -> float:
        return 0.0

    def _peel(self, head: Word) -> float:
        m = 1.0
        for s in head:
            m *= math.exp(self.beta * self.weight.value(s)) / self.lam
        return m

    def cyl_mass(self, alpha: Word) -> float:
        if not alpha:
            return self.total_mass()
        if not is_admissible(self.matrix, alpha):
            return 0.0
        return self._peel(alpha[:-1]) * self.base_value(alpha[-1])

    def family_mass(self, prefix: Word, symbols: ss.SymbolSet) -> float:
        if prefix and not is_admissible(self.matrix, prefix):
            return 0.0
        if isinstance(symbols, ss.FiniteSet):
            return math.fsum(self.cyl_mass(prefix + (k,)) for k in sorted(symbols.symbols))
        excl = _plain_sieve_excluded(symbols)
        return self._peel(prefix) * (self.unit_sum
                                     - math.fsum(self.base_value(k) for k in excl))

    def total_mass(self) -> float:
        return self.unit_sum

    def report(self) -> dict:
        return {"kind": self.kind, "beta": self.beta, "lambda": self.lam,
                "convention": self.convention}


class ConvexCombination:
    """Nonnegative convex combination of measures over the same matrix."""

    kind = "convex_combination"

    def __init__(self, parts: Sequence[tuple[float, "MeasureModel"]]):
        if not parts:
            raise MeasureError("empty combination")
        if any(w < 0 for w, _ in parts):
            raise MeasureError("weights must be nonnegative")
        if abs(math.fsum(w for w, _ in parts) - 1.0) > 1e-12:
            raise MeasureError("weights must sum to 1")
        if len({m.matrix for _, m in parts}) != 1:
            raise MeasureError("all components must live over the same matrix")
        self.parts = list(parts)
        self.matrix = parts[0][1].matrix
        self.beta = parts[0][1].beta
        self.weight = parts[0][1].weight
        self.lam = parts[0][1].lam
        self.convention = "convex combination"

    def point_mass(self, c: BoundedConfig) -> float:
        return math.fsum(w * m.point_mass(c) for w, m in self.parts)

    def cyl_mass(self, alpha: Word) -> float:
        return math.fsum(w * m.cyl_mass(alpha) for w, m in self.parts)

    def family_mass(self, prefix: Word, symbols: ss.SymbolSet) -> float:
        return math.fsum(w * m.family_mass(prefix, symbols) for w, m in self.parts)

    def total_mass(self) -> float:
        return math.fsum(w * m.total_mass() for w, m in self.parts)

    def report(self) -> dict:
        return {"kind": self.kind, "parts": [[w, m.report()] for w, m in self.parts]}


MeasureModel = Union[YFamilyMeasure, SarigRenewalConst, PairRenewalCritical,
                     LogEigenSigma, ConvexCombination]


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def y_measure(A: TransitionMatrix, family_id: int, F: Potential, beta: float,
              tail_tol: float = 1e-13, length_cap: int = 400) -> YFamilyMeasure:
    """The exp(beta*F)-conformal probability on one boundary family.

    Exists iff the normalizing series converges; stem masses are
    c(w) = exp(-beta * F-sum over w) * c(e).
    """
    family = A.column_by_id(family_id)
    return YFamilyMeasure(A, family, negate(F), beta, lam=1.0,
                          convention=f"exp(beta*F)-conformal on family {family_id}",
                          tail_tol=tail_tol, length_cap=length_cap)


def sarig_measure_renewal(A: TransitionMatrix | None = None) -> SarigRenewalConst:
    from .matrices import by_kind
    return SarigRenewalConst(A if A is not None else by_kind("renewal"))


def pair_renewal_critical_measure(A: TransitionMatrix | None = None) -> PairRenewalCritical:
    from .matrices import by_kind
    return PairRenewalCritical(A if A is not None else by_kind("pair_renewal"))


def pair_renewal_normalization_root(tol: float = 1e-12) -> float:
    """Root y = exp(-beta) of the probability normalization y^2 + 2y - 1 = 0,
    found by bisection; equals sqrt(2) - 1."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * mid + 2.0 * mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * 0.5:
            break
    return 0.5 * (lo + hi)


def log_eigenmeasure(beta: float, A: TransitionMatrix | None = None) -> MeasureModel:
    """The unique probability eigenmeasure of the renewal log-ratio potential.

    Above the critical inverse temperature it is atomic on the boundary
    family with c(e) = 2 - zeta(beta); at and below, it lives on the
    sequence space with eigenvalue exp(pressure).
    """
    from .matrices import by_kind
    if A is None:
        A = by_kind("renewal")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if beta > beta_c_log():
        c_e = 2.0 - zeta(beta)
        return YFamilyMeasure(A, A.column_by_id(1), LOG_POTENTIAL, beta, lam=1.0, c_e=c_e,
                              convention="eigenmeasure of the transfer operator, eigenvalue 1")
    return LogEigenSigma(A, beta)


@dataclass(frozen=True)
class KindMeasures:
    """The measures constructed on one matrix family.

    With the constant potential the boundary families carry y-measures
    above the critical beta ``A.spec.critical_beta``: ``boundary`` says how
    many for the phase table, and ``y_families`` lists (suite key, family)
    for the conformality suite.  ``critical`` is (suite key, constructor)
    of the sequence-space measure at the critical beta, when one is known.
    ``log_ratio`` tells whether the log-ratio eigenmeasures are built.
    """

    boundary: str
    y_families: tuple[tuple[str, int], ...]
    critical: tuple[str, Callable[[TransitionMatrix], MeasureModel]] | None
    log_ratio: bool = False


KIND_MEASURES: dict[str, KindMeasures] = {
    "renewal": KindMeasures("1 measure", (("y_family", 1),),
                            ("sarig_renewal_const", sarig_measure_renewal), log_ratio=True),
    "pair_renewal": KindMeasures("2 extremal", (("y_family_1", 1), ("y_family_2", 2)),
                                 ("pair_critical", pair_renewal_critical_measure)),
    "prime_renewal": KindMeasures("1 per family (countably many)", (), None),
}


def extend_by_conformality(m: MeasureModel, alpha: Word, weight: Potential | None = None,
                           beta: float | None = None, lam: float | None = None) -> float:
    """Cylinder mass by peeling first letters through the conformality relation.

    mu(C_alpha) = lam^-1 exp(beta*weight(alpha0)) mu(C_(alpha minus its first
    letter)), iterated down to the length-one base value.  Defaults to the
    measure's own parameters; used as an independent recursion against
    ``cyl_mass``.
    """
    if not alpha:
        raise ValueError("need a non-empty word")
    weight = weight if weight is not None else m.weight
    beta = beta if beta is not None else m.beta
    lam = lam if lam is not None else m.lam
    value = m.cyl_mass(alpha[-1:])
    for s in reversed(alpha[:-1]):
        value *= math.exp(beta * weight.value(s)) / lam
    return value


# --------------------------------------------------------------------------
# evaluation on set expressions
# --------------------------------------------------------------------------

def measure_setexpr(m: MeasureModel, s: SetExpr) -> float:
    """Measure of a normalized set expression: points + cylinders + families."""
    if s.matrix != m.matrix:
        raise MeasureError("set expression over a different matrix")
    if s.whole_space:
        return m.total_mass()
    parts = [m.point_mass(p) for p in s.points]
    parts += [m.cyl_mass(a) for a in s.atoms]
    parts += [m.family_mass(f.prefix, f.symbols) for f in s.families]
    return math.fsum(parts)


# --------------------------------------------------------------------------
# conformality verification
# --------------------------------------------------------------------------

def shift_image_of_cylinder(A: TransitionMatrix, alpha: Word) -> SetExpr:
    """The forward shift image of C_alpha as a normalized set expression.

    For longer words the image is the cylinder on the word minus its first
    letter; for a single letter it is the union of the admissible follower
    cylinders plus the empty-stem configurations whose family admits the
    letter as a terminal.
    """
    if not alpha:
        raise ValueError("the shift is not defined on the whole space")
    if len(alpha) >= 2:
        return normalize(A, atoms=[alpha[1:]])
    a = alpha[0]
    points = [BoundedConfig(A, (), col) for col in A.accumulation_catalog
              if a in col.allowed_terminal_symbols]
    return normalize(A, points=points, families=[CylFamily((), ss.row_one(A, a))])


@dataclass
class ConformalityReport:
    max_residual: float
    rows: list[tuple[Word, float, float, float]]  # word, lhs, rhs, residual


def verify_conformality(m: MeasureModel, test_cylinders: Iterable[Word],
                        weight: Potential | None = None, beta: float | None = None,
                        lam: float | None = None) -> ConformalityReport:
    """Residuals of mu(shift(C)) = lam exp(-beta*weight(first letter)) mu(C).

    Cylinders are special sets, and the shift image of a cylinder is again
    expressible in the normal form, so both sides are closed-form or
    certified series evaluations.
    """
    weight = weight if weight is not None else m.weight
    beta = beta if beta is not None else m.beta
    lam = lam if lam is not None else m.lam
    A = m.matrix
    rows = []
    worst = 0.0
    for alpha in test_cylinders:
        if not alpha:
            raise ValueError("conformality needs non-empty cylinder words")
        lhs = measure_setexpr(m, shift_image_of_cylinder(A, alpha))
        rhs = lam * math.exp(-beta * weight.value(alpha[0])) * m.cyl_mass(alpha)
        resid = abs(lhs - rhs)
        worst = max(worst, resid)
        rows.append((alpha, lhs, rhs, resid))
    return ConformalityReport(worst, rows)


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


def weak_star_sweep(model_of_beta: Callable[[float], MeasureModel],
                    target: MeasureModel, basis: Sequence[tuple[str, SetExpr]],
                    beta_grid: Sequence[float]) -> tuple[list[SweepRow], bool]:
    """Evaluate a net of measures against a target on basis sets.

    Returns the table and a flag telling whether the worst deviation
    decreases monotonically along the grid.
    """
    rows: list[SweepRow] = []
    worst_per_beta: list[float] = []
    for b in beta_grid:
        mb = model_of_beta(b)
        worst = 0.0
        for set_id, expr in basis:
            val = measure_setexpr(mb, expr)
            tgt = measure_setexpr(target, expr)
            rows.append(SweepRow(b, set_id, val, tgt))
            worst = max(worst, abs(val - tgt))
        worst_per_beta.append(worst)
    monotone = all(worst_per_beta[i + 1] <= worst_per_beta[i] + 1e-15
                   for i in range(len(worst_per_beta) - 1))
    return rows, monotone


def measure_report_json(m: MeasureModel, max_du_residual: float | None = None) -> str:
    d = m.report()
    d["total_mass"] = m.total_mass()
    if max_du_residual is not None:
        d["max_DU_residual"] = max_du_residual
    return json.dumps(d, sort_keys=True)
