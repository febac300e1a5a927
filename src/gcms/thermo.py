"""Potentials, partition functions, pressures, and the discriminant.

Potentials depend on the first coordinate only, so all higher variations
vanish and the super-additivity of partition functions holds without a
correction constant.  Partition functions are exact (column supports are
finite on every built-in matrix).  A word's term exp(beta * sum of F)
depends only on the exact sum of F over its letters, and every double is an
integer multiple of 2**-1074, so one backward walk counts the words by first
letter and exact integer sum, for every potential (``_layers``).  The walk
yields every layer, and layer n holds the words of length n, so one walk
gives the whole run Z_1..Z_N (``z_series``), and a per-n call reads its
last layer.  Each layer's total (``_layer_total``) forms each distinct
sum's term once, from the correctly rounded sum that ``math.fsum`` gives,
and count times term is added exactly and rounded once: the result is bit
for bit the ``math.fsum`` of the enumerated words' terms.  Its log comes
from the same counts, scaled by the largest term, so it stays finite where
the value underflows or overflows.
Series with infinite tails carry an explicit Euler-Maclaurin remainder
bound: the power sums behind zeta, and the log-ratio normalization series,
whose tail is summed in closed form through the incomplete gamma function.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .configs import BoundedConfig, Configuration, empty_stem_config, preimages
from .matrices import Symbol, TransitionMatrix, by_kind
from .words import Word


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """F(x) = c."""

    c: float = 1.0

    def value(self, s: Symbol) -> float:
        return self.c

    def __repr__(self) -> str:
        return f"Constant({self.c})"


@dataclass(frozen=True)
class GDiff:
    """F(x) = g(x0) - g(x0 + 1) for a user-supplied g.

    Two of them are equal when their g and name are.
    """

    g: Callable[[Symbol], float]
    name: str = "g"

    def value(self, s: Symbol) -> float:
        return self.g(s) - self.g(s + 1)

    def __repr__(self) -> str:
        return f"GDiff({self.name})"


Potential = Constant | GDiff

LOG_POTENTIAL = GDiff(math.log, "log")

# the unit constant: the phase and convergence tables draw it and LOG_POTENTIAL
UNIT_POTENTIAL = Constant(1.0)


def LogRatio() -> GDiff:
    """The log-ratio potential F(x) = log(x0) - log(x0 + 1), i.e. ``LOG_POTENTIAL``.

    Increasing in x0 with supremum 0, which is not attained.
    """
    return LOG_POTENTIAL


# --------------------------------------------------------------------------
# partition functions
# --------------------------------------------------------------------------

_SCALE = 1 << 1074      # every finite double is an integer multiple of 2**-1074
_INDEX_BITS = 32        # a key's low bits: its first letter's index (far below 2**32)
_INDEX_MASK = (1 << _INDEX_BITS) - 1


def _scaled(x: float) -> int:
    """x * 2**1074, an exact integer for every finite double x."""
    num, den = x.as_integer_ratio()      # den is a power of two, at most 2**1074
    return num << (1075 - den.bit_length())


@dataclass
class ZValue:
    value: float
    n_terms: int
    exact: bool
    log: float      # log Z_n: finite wherever a word is counted, -inf where none is

    def __float__(self) -> float:
        return self.value


def _layers(A: TransitionMatrix, F: Potential, seeds: Iterable[Symbol],
            keep: Callable[[Symbol], bool] | None = None
            ) -> Iterator[tuple[dict[int, int], list[Symbol]]]:
    """The backward walk from ``seeds``: yields layer n after n - 1 steps,
    for n = 1, 2, ..., with the letters by index.  One walk gives every
    layer, and layer n is the same dict whichever layer a caller stops at.

    Layer n counts the admissible words of length n that end in a seed by
    key; each step prepends every predecessor that ``keep`` admits (the
    seed position is not pruned).  A key holds a word's exact sum of F less
    len * F(1), in units of 2**-1074, above the index of its first letter:
    one integer addition per edge moves both, and a constant potential keeps
    every key small.
    """
    f1 = F.value(1)
    ref = _scaled(f1)
    letters: list[Symbol] = []
    index: dict[Symbol, int] = {}
    rel_f: list[int] = []                   # scaled F(s) - F(1), by index
    rows: list[list[int] | None] = []

    def index_of(s: Symbol) -> int:
        if s not in index:
            index[s] = len(letters)
            letters.append(s)
            f = F.value(s)
            rel_f.append(0 if f == f1 else _scaled(f) - ref)
            rows.append(None)
        return index[s]

    def row(i: int) -> list[int]:
        steps = []
        for p in A.predecessors(letters[i]):
            if keep is None or keep(p):
                j = index_of(p)
                steps.append((rel_f[j] << _INDEX_BITS) + j - i)
        rows[i] = steps
        return steps

    layer = {(rel_f[i] << _INDEX_BITS) + i: 1 for i in map(index_of, seeds)}
    while True:
        yield layer, letters
        nxt: dict[int, int] = {}
        for key, count in layer.items():
            steps = rows[key & _INDEX_MASK]
            if steps is None:
                steps = row(key & _INDEX_MASK)
            for step in steps:
                k = key + step
                nxt[k] = nxt.get(k, 0) + count
        layer = nxt


def _nth(walk: Iterator[tuple[dict[int, int], list[Symbol]]], n: int
         ) -> tuple[dict[int, int], list[Symbol]]:
    """Layer n of a walk, after n - 1 steps and no more."""
    return next(itertools.islice(walk, n - 1, None))


def _layer_total(layer: dict[int, int], letters: list[Symbol], F: Potential, beta: float,
                 n: int, first: Callable[[Symbol], bool] | None = None) -> ZValue:
    """Sum of exp(beta * sum of F) over the words of layer n whose first
    letter ``first`` admits, bit for bit the ``math.fsum`` over the
    enumerated words (see the module docstring).

    A sum over 2**1074 is a correctly rounded int division, so it is the
    ``math.fsum`` of F over the word.  No word forms no term, so a term
    that would overflow is never formed; where one is formed, or the sum
    passes the largest double, the value is inf.  The log is
    ``math.log(value)`` where the value is a normal double.  Elsewhere it
    is the largest term's exponent plus the log of the sum of the terms
    scaled by it, from the same exact counts, so it is finite wherever a
    word is counted, whether the value underflows or overflows.
    """
    counts: dict[int, int] = {}
    for key, count in layer.items():
        if first is None or first(letters[key & _INDEX_MASK]):
            rel = key >> _INDEX_BITS
            counts[rel] = counts.get(rel, 0) + count
    shift = n * _scaled(F.value(1))
    try:
        value = sum(count * _scaled(math.exp(beta * ((rel + shift) / _SCALE)))
                    for rel, count in counts.items()) / _SCALE
    except OverflowError:       # a term, or the sum, above the largest double
        value = math.inf
    if sys.float_info.min <= value < math.inf:
        log = math.log(value)
    elif counts:
        exponents = [(beta * ((rel + shift) / _SCALE), count) for rel, count in counts.items()]
        top = max(e for e, _ in exponents)
        scaled = sum(count * _scaled(math.exp(e - top)) for e, count in exponents)
        log = top + math.log(scaled / _SCALE)
    else:
        log = -math.inf
    return ZValue(value, sum(counts.values()), True, log)


def _cycle_walk(A: TransitionMatrix, F: Potential, base: Symbol, first_return: bool
                ) -> tuple[Iterator[tuple[dict[int, int], list[Symbol]]],
                           Callable[[Symbol], bool]]:
    """The walk and first-letter filter of ``words.iter_cycles(A, n, base)``'s
    one cycle rule: a cycle (base, t_1, ..., t_n-1) sums F as its rotation
    (t_1, ..., t_n-1, base) does, a backward word ending in base whose first
    letter base may precede.  A first-return cycle's rotation has no base
    before its last letter, so the walk keeps no other."""
    keep = (lambda s: s != base) if first_return else None
    return _layers(A, F, (base,), keep), lambda s: A.entry(base, s) == 1


def _cycle_sum(A: TransitionMatrix, F: Potential, beta: float, base: Symbol, n: int,
               first_return: bool) -> ZValue:
    """The partition function over the length-n cycles, from layer n of the
    cycle walk."""
    if n < 1:
        raise ValueError("n must be >= 1")
    walk, closes = _cycle_walk(A, F, base, first_return)
    layer, letters = _nth(walk, n)
    return _layer_total(layer, letters, F, beta, n, closes)


def z_n(A: TransitionMatrix, F: Potential, beta: float, base: Symbol, n: int) -> ZValue:
    """Partition function over length-n cycles through ``base``; exact, since the
    backward walk over the finite column supports reaches every cycle, which
    it counts by exact Birkhoff sum (see the module docstring)."""
    return _cycle_sum(A, F, beta, base, n, first_return=False)


def z_n_star(A: TransitionMatrix, F: Potential, beta: float, base: Symbol, n: int) -> ZValue:
    """Partition function restricted to cycles whose first return is exactly n;
    counted by exact Birkhoff sum as in ``z_n``."""
    return _cycle_sum(A, F, beta, base, n, first_return=True)


def z_series(A: TransitionMatrix, F: Potential, beta: float, base: Symbol, n_max: int,
             first_return: bool) -> list[ZValue]:
    """[Z_1, ..., Z_n_max] through ``base`` from one walk: Z*_n, as
    ``z_n_star`` gives it, with ``first_return``, and Z_n, as ``z_n`` gives
    it, without.  Item n - 1 is ``==`` the per-n value, as layer n of the
    walk is the same whichever layer a caller stops at."""
    walk, closes = _cycle_walk(A, F, base, first_return)
    return [_layer_total(layer, letters, F, beta, n, closes)
            for n, (layer, letters) in zip(range(1, n_max + 1), walk)]


def _matmul(X: list[list[float]], Y: list[list[float]]) -> list[list[float]]:
    """The matrix product X Y, each entry one ``math.fsum`` of its products."""
    columns = list(zip(*Y))
    return [[math.fsum(map(operator.mul, row, col)) for col in columns] for row in X]


def z_n_transfer(A: TransitionMatrix, F: Potential, beta: float, base: Symbol, n: int,
                 symbol_bound: Symbol) -> float:
    """Independent evaluation of z_n via weighted transfer-matrix powers.

    W[i][j] = exp(beta * F(i)) A(i, j) on the letters up to ``symbol_bound``
    is raised to the power n >= 1 by repeated squaring, multiplying the
    squares into the result from the lowest bit of n up, the order of
    ``numpy.linalg.matrix_power`` for n >= 4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    letters = range(1, symbol_bound + 1)
    square = [[math.exp(beta * F.value(i)) * A.entry(i, j) for j in letters] for i in letters]
    power = None
    while True:
        n, bit = divmod(n, 2)
        if bit:
            power = square if power is None else _matmul(power, square)
        if not n:
            return power[base - 1][base - 1]
        square = _matmul(square, square)


def pointwise_z(A: TransitionMatrix, F: Potential, beta: float, x: Configuration,
                n: int) -> ZValue:
    """Weighted count of the n-step shift preimages of the point ``x``.

    A preimage prepends a length-n admissible head to ``x``; for a
    boundary point with empty stem the head itself must end in one of the
    root's terminal letters.  The heads are counted by exact Birkhoff sum
    as in ``z_n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(x, BoundedConfig) and not x.stem:
        # heads become the whole stem, so they must end in a terminal letter
        seeds: Iterable[Symbol] = x.root.allowed_terminal_symbols
    elif isinstance(x, BoundedConfig):
        seeds = A.predecessors(x.stem[0])
    else:
        seeds = A.predecessors(x.symbol_at(0))
    layer, letters = _nth(_layers(A, F, seeds), n)
    return _layer_total(layer, letters, F, beta, n)


def worst(residuals: Iterable[float]) -> float:
    """The largest of non-negative residuals (0.0 over none), or nan if one is:
    ``max`` keeps a nan only where it comes first, so it would read as a pass."""
    top = 0.0
    for r in residuals:
        top = r if math.isnan(r) else max(top, r)
    return top


def superadditivity_check(A: TransitionMatrix, F: Potential, beta: float, base: Symbol,
                          n_max: int) -> None:
    """Verify Z_n * Z_m <= Z_{n+m} for all n + m <= n_max; raises on the
    first counterexample, a nan included.  First-coordinate potentials have
    vanishing variations, so the inequality carries no slack constant.

    It is checked on the logs, log Z_n + log Z_m <= log Z_{n+m}, with a
    rounding slack of 1e-12 times the left side's size (1e-12 below size
    1): a Z_n that underflows to 0 or overflows to inf would pass the
    product form unchecked.  An empty set of n-cycles has log -inf, which
    passes.
    """
    logs = [math.nan] + [z.log for z in z_series(A, F, beta, base, n_max, False)]
    for n in range(1, n_max):
        for m in range(1, n_max - n + 1):
            lhs, rhs = logs[n] + logs[m], logs[n + m]
            if not (lhs <= rhs or lhs - rhs <= 1e-12 * max(1.0, abs(lhs))):   # a nan fails too
                raise AssertionError(f"superadditivity fails at n={n}, m={m}: log Z_n + "
                                     f"log Z_m = {lhs} > log Z_n+m = {rhs}")


# --------------------------------------------------------------------------
# Gurevich pressure
# --------------------------------------------------------------------------

@dataclass
class PressureEstimate:
    values: list[tuple[int, float]]        # (n, (1/n) log Z_n)
    extrapolated: float
    certificate: str                       # "exact" | "limit"


def gurevich_pressure(A: TransitionMatrix, F: Potential, beta: float, base: Symbol,
                      n_max: int) -> PressureEstimate:
    """Finite-n pressure data plus an extrapolation.

    The certificate is "exact" when a closed form pins the limit.  A
    constant potential c on a kind whose growth rate is certified
    (``growth[0] == growth[1]``) gives the Gurevich entropy plus beta * c,
    ``critical_beta + beta * c``, at every base, as the rule kinds are
    irreducible (see ``MatrixKind``).  The renewal matrix with the
    log-ratio potential at base 1 gives the root of the normalization
    series.  Otherwise it is "limit", and the extrapolation is the slope of
    log Z_n between the last two n with Z_n > 0, which are p apart on a
    matrix of period p, or (1/n) log Z_n where only one n has Z_n > 0.
    Where none has, there is no slope, and a ``ValueError`` says so.  The
    logs are ``ZValue.log``, read from one walk (``z_series``), so a Z_n
    that underflows or overflows a double still has its finite log.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    logs = [z.log for z in z_series(A, F, beta, base, n_max, False)]
    values = [(n, log / n) for n, log in enumerate(logs, 1)]
    growth = A.spec.growth
    if isinstance(F, Constant) and growth is not None and growth[0] == growth[1]:
        return PressureEstimate(values, A.spec.critical_beta + beta * F.c, "exact")
    if A.kind == "renewal" and base == 1 and F == LOG_POTENTIAL:
        return PressureEstimate(values, pressure_log_potential(beta), "exact")
    finite = [(n, v) for n, v in enumerate(logs, 1) if math.isfinite(v)]
    if not finite:
        raise ValueError(f"Z_n is 0, or below the least double, at base {base} for every "
                         f"n <= {n_max}: no pressure slope")
    if len(finite) >= 2:
        (n2, l2), (n1, l1) = finite[-2:]
        extrap = (l1 - l2) / (n1 - n2)
    else:
        n1, l1 = finite[0]
        extrap = l1 / n1
    return PressureEstimate(values, extrap, "limit")


# --------------------------------------------------------------------------
# zeta and power-sum tails (Euler-Maclaurin with a remainder certificate)
# --------------------------------------------------------------------------

class DomainError(ValueError):
    pass


_BERNOULLI = [1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6]
_FACT = [math.factorial(2 * (k + 1)) for k in range(len(_BERNOULLI))]


def _em_tail(beta: float, N: int) -> tuple[float, float]:
    """(sum over n >= N of n^-beta, remainder bound), anchored at N.

    For real exponents the remainder after the k-th Bernoulli correction is
    bounded by the magnitude of the first omitted correction.
    """
    tail = N ** (1.0 - beta) / (beta - 1.0) + 0.5 * N ** (-beta)
    terms = len(_BERNOULLI) - 1          # B_2 .. B_12, as in ``_phi``
    rising = beta
    corr = 0.0
    for k in range(terms):
        corr += _BERNOULLI[k] / _FACT[k] * rising * N ** (-beta - 2 * k - 1)
        rising *= (beta + 2 * k + 1) * (beta + 2 * k + 2)
    bound = abs(_BERNOULLI[terms] / _FACT[terms]) * rising * N ** (-beta - 2 * terms - 1)
    return tail + corr, bound


def power_sum_tail(beta: float, start: int, tol: float = 1e-14) -> float:
    """sum over n >= start of n^-beta, remainder certified below ``tol``."""
    if beta <= 1.0 + 1e-9:
        raise DomainError("power sums require beta > 1")
    N = max(start, 16)
    tail, bound = _em_tail(beta, N)
    if not math.isfinite(bound):
        raise DomainError(f"the power-sum tail bound is not finite at beta = {beta:g}")
    if bound > tol:
        raise DomainError(f"the power-sum tail bound {bound:.3g} is above {tol:g} "
                          f"at beta = {beta:g}")
    head = math.fsum(n ** (-beta) for n in range(start, N))
    return head + tail


def zeta(beta: float) -> float:
    """Riemann zeta on (1, inf), absolute error below 1e-13."""
    if not beta > 1.0 + 1e-9:    # nan included
        raise DomainError("zeta(beta) requires beta > 1")
    return power_sum_tail(beta, 1, 1e-13)


def bisect(below: Callable[[float], bool], lo: float, hi: float, tol: float) -> float:
    """The root in [lo, hi] of a function whose sign ``below`` tells (true
    left of the root): the midpoint once the bracket is ``tol`` wide, or
    after 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# discriminant of the log-ratio potential
# --------------------------------------------------------------------------

def first_return_rows(beta: float) -> list[tuple[int, float, float]]:
    """(n, Z*_n, (n+1)^-beta) for n <= 14: the first-return partition
    function of the renewal log-ratio potential through the letter 1, from
    one walk (``z_series``), beside the power law it follows."""
    zs = z_series(by_kind("renewal"), LOG_POTENTIAL, beta, 1, 14, True)
    return [(n, z.value, (n + 1.0) ** -beta) for n, z in enumerate(zs, 1)]


@dataclass
class DiscriminantResult:
    series_value: float
    closed_form: float


def discriminant_log(beta: float) -> DiscriminantResult:
    """Discriminant of the renewal log-ratio potential, two ways.

    The head of the first-return series, ``first_return_rows``, is checked
    term by term against the pattern (k+1)^-beta, which fixes the
    convergence radius at 1; the tail follows that pattern and is summed
    under the Euler-Maclaurin certificate.  The closed form is log(zeta(beta)
    - 1), summed from n = 2 as zeta(beta) - 1.0 cancels at large beta.  For
    beta <= 1 the series diverges and the discriminant is +infinity.
    """
    if beta <= 1.0:
        return DiscriminantResult(math.inf, math.inf)
    rows = first_return_rows(beta)
    if any(abs(z - law) > 1e-9 * law for _, z, law in rows):
        raise RuntimeError("first-return head does not match the power pattern")
    head_sum = math.fsum(z for _, z, _ in rows)  # radius 1, so the head weights are exactly 1
    tail = power_sum_tail(beta, len(rows) + 2)
    return DiscriminantResult(math.log(head_sum + tail), math.log(power_sum_tail(beta, 2)))


# --------------------------------------------------------------------------
# pressure of the log-ratio potential
# --------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329
# (-1)^k zeta(k) / k for k = 2 .. 59, the Taylor coefficients of lgamma(1+s)/s
_LGAMMA_COEFFS = tuple((-1) ** k * power_sum_tail(k, 1, 1e-17) / k for k in range(2, 60))


def _expm1_ratio(x: float) -> float:
    """expm1(x) / x, continued by 1 at x = 0."""
    return math.expm1(x) / x if x else 1.0


def _gamma_minus_pole(s: float, log_z: float) -> float:
    """Gamma(s) - z^s / s for |s| < 1/2, free of the cancellation at s = 0.

    It is (Gamma(1+s) - 1)/s - expm1(s log z)/s, where log Gamma(1+s) is
    -gamma s + sum over k >= 2 of (-1)^k zeta(k) s^k / k; at s = 0 it is
    -gamma - log z.
    """
    lg_over_s = 0.0
    for c in reversed(_LGAMMA_COEFFS):
        lg_over_s = lg_over_s * s + c
    lg_over_s = lg_over_s * s - _EULER_GAMMA
    return (lg_over_s * _expm1_ratio(s * lg_over_s)
            - log_z * _expm1_ratio(s * log_z))


def _scaled_upper_gamma(s: float, a: float, m: int) -> float:
    """a^-s Gamma(s, a m), the upper incomplete gamma function, for a > 0, s <= 2.

    For z = a m >= 1.5 a Lentz continued fraction; below it Gamma(s) minus
    the lower series for s >= 1/2, the same with its pole term taken out
    near s = 0 (``_gamma_minus_pole``), and the recurrence
    s Gamma(s, z) = Gamma(s+1, z) - z^s e^-z from there down.  The scale
    a^-s z^s = m^s keeps small ``a`` from overflowing.  Orders well above z
    pass the fraction's convergence test with a wrong value, so orders
    above 2 are refused; ``_phi`` passes 1 - beta, and beta >= -1.
    """
    if s > 2.0:
        raise ValueError(f"the incomplete gamma needs an order s <= 2, not {s}")
    z = a * m
    if z >= 1.5:
        tiny = 1e-300
        b = z + 1.0 - s
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for i in range(1, 1000):
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
            if abs(d * c - 1.0) <= 1e-16:
                return m ** s * math.exp(-z) * h
        raise RuntimeError("incomplete gamma continued fraction did not converge")
    if s <= -0.5:
        steps = int(-0.5 - s) + 1
        g = _scaled_upper_gamma(s + steps, a, m)
        for t in range(steps - 1, -1, -1):
            g = (a * g - m ** (s + t) * math.exp(-z)) / (s + t)
        return g
    # the lower series: z^s times the sum over k of (-z)^k / (k! (s + k)),
    # whose k = 0 term goes to _gamma_minus_pole near s = 0
    near_zero = abs(s) < 0.5
    lower, term = 0.0, 1.0
    for k in range(200):
        if k or not near_zero:
            lower += term / (s + k)
        term *= -z / (k + 1)
        if abs(term) <= 1e-18 * abs(lower):
            break
    if near_zero:
        head = a ** -s * _gamma_minus_pole(s, math.log(z))
    else:
        head = a ** -s * math.gamma(s)
    return head - m ** s * lower


def _phi(beta: float, a: float) -> tuple[float, float]:
    """(Phi, remainder bound) for Phi = sum over n >= 1 of e^-an (n+1)^-beta, a > 0.

    The terms n < N = 40 are summed directly.  The rest is the integral of
    f(x) = e^-ax (x+1)^-beta from N, which is e^a a^(beta-1) Gamma(1-beta, a(N+1)),
    plus f(N)/2 and six Euler-Maclaurin corrections, the derivatives of f at N
    taken by the Leibniz rule.  For beta >= 0, f is completely monotone, so the
    remainder is at most 2 zeta(12)/(2 pi)^12 |f^(11)(N)| = |B_12|/12! |f^(11)(N)|.
    """
    N, m = 40, 41
    terms = [math.exp(-a * n) * (n + 1.0) ** -beta for n in range(1, N)]
    terms.append(math.exp(a) * _scaled_upper_gamma(1.0 - beta, a, m))
    f_n = math.exp(-a * N) * m ** -beta
    terms.append(0.5 * f_n)
    # (-1)^j f^(j)(N) / f(N) = sum over i <= j of C(j, i) a^(j-i) (beta)_i (N+1)^-i
    corrections = len(_BERNOULLI) - 1          # B_2 .. B_12
    order = 2 * corrections - 1
    rising = [1.0]
    for i in range(order):
        rising.append(rising[-1] * (beta + i) / m)
    powers = [a ** i for i in range(order + 1)]
    for k in range(corrections):
        j = 2 * k + 1
        deriv = f_n * math.fsum(math.comb(j, i) * powers[j - i] * rising[i]
                                for i in range(j + 1))
        terms.append(_BERNOULLI[k] / _FACT[k] * deriv)
    bound = abs(_BERNOULLI[-2] / _FACT[-2] * deriv)
    return math.fsum(terms), bound


def normalization_series(beta: float, lam: float) -> float:
    """Phi(lam) = sum over n >= 1 of lam^-n (n+1)^-beta, for lam > 1.

    Constant cost at every lam: 39 terms summed directly and an
    Euler-Maclaurin tail in closed form (see ``_phi``), for beta >= -1.
    For beta >= 0 the tail's remainder has a certified bound, which stays
    below 1e-20.
    """
    if not (math.isfinite(beta) and math.isfinite(lam)):
        raise ValueError(f"the normalization series needs finite beta and lam, "
                         f"not {beta} and {lam}")
    if lam <= 1.0:
        raise ValueError("the normalization series needs lam > 1")
    return _phi(beta, math.log(lam))[0]


@functools.cache
def beta_c_log() -> float:
    """The critical inverse temperature of the log-ratio potential, where
    zeta equals 2 (about 1.72865), bisected once and kept."""
    return bisect(lambda b: zeta(b) > 2.0, 1.1, 3.0, 1e-13)


def pressure_log_potential(beta: float) -> float:
    """Gurevich pressure of the renewal log-ratio potential.

    Zero at and above the critical inverse temperature.  Below it, the root
    a = log lam of Phi(e^a) = 1, which lies in (0, log 2] by the pressure
    upper bound log 2 + beta * sup F = log 2.  Phi is convex and decreasing
    in a with derivative -(Phi_{beta-1} - Phi_beta), since
    n (n+1)^-beta = (n+1)^(1-beta) - (n+1)^-beta.  Steps of a factor 16 down
    from log 2 find a point left of the root; Newton steps from there rise
    monotonically to it, and a step that leaves the bracket is replaced by
    bisection.  The root is returned only if |Phi - 1| plus the series'
    remainder bound is at most 1e-11, and a RuntimeError is raised otherwise.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, not {beta}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if beta >= beta_c_log():
        return 0.0
    lo, hi = 0.0, math.log(2.0)      # Phi > 1 just right of lo, Phi < 1 at hi
    a = hi
    phi, bound = _phi(beta, a)
    # a root below 1e-30 would put beta closer to beta_c than doubles there are spaced
    while phi < 1.0 and a > 1e-30:
        hi, a = a, a / 16.0
        phi, bound = _phi(beta, a)
    for _ in range(100):
        if phi > 1.0:
            lo = a
        elif phi < 1.0 and lo > 0.0:
            hi = a
        else:       # the root, or no point left of it above 1e-30
            break
        nxt = a + (phi - 1.0) / (_phi(beta - 1.0, a)[0] - phi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - a) <= 1e-15 * a
        a = nxt
        phi, bound = _phi(beta, a)
        if done:
            break
    if abs(phi - 1.0) + bound > 1e-11:
        raise RuntimeError(f"log-ratio pressure at beta={beta} not certified: "
                           f"|Phi - 1| = {abs(phi - 1.0):.3g}, remainder bound {bound:.3g}")
    return a


# --------------------------------------------------------------------------
# pointwise-pressure apparatus: the two-piece partition of word sets
# --------------------------------------------------------------------------

@dataclass
class JnTnReport:
    ok: bool
    max_transport_residual: float


def _t_map(alpha: Word, x_stem: Word) -> Word:
    a0, x0 = alpha[0], x_stem[0]
    descent = tuple(range(x0 + a0, x0, -1))
    return alpha[a0:] + descent + x_stem


def jn_tn(A: TransitionMatrix, x: BoundedConfig, n: int, potential: GDiff) -> JnTnReport:
    """Partition of the stems of sigma^-n(x) into J_n and T_n.

    Both word sets are shift preimages from ``configs.preimages``: W_n(1),
    the stems of sigma^-n of the empty-stem point, are the length-n words
    ending in 1, and the target is the stems of sigma^-n(x), the length
    n+|stem| words ending in the stem of ``x``.  J_n glues a word of W_n(1)
    directly onto the stem; T_n reroutes it through the descent above the
    stem's first letter.  Checks injectivity, disjointness, and exact cover,
    and evaluates the Birkhoff transport identity of rerouted words under
    the difference potential, reporting the worst residual.
    """
    if A.kind != "renewal":
        raise ValueError("the word-set partition is specific to the renewal matrix")
    if not x.stem:
        raise ValueError("x must have a non-empty stem")
    if n < 1:
        raise ValueError("n must be >= 1")
    w_n_1 = [c.stem for c in preimages(empty_stem_config(A, 1), n)]
    j_image = [alpha + x.stem for alpha in w_n_1]
    t_image = [_t_map(alpha, x.stem) for alpha in w_n_1]
    target = [c.stem for c in preimages(x, n)]
    ok = (len(set(j_image)) == len(j_image)
          and len(set(t_image)) == len(t_image)
          and not set(j_image) & set(t_image)
          and sorted(j_image + t_image) == sorted(target))
    g, x0 = potential.g, x.stem[0]
    lhs = [math.fsum(potential.value(s) for s in t_alpha[:n]) for t_alpha in t_image]
    rhs = [math.fsum(potential.value(s) for s in alpha)
           + g(x0 + 1) - g(x0 + alpha[0] + 1) + g(alpha[0] + 1) - g(1) for alpha in w_n_1]
    return JnTnReport(ok, worst(abs(l - r) for l, r in zip(lhs, rhs)))
