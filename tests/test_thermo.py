import dataclasses
import math

import mpmath
import pytest

from gcms import matrices, thermo
from gcms.configs import BoundedConfig, UnboundedConfig, bounded, empty_stem_config
from gcms.thermo import (Constant, DomainError, GDiff, LOG_POTENTIAL, LogRatio, ZValue,
                         beta_c_log,
                         discriminant_log, gurevich_pressure, jn_tn, normalization_series,
                         pointwise_z, power_sum_tail, pressure_log_potential,
                         superadditivity_check, z_n, z_n_star, z_n_transfer, zeta)
from gcms.words import backward_words, iter_cycles


# -- potentials and Birkhoff sums ------------------------------------------------

def birkhoff_sum(F, beta, w):
    """beta times the sum of F over the letters of ``w``: the term of one
    enumerated word, which the partition functions must reproduce bit for bit."""
    if not w:
        raise ValueError("Birkhoff sum of the empty word")
    return beta * math.fsum(F.value(s) for s in w)


def test_birkhoff_examples():
    # descending first-return word: the log-ratio sums telescope to -log(n+1)
    w = (1, 4, 3, 2)
    assert birkhoff_sum(LogRatio(), 1.0, w) == pytest.approx(-math.log(5), abs=1e-14)
    assert birkhoff_sum(Constant(1.0), 2.0, (5, 5, 5)) == pytest.approx(6.0)
    assert birkhoff_sum(LogRatio(), 1.0, (1,)) == pytest.approx(math.log(0.5))
    with pytest.raises(ValueError):
        birkhoff_sum(LogRatio(), 1.0, ())


def test_potential_bounds():
    assert Constant(3.0).value(7) == 3.0
    assert LOG_POTENTIAL.value(3) == pytest.approx(math.log(3) - math.log(4))
    # the log ratio increases towards its supremum 0, which it never attains
    assert all(LOG_POTENTIAL.value(s) < LOG_POTENTIAL.value(s + 1) < 0 for s in range(1, 50))


# -- partition functions -----------------------------------------------------------

def test_z_n_closed_form(renewal):
    beta = 0.85
    for n in (1, 2, 5, 9):
        z = z_n(renewal, Constant(-1.0), beta, 1, n)
        assert z.exact
        assert z.value == pytest.approx(2 ** (n - 1) * math.exp(-beta * n), rel=1e-14)


def test_z_n_counts_at_beta_zero(renewal):
    assert z_n(renewal, LogRatio(), 0.0, 1, 3).value == pytest.approx(4.0)


def test_z_n_logratio_by_hand(renewal):
    # cycles of length 2 through 1 are (1,1) and (1,2)
    z = z_n(renewal, LogRatio(), 1.0, 1, 2)
    assert z.value == pytest.approx(0.25 + 1.0 / 3.0, rel=1e-14)


def test_z_n_transfer_oracle(renewal, pair):
    for A, base in ((renewal, 1), (pair, 2)):
        for n in (2, 4, 6):
            direct = z_n(A, LogRatio(), 1.3, base, n).value
            via_matrix = z_n_transfer(A, LogRatio(), 1.3, base, n, 12)
            assert direct == pytest.approx(via_matrix, rel=1e-12)


def _numpy_transfer_power(A, F, beta, n, symbol_bound):
    """W^n by ``numpy.linalg.matrix_power``, W[i][j] = exp(beta F(i)) A(i, j)."""
    import numpy as np
    W = np.zeros((symbol_bound, symbol_bound))
    for i in range(1, symbol_bound + 1):
        for j in range(1, symbol_bound + 1):
            if A.entry(i, j) == 1:
                W[i - 1, j - 1] = math.exp(beta * F.value(i))
    return np.linalg.matrix_power(W, n)


@pytest.mark.parametrize("kind", sorted(matrices.KINDS))
def test_z_n_transfer_is_numpys_matrix_power(kind):
    A = matrices.by_kind(kind)
    for F in (Constant(-1.0), LOG_POTENTIAL):
        for beta in (0.7, 1.0, 1.3):
            for n in range(1, 17):
                want = float(_numpy_transfer_power(A, F, beta, n, n + 2)[0, 0])
                got = z_n_transfer(A, F, beta, 1, n, n + 2)
                assert got == pytest.approx(want, rel=1e-15, abs=0), (F, beta, n)


def test_z_n_transfer_at_the_pressure_suite_call_is_numpys(renewal):
    # the same squarings in the same order: the numerator the suite pins, bit for bit
    want = float(_numpy_transfer_power(renewal, LOG_POTENTIAL, 1.0, 8, 10)[0, 0])
    assert z_n_transfer(renewal, LOG_POTENTIAL, 1.0, 1, 8, 10) == want == 2.1185865850970016


def test_z_n_star(renewal):
    assert z_n_star(renewal, LogRatio(), 2.0, 1, 3).value == pytest.approx(1.0 / 16, rel=1e-13)
    assert z_n_star(renewal, Constant(-1.0), 1.0, 1, 4).value == pytest.approx(math.exp(-4.0))
    assert z_n_star(renewal, LogRatio(), 1.0, 1, 1).value == pytest.approx(0.5)
    # unique first-return cycle per length on the renewal matrix
    assert z_n_star(renewal, LogRatio(), 1.0, 1, 8).n_terms == 1


def test_pointwise_z(renewal):
    xi0 = empty_stem_config(renewal, 1)
    assert pointwise_z(renewal, LogRatio(), 0.0, xi0, 3).value == pytest.approx(4.0)
    # pointwise sums dominate the base partition function
    x = bounded(renewal, (1,), 1)
    for n in (2, 4, 6):
        zp = pointwise_z(renewal, LOG_POTENTIAL, 1.0, x, n).value
        zb = z_n(renewal, LOG_POTENTIAL, 1.0, 1, n).value
        assert zp > zb
    # sequence points accept any admissible head, not only terminal-ended ones
    u = UnboundedConfig(renewal, (), (1,))
    assert pointwise_z(renewal, LogRatio(), 0.0, u, 3).value == pytest.approx(8.0)


def test_pointwise_ratio_bound(renewal):
    # 1 < Z_n(x)/Z_n <= 1 + (x0+1)^beta for the log difference potential
    for beta in (0.5, 1.0):
        for stem in [(1,), (2, 1), (3, 2, 1), (1, 2, 1)]:
            x = bounded(renewal, stem, 1)
            bound = 1.0 + math.exp(beta * (math.log(stem[0] + 1) - math.log(1)))
            for n in (3, 6, 9, 12):
                ratio = (pointwise_z(renewal, LOG_POTENTIAL, beta, x, n).value
                         / z_n(renewal, LOG_POTENTIAL, beta, 1, n).value)
                assert 1.0 < ratio <= bound + 1e-12


# the exact-sum walk against the enumeration it replaces: each case is
# (matrix, largest n, points for pointwise_z)
COUNT_CASES = {
    "renewal": (matrices.by_kind("renewal"), 12, lambda A: [
        empty_stem_config(A, 1), bounded(A, (3, 2, 1), 1), UnboundedConfig(A, (), (1,))]),
    "pair_renewal": (matrices.by_kind("pair_renewal"), 12, lambda A: [
        empty_stem_config(A, 1), empty_stem_config(A, 2), bounded(A, (2,), 1)]),
    "prime_renewal": (matrices.by_kind("prime_renewal"), 12, lambda A: [
        empty_stem_config(A, 3), bounded(A, (4, 3, 2, 1), 1), UnboundedConfig(A, (), (1,))]),
    "alternating_renewal": (matrices.by_kind("alternating_renewal"), 12, lambda A: [
        empty_stem_config(A, 1), empty_stem_config(A, 2), UnboundedConfig(A, (), (1, 2))]),
    # 3**(n-1) cycles per base: n = 12 would enumerate 177k of them
    "full_shift": (matrices.full_shift(3), 8, lambda A: [UnboundedConfig(A, (), (2,))]),
    "explicit": (matrices.explicit([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 12,
                 lambda A: [UnboundedConfig(A, (3,), (1,))]),
}
# besides the log ratio, g = 1/s: a difference potential whose terms are not
# products of rational powers
INVERSE = GDiff(lambda s: 1.0 / s, "inv")
COUNT_POTENTIALS = ([(Constant(c), beta) for c in (-1.0, 1.0, 0.37) for beta in (0.31, 0.7, 1.3)]
                    + [(LOG_POTENTIAL, 0.7), (LOG_POTENTIAL, 1.3), (INVERSE, 0.9)])


def _enumerated(words):
    """{(F, beta): (math.fsum of the words' terms, number of words)} over
    COUNT_POTENTIALS.  Each word's sum of F is taken once per F: beta times
    birkhoff_sum(F, 1.0, w) is birkhoff_sum(F, beta, w) bit for bit."""
    sums = {F: [birkhoff_sum(F, 1.0, w) for w in words] for F in dict(COUNT_POTENTIALS)}
    return {(F, beta): (math.fsum([math.exp(beta * x) for x in sums[F]]), len(words))
            for F, beta in COUNT_POTENTIALS}


def _heads(A, x, n):
    if isinstance(x, BoundedConfig) and not x.stem:
        seeds = sorted(x.root.allowed_terminal_symbols)
    else:
        seeds = A.predecessors(x.symbol_at(0))
    return list(backward_words(A, n, seeds))


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_partition_functions_are_bit_identical_to_enumeration(name):
    A, n_max, points = COUNT_CASES[name]
    for n in range(1, n_max + 1):
        for base in (1, 2, 3):
            cycles = list(iter_cycles(A, n, base))
            first_returns = [c for c in cycles if base not in c[1:]]
            for words, z in ((cycles, z_n), (first_returns, z_n_star)):
                want = _enumerated(words)
                for F, beta in COUNT_POTENTIALS:
                    got = z(A, F, beta, base, n)
                    assert (got.value, got.n_terms) == want[F, beta]
        for x in points(A):
            want = _enumerated(_heads(A, x, n))
            for F, beta in COUNT_POTENTIALS:
                got = pointwise_z(A, F, beta, x, n)
                assert (got.value, got.n_terms) == want[F, beta]


def test_constant_count_edge_cases(renewal):
    # the 2-cycle has no odd cycles: a zero count sums nothing, so a term
    # that would overflow is never formed
    swap = matrices.explicit([[0, 1], [1, 0]])
    assert list(iter_cycles(swap, 3, 1)) == []
    for F in (Constant(1e6), LOG_POTENTIAL):
        assert z_n(swap, F, 1.0, 1, 3) == ZValue(0.0, 0, True)
        # letter 2 of the renewal matrix has no self-loop
        assert z_n_star(renewal, F, 1.0, 2, 1) == ZValue(0.0, 0, True)
        for z in (z_n, z_n_star):
            with pytest.raises(ValueError, match="n must be >= 1"):
                z(renewal, F, 0.7, 1, 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            pointwise_z(renewal, F, 0.7, empty_stem_config(renewal, 1), 0)


@pytest.mark.parametrize("kind,n", [("pair_renewal", 24), ("alternating_renewal", 30),
                                    ("renewal", 30)])
def test_gdiff_partition_functions_beyond_enumeration(kind, n):
    # 2**29 cycles on renewal at n = 30: out of reach of the enumeration
    A = matrices.by_kind(kind)
    z = z_n(A, LOG_POTENTIAL, 1.0, 1, n)
    assert z.value == pytest.approx(z_n_transfer(A, LOG_POTENTIAL, 1.0, 1, n, n + 2), rel=1e-12)
    assert z.n_terms == z_n(A, Constant(1.0), 1.0, 1, n).n_terms


@pytest.mark.parametrize("n", [60, 400])
@pytest.mark.parametrize("beta", [0.37, 0.7, 1.1])
def test_renewal_counts_beyond_enumeration(renewal, n, beta):
    z = z_n(renewal, Constant(-1.0), beta, 1, n)
    assert z.n_terms == 2 ** (n - 1)
    assert abs(math.log(z.value) / n - (math.log(2) - beta - math.log(2) / n)) <= 1e-12


def test_pair_renewal_count_rounds_once(pair):
    # 1e153 cycles: far past 2**53, where float(N) * t already rounds twice
    n, F, beta = 400, Constant(-1.0), 0.7
    z = z_n(pair, F, beta, 1, n)
    t = math.exp(birkhoff_sum(F, beta, (1,) * n))
    mantissa, scale = t.as_integer_ratio()     # scale is a power of two
    exact = math.ldexp(float(z.n_terms * mantissa), 1 - scale.bit_length())
    assert z.value == exact
    assert float(z.n_terms) * t != exact


def test_superadditivity(renewal):
    superadditivity_check(renewal, Constant(1.0), 0.8, 1, 10)   # no AssertionError raised
    # scale invariance in beta for constant potentials: Z_n Z_m / Z_(n+m)
    # does not depend on beta
    ratios = []
    for beta in (0.1, 2.5):
        superadditivity_check(renewal, Constant(1.0), beta, 1, 8)
        zs = {n: z_n(renewal, Constant(1.0), beta, 1, n).value for n in range(1, 9)}
        ratios.append([zs[n] * zs[m] / zs[n + m]
                       for n in range(1, 8) for m in range(1, 9 - n)])
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)


def test_superadditivity_fails_on_nan(renewal, monkeypatch):
    # a nan compares false with everything, so it must fail the inequality
    # rather than slip past it
    real = thermo.z_n
    monkeypatch.setattr(thermo, "z_n", lambda A, F, beta, base, n: (
        ZValue(math.nan, 0, True) if n == 3 else real(A, F, beta, base, n)))
    with pytest.raises(AssertionError, match="superadditivity fails"):
        superadditivity_check(renewal, Constant(1.0), 0.8, 1, 6)


def test_pressure_suite_reports_a_nan_residual(renewal, monkeypatch):
    # max() keeps a nan only when it comes first; a later one must not read as a pass
    from gcms import verification
    monkeypatch.setattr(verification, "pressure_identity_rows",
                        lambda A, beta: [(1, 0.5, 0.5), (2, math.nan, 0.5), (3, 0.5, 0.25)])
    assert math.isnan(verification.pressure_suite(renewal, 0.7)["pressure_identity_max_residual"])


# -- Gurevich pressure ----------------------------------------------------------

def test_gurevich_exact_certificate(renewal):
    est = gurevich_pressure(renewal, Constant(-1.0), 0.3, 1, 8)
    assert est.certificate == "exact"
    assert est.extrapolated == pytest.approx(math.log(2) - 0.3, abs=1e-14)
    # the finite-n values approach from below: (1/n) log Z_n = P - log2/n
    for n, v in est.values:
        assert v == pytest.approx(est.extrapolated - math.log(2) / n, abs=1e-12)


def test_gurevich_upper_bound(renewal):
    for beta in (0.4, 1.0, 2.0):
        est = gurevich_pressure(renewal, LogRatio(), beta, 1, 8)
        # log 2 + beta * sup F, and the log ratio's supremum is 0
        assert est.extrapolated <= math.log(2) + 1e-12


def test_gurevich_log_potential_has_one_spelling(renewal):
    est = gurevich_pressure(renewal, LOG_POTENTIAL, 1.3, 1, 6)
    assert est.certificate == "exact"
    assert est.extrapolated == pressure_log_potential(1.3)
    assert est == gurevich_pressure(renewal, LogRatio(), 1.3, 1, 6)


def test_gdiff_equality_compares_g(renewal):
    # a potential that only borrows the name "log" gets no log-ratio closed form
    impostor = GDiff(math.sqrt, "log")
    assert impostor != LOG_POTENTIAL
    assert GDiff(math.log, "log") == LOG_POTENTIAL and hash(GDiff(math.log, "log")) == hash(
        LOG_POTENTIAL)
    assert gurevich_pressure(renewal, impostor, 1.3, 1, 6).certificate != "exact"


def test_gurevich_above_critical_is_zero(renewal):
    assert gurevich_pressure(renewal, LogRatio(), 2.0, 1, 6).extrapolated == 0.0


def test_gurevich_limit_certificate(pair):
    # pair renewal's growth is certified, so its constant-potential pressure
    # is exact: log(1+sqrt2) - beta, not a slope between two partition functions
    est = gurevich_pressure(pair, Constant(-1.0), 0.5, 1, 10)
    assert est.certificate == "exact"
    assert est.extrapolated == pair.spec.critical_beta - 0.5
    assert est.extrapolated == pytest.approx(math.log(1 + math.sqrt(2)) - 0.5, abs=1e-15)


def test_gurevich_limit_divides_by_the_gap():
    # period 2: Z_n = 0 at odd n, so the last two finite points are two steps
    # apart, and the entropy is log 2, not log 4
    A = matrices.explicit([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
    est = gurevich_pressure(A, Constant(-1.0), 0.0, 1, 10)
    assert est.certificate == "limit"
    assert est.values[8] == (9, -math.inf)
    assert est.extrapolated == pytest.approx(math.log(2.0), rel=1e-12)


def test_gurevich_limit_of_one_finite_point():
    # the 3-cycle up to n = 4: only Z_3 > 0, so the slope is (1/3) log Z_3,
    # the exact pressure -beta, not the -inf of Z_4
    A = matrices.explicit([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    est = gurevich_pressure(A, Constant(-1.0), 0.5, 1, 4)
    assert [v for _, v in est.values] == [-math.inf, -math.inf, -0.5, -math.inf]
    assert (est.extrapolated, est.certificate) == (-0.5, "limit")


def test_gurevich_without_a_finite_point_is_refused():
    # the 5-cycle has no cycle of length <= 4, so there is no slope to read
    A = matrices.explicit([[1 if j == (i + 1) % 5 else 0 for j in range(5)] for i in range(5)])
    with pytest.raises(ValueError, match="at base 1 for every n <= 4: no pressure slope"):
        gurevich_pressure(A, Constant(-1.0), 0.5, 1, 4)


APERIODIC = {"prime_renewal": lambda: matrices.by_kind("prime_renewal"),
             "stored": lambda: matrices.explicit([[1, 1, 0], [0, 1, 1], [1, 0, 1]])}


@pytest.mark.parametrize("name, beta", [("prime_renewal", 0.7), ("stored", 0.5),
                                        ("stored", 0.0)])
def test_gurevich_limit_of_aperiodic_kinds(name, beta):
    # with consecutive finite points the slope is the plain difference of the
    # last two log Z_n
    A = APERIODIC[name]()
    F = Constant(-1.0)
    est = gurevich_pressure(A, F, beta, 1, 10)
    assert est.certificate == "limit"
    last = [math.log(z_n(A, F, beta, 1, n).value) for n in (9, 10)]
    assert est.extrapolated == last[1] - last[0]


def test_cycles_through_one_are_a_generation_of_the_one_family(renewal, pair, alternating):
    # the proof behind the exact constant-potential pressure (see MatrixKind):
    # row 1 holds every letter on renewal and pair renewal, and the even ones
    # on alternating renewal, whose odd generations then drop out
    first = {}
    for A in (renewal, pair, alternating):
        # the boundary family whose only terminal letter is 1
        f = next(c.id for c in A.accumulation_catalog if c.allowed_terminal_symbols == {1})
        zs = [z_n(A, Constant(0.0), 0.0, 1, n).value for n in range(1, 21)]
        for n, z in enumerate(zs, 1):
            want = A.spec.counts(f, n) if A != alternating or n % 2 == 0 else 0
            assert z == want, (A, n)
        first[A.kind] = zs[:6]
    assert first == {"renewal": [1, 2, 4, 8, 16, 32], "pair_renewal": [1, 2, 5, 12, 29, 70],
                     "alternating_renewal": [0, 1, 0, 3, 0, 9]}


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal", "alternating_renewal"])
def test_constant_pressure_is_exact_on_certified_kinds(kind):
    A = matrices.by_kind(kind)
    assert A.spec.growth[0] == A.spec.growth[1]
    for c in (-1.0, 1.0):
        for beta in (0.0, 0.3, 0.5, 1.7):
            for base in (1, 2):
                est = gurevich_pressure(A, Constant(c), beta, base, 6)
                assert est.certificate == "exact"
                assert est.extrapolated == A.spec.critical_beta + beta * c
                if kind == "renewal" and base == 1:
                    # bit for bit log 2 + beta * c
                    assert est.extrapolated == math.log(2.0) + beta * c


# -- zeta ------------------------------------------------------------------------

def test_zeta_known_value():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-13)


@pytest.mark.parametrize("beta", [1.1, 1.3, 1.72865, 2.0, 3.5, 7.0])
def test_zeta_against_mpmath(beta):
    assert zeta(beta) == pytest.approx(float(mpmath.zeta(beta)), abs=5e-13)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.99)
    with pytest.raises(DomainError):
        zeta(float("nan"))


def test_power_sum_tail():
    want = float(mpmath.zeta(1.5)) - sum(n ** -1.5 for n in range(1, 10))
    assert power_sum_tail(1.5, 10) == pytest.approx(want, abs=1e-12)


def _doubling_tail(beta, start, tol):
    """The power-sum tail as it was summed: N doubled until the remainder
    bound is below ``tol``."""
    N = max(start, 16)
    while (em := thermo._em_tail(beta, N))[1] > tol:
        N *= 2
    return math.fsum(n ** (-beta) for n in range(start, N)) + em[0]


def test_power_sum_tail_needs_no_doubling():
    # the remainder bound at N = 16 is at most 1.23e-18 for every beta, below
    # every tolerance a caller passes, so one evaluation there is the sum
    for beta in (math.nextafter(1.0 + 1e-9, 2.0), 1.1, 1.32, 2.0, 40.0, 1e4):
        for start in (1, 2, 16, 61):
            for tol in (1e-13, 1e-14, 1e-17):
                assert power_sum_tail(beta, start, tol) == _doubling_tail(beta, start, tol)
    with pytest.raises(DomainError, match="above 1e-30"):
        power_sum_tail(2.0, 1, 1e-30)


def test_critical_beta():
    bc = beta_c_log()
    assert bc == pytest.approx(1.72865, abs=5e-5)
    assert abs(zeta(bc) - 2.0) <= 1e-10
    # zeta decreases through the bracket
    assert zeta(1.2) > zeta(1.7) > zeta(2.2)


# -- discriminant and recurrence ---------------------------------------------------

@pytest.mark.parametrize("beta", [1.2, 1.5, 1.72, 1.9, 2.5])
def test_discriminant_two_routes(beta):
    d = discriminant_log(beta)
    assert not math.isinf(d.series_value)
    assert abs(d.series_value - d.closed_form) <= 1e-6


def test_discriminant_signs():
    assert discriminant_log(1.5).closed_form > 0
    assert abs(discriminant_log(beta_c_log()).closed_form) <= 1e-8
    assert discriminant_log(2.0).closed_form == pytest.approx(
        math.log(math.pi ** 2 / 6 - 1), abs=1e-12)
    assert math.isinf(discriminant_log(0.9).series_value)


def test_discriminant_at_large_beta():
    # the head pattern fixes the radius at 1 for every beta; the closed form
    # sums zeta(beta) - 1 from n = 2, so it keeps its digits where
    # zeta(beta) - 1.0 would cancel (it reads 0.0 from beta 53.25 on)
    for beta in (40.0, 53.0, 60.0):
        d = discriminant_log(beta)
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.zeta(beta) - 1))
        assert d.series_value == pytest.approx(want, rel=1e-12), beta
        assert d.closed_form == pytest.approx(want, rel=1e-12), beta


def test_discriminant_refuses_a_head_off_the_power_pattern(monkeypatch):
    z_star = thermo.z_n_star

    def shifted(A, F, beta, base, n):
        z = z_star(A, F, beta, base, n)
        return dataclasses.replace(z, value=z.value * 1.01) if n == 7 else z

    monkeypatch.setattr(thermo, "z_n_star", shifted)
    with pytest.raises(RuntimeError, match="power pattern"):
        discriminant_log(1.5)


def test_classification():
    # the sign of the discriminant classifies the renewal log-ratio potential:
    # positive recurrent below beta_c, transient above it, zero at it; for
    # beta <= 1 the first-return series diverges and the discriminant is +inf
    assert discriminant_log(1.2).closed_form > 0
    assert discriminant_log(2.5).closed_form < 0
    assert abs(discriminant_log(beta_c_log()).closed_form) <= 1e-8
    for b in (0.5, 1.0):
        d = discriminant_log(b)
        assert d.series_value == math.inf


# -- pressure of the log-ratio potential ---------------------------------------------

def test_pressure_residuals():
    for beta in (1.0, 1.2, 1.5):
        p = pressure_log_potential(beta)
        assert abs(normalization_series(beta, math.exp(p)) - 1.0) <= 1e-10


def test_pressure_zero_above_critical():
    assert pressure_log_potential(beta_c_log()) == 0.0
    assert pressure_log_potential(2.4) == 0.0


def test_pressure_monotone():
    grid = [1.05, 1.2, 1.35, 1.5, 1.65]
    values = [pressure_log_potential(b) for b in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def _polylog_phi(beta: float, lam: float) -> mpmath.mpf:
    """Phi_beta(lam) = lam (Li_beta(1/lam) - 1/lam), at 40 digits; at mpmath's
    default 15 digits Li_beta itself is off by 5.6e-11 at lam = 1 + 1e-7."""
    with mpmath.workdps(40):
        z = 1 / mpmath.mpf(lam)
        return (mpmath.polylog(beta, z) - z) / z


def _polylog_residual(beta: float, p: float) -> float:
    with mpmath.workdps(40):
        return float(abs(_polylog_phi(beta, mpmath.e ** mpmath.mpf(p)) - 1))


SERIES_LAMS = (1 + 1e-7, 1 + 1e-4, 1.01, 1.3, 1.9)


@pytest.mark.parametrize("beta", [0.3, 0.7, 1 - 1e-9, 1.0, 1 + 1e-9, 1.1, 1.5, 1.7])
def test_normalization_series_against_polylog(beta):
    # Phi_beta, and Phi_{beta-1}, which gives the Newton derivative of the pressure
    for b in (beta, beta - 1.0):
        for lam in SERIES_LAMS:
            want = float(_polylog_phi(b, lam))
            assert normalization_series(b, lam) == pytest.approx(want, rel=1e-14, abs=0), (b, lam)


@pytest.mark.parametrize("beta, lam", [(math.nan, 1.5), (math.inf, 1.5), (1.2, math.nan),
                                       (1.2, math.inf), (1.2, 1.0), (-10.0, 1.05)])
def test_normalization_series_rejects_bad_arguments(beta, lam):
    # beta < -1 asks the tail for an incomplete gamma of order above 2
    with pytest.raises(ValueError):
        normalization_series(beta, lam)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_pressure_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError):
        pressure_log_potential(beta)


NEAR_CRITICAL = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6)


def test_pressure_residual_near_critical():
    bc = beta_c_log()
    values = []
    for delta in NEAR_CRITICAL:
        p = pressure_log_potential(bc - delta)
        assert _polylog_residual(bc - delta, p) <= 1e-11, delta
        values.append(p)
    # beta rises along NEAR_CRITICAL, so the pressure falls
    assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


def test_pressure_cost_is_bounded(monkeypatch):
    # constant work per root, however close beta is to beta_c
    calls = []
    series = thermo._phi
    monkeypatch.setattr(thermo, "_phi", lambda b, a: calls.append(a) or series(b, a))
    for beta in (0.01, 0.5, 1.0, 1.5) + tuple(beta_c_log() - d for d in NEAR_CRITICAL):
        calls.clear()
        pressure_log_potential(beta)
        assert len(calls) <= 40, beta


def test_pressure_raises_when_not_certified(monkeypatch):
    series = thermo._phi
    monkeypatch.setattr(thermo, "_phi", lambda b, a: (series(b, a)[0], 1e-10))
    with pytest.raises(RuntimeError, match="not certified"):
        pressure_log_potential(1.2)


def test_pressure_continuity_at_critical():
    # full-accuracy roots next to beta_c: small, and certified against polylog
    for delta in (1e-4, 1e-6):
        beta = beta_c_log() - delta
        p = pressure_log_potential(beta)
        assert 0.0 <= p <= 1e-2
        assert _polylog_residual(beta, p) <= 1e-11


# -- the two-piece word partition ------------------------------------------------------

def test_jn_tn_small(renewal):
    x = bounded(renewal, (1,), 1)
    # an integer-valued g makes every sum exact, so the transport identity
    # holds with no residual at all
    rep = jn_tn(renewal, x, 2, GDiff(lambda s: float(s * s), "square"))
    assert rep.ok
    assert rep.max_transport_residual == 0.0


def test_jn_tn_singletons(renewal):
    rep = jn_tn(renewal, bounded(renewal, (2, 1), 1), 1, LOG_POTENTIAL)
    assert rep.ok


def test_jn_tn_transport_identity(renewal):
    for stem in [(1,), (2, 1), (1, 2, 1), (4, 3, 2, 1)]:
        x = bounded(renewal, stem, 1)
        for n in (1, 3, 6, 10):
            rep = jn_tn(renewal, x, n, potential=LOG_POTENTIAL)
            assert rep.ok, (stem, n)
            assert rep.max_transport_residual <= 1e-12


def test_jn_tn_reports_a_nan_residual(renewal):
    # g is nan at 4 only, so a few rerouted words have a nan residual among
    # finite ones; the worst residual is nan, not the largest finite one
    g = GDiff(lambda s: math.nan if s == 4 else float(s * s), "nan at 4")
    rep = jn_tn(renewal, bounded(renewal, (1,), 1), 4, g)
    assert rep.ok
    assert math.isnan(rep.max_transport_residual)


def test_jn_tn_requires_renewal(pair):
    with pytest.raises(ValueError):
        jn_tn(pair, bounded(pair, (1,), 2), 2, LOG_POTENTIAL)


@pytest.mark.parametrize("s", [-50.0, -1.0, 0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.05, 0.3, math.log(2.0)])
def test_incomplete_gamma_against_mpmath(s, a):
    # every branch: the continued fraction, the lower series with and
    # without its pole term, and the recurrence down from it
    m = 41
    with mpmath.workdps(50):
        want = float(mpmath.mpf(a) ** -s * mpmath.gammainc(s, mpmath.mpf(a) * m))
    assert thermo._scaled_upper_gamma(s, a, m) == pytest.approx(want, rel=1e-14, abs=0)


def test_incomplete_gamma_refuses_orders_above_two():
    # orders well above z pass the continued fraction's convergence test
    # with a wrong value: at z = 1.5 and s = 20 it gave 4.7e9, not 3.7e13
    for s in (2.0 + 1e-9, 20.0, math.inf):
        with pytest.raises(ValueError, match="order s <= 2"):
            thermo._scaled_upper_gamma(s, 1.5, 1)


def test_incomplete_gamma_refuses_an_unconverged_continued_fraction():
    # a nan order never meets the fraction's convergence test: after its
    # 1,000 steps it raises rather than return an unconverged value
    with pytest.raises(RuntimeError, match="did not converge"):
        thermo._scaled_upper_gamma(math.nan, 1.0, 41)
