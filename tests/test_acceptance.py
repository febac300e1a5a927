"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failure raises with the offending values.
"""

import math
import time

import pytest

from gcms import measures as ms
from gcms.configs import bounded, count_preimages_closed_form, empty_stem_config, preimages
from gcms.matrices import by_kind
from gcms.thermo import (Constant, LOG_POTENTIAL, LogRatio, beta_c_log,
                         discriminant_log, jn_tn, normalization_series, pointwise_z,
                         pressure_log_potential, superadditivity_check, z_n, z_n_star, zeta)
from gcms.verification import cylinder_oracle, cylinder_words_up_to
from gcms.words import enumerate_words

LOG2 = math.log(2.0)
PAIR_BC = math.log(1.0 + math.sqrt(2.0))


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_01_renewal_counting():
    t0 = time.monotonic()
    A = by_kind("renewal")
    base = empty_stem_config(A, 1)
    for n in range(1, 15):
        assert len(preimages(base, n)) == 2 ** (n - 1), n
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion 1", f"renewal |sigma^-n| = 2^(n-1) for n <= 14 [{elapsed:.2f}s]")


def test_criterion_02_pair_renewal_counting():
    t0 = time.monotonic()
    A = by_kind("pair_renewal")
    for fam in (1, 2):
        base = empty_stem_config(A, fam)
        for n in range(1, 13):
            assert len(preimages(base, n)) == count_preimages_closed_form(A, fam, n), (fam, n)
    assert count_preimages_closed_form(A, 1, 2) == 5
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("criterion 2", f"pair renewal enumeration matches matrix iteration, "
                           f"both families, n <= 12 [{elapsed:.2f}s]")


def test_criterion_03_prime_renewal_bounds():
    t0 = time.monotonic()
    A = by_kind("prime_renewal")
    for fam in (1, 2, 3, 5):
        base = empty_stem_config(A, fam)
        for n in range(1, 10):
            count = len(preimages(base, n))
            assert 2 ** (n - 1) <= count <= 3 ** n, (fam, n, count)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report("criterion 3", f"prime renewal counts inside [2^(n-1), 3^n] for "
                           f"n <= 9, families 1,2,3,5 [{elapsed:.2f}s]")


def test_criterion_04_cylinder_oracle():
    t0 = time.monotonic()
    reports = [cylinder_oracle(by_kind(kind), word_len=3, sym_bound=4, inv_bound=4,
                               stem_len=5, universe_syms=6, n_periodic=50)
               for kind in ("renewal", "pair_renewal")]
    for rep in reports:
        assert rep.ok, rep.mismatches
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    pairs = sum(r.n_pairs for r in reports)
    _report("criterion 4", f"intersection oracle: {pairs} pairs, zero mismatches, "
                           f"parts disjoint [{elapsed:.1f}s]")


def test_criterion_05_conformality_residuals():
    A = by_kind("renewal")
    P = by_kind("pair_renewal")
    cyls_r = cylinder_words_up_to(A, 6, 7)
    cyls_p = cylinder_words_up_to(P, 6, 7)
    worst = 0.0
    worst = max(worst, ms.verify_conformality(
        ms.sarig_measure_renewal(A), cyls_r).max_residual)
    for b in (LOG2 + 0.1, 1.5):
        worst = max(worst, ms.verify_conformality(
            ms.y_measure(A, 1, Constant(1.0), b), cyls_r).max_residual)
    worst = max(worst, ms.verify_conformality(
        ms.pair_renewal_critical_measure(P), cyls_p).max_residual)
    for fam in (1, 2):
        worst = max(worst, ms.verify_conformality(
            ms.y_measure(P, fam, Constant(1.0), 1.2), cyls_p).max_residual)
    for b in (1.3, beta_c_log(), 2.0):
        worst = max(worst, ms.verify_conformality(
            ms.log_eigenmeasure(b, A), cyls_r).max_residual)
    assert worst <= 1e-10
    _report("criterion 5", f"all conformality residuals <= {worst:.2e} on |alpha| <= 6")


def test_criterion_06_renewal_phase_transition():
    A = by_kind("renewal")
    col = A.column_by_id(1)
    F = ms.negate(Constant(1.0))
    assert ms.normalizer(A, col, F, LOG2).divergent
    assert ms.normalizer(A, col, F, LOG2 - 1e-3).divergent
    assert ms.normalizer(A, col, F, LOG2 + 1e-3).status == "finite"
    worst_exact = 0.0
    for b in (LOG2 + 1e-3, 1.0, 1.5):
        mu = ms.y_measure(A, 1, Constant(1.0), b)
        for n in range(1, 6):
            for alpha in enumerate_words(A, n, {1}, 7).words:
                worst_exact = max(worst_exact,
                                  abs(mu.cyl_mass(alpha) - math.exp(-n * b)))
    assert worst_exact <= 1e-12
    b = LOG2 + 1e-5
    mu = ms.y_measure(A, 1, Constant(1.0), b)
    worst_limit = 0.0
    for n in range(1, 6):
        for alpha in enumerate_words(A, n, {1}, 7).words:
            worst_limit = max(worst_limit, abs(mu.cyl_mass(alpha) - 2.0 ** (-n)))
    assert worst_limit <= 1e-4
    _report("criterion 6", f"divergent at log2 and below, finite above; "
                           f"|mu(C) - e^(-|a|b)| <= {worst_exact:.1e}; "
                           f"limit gap {worst_limit:.1e} <= 1e-4 at log2+1e-5")


def test_criterion_07_pair_renewal():
    P = by_kind("pair_renewal")
    root = ms.pair_renewal_normalization_root()
    assert abs(root - (math.sqrt(2.0) - 1.0)) <= 1e-10
    mu_c = ms.pair_renewal_critical_measure(P)
    assert abs(mu_c.cyl_mass((1,)) - (math.sqrt(2.0) - 1.0)) <= 1e-12
    # probabilities via an independent weighted generation walk
    for b in (0.9, 1.2, 2.0):
        x = math.exp(-b)
        rho = (1.0 + math.sqrt(2.0)) * x
        depth = max(20, int(math.ceil(math.log(1e-12 * (1 - rho)) / math.log(rho))))
        for fam in (1, 2):
            mu = ms.y_measure(P, fam, Constant(1.0), b)
            col = P.column_by_id(fam)
            layer = {t: x for t in sorted(col.allowed_terminal_symbols)}
            partial = 1.0
            for _ in range(depth):
                partial += math.fsum(layer.values())
                nxt: dict[int, float] = {}
                for sym, w in layer.items():
                    for p in P.predecessors(sym):
                        nxt[p] = nxt.get(p, 0.0) + x * w
                layer = nxt
            partial *= mu.c_e
            tail = mu.c_e * rho ** (depth + 1) / (1.0 - rho)
            assert abs(partial - 1.0) <= 1e-8 + tail, (b, fam)
    _report("criterion 7", f"normalization root within 1e-10, mu_c([1]) within 1e-12, "
                           f"both extremal measures are probabilities within 1e-8")


def test_criterion_08_log_potential():
    t0 = time.monotonic()
    for b in (1.2, 1.5, 1.72, 1.9, 2.5):
        d = discriminant_log(b)
        assert abs(d.series_value - d.closed_form) <= 1e-6, b
    bc = beta_c_log()
    assert abs(bc - 1.72865) <= 5e-5
    assert abs(zeta(bc) - 2.0) <= 1e-10
    for b in (1.2, 1.5):
        p = pressure_log_potential(b)
        assert abs(normalization_series(b, math.exp(p)) - 1.0) <= 1e-10, b
    A = by_kind("renewal")
    xi0 = empty_stem_config(A, 1)
    for b in (2.0, 2.5):
        m = ms.log_eigenmeasure(b, A)
        assert abs(m.point_mass(xi0) - (2.0 - zeta(b))) <= 1e-10, b
        # independent mass route: the singleton plus the length-one cylinder series
        head = math.fsum(m.cyl_mass((n,)) for n in range(1, 60))
        from gcms.thermo import power_sum_tail
        tail = power_sum_tail(b, 61)
        assert abs(m.point_mass(xi0) + head + tail - 1.0) <= 1e-8, b
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report("criterion 8", f"discriminant routes agree to 1e-6; beta_c={bc:.6f}; "
                           f"pressure residuals and boundary masses in "
                           f"tolerance [{elapsed:.1f}s]")


def test_criterion_09_pressure_identities():
    A = by_kind("renewal")
    worst = 0.0
    for beta in (0.37, 1.1):
        for n in range(1, 21):
            z = z_n(A, Constant(-1.0), beta, 1, n)
            lhs = math.log(z.value) / n
            rhs = LOG2 - beta - LOG2 / n
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    worst_star = 0.0
    for beta in (0.8, 2.0):
        for n in range(1, 15):
            z = z_n_star(A, LogRatio(), beta, 1, n).value
            want = (n + 1.0) ** (-beta)
            worst_star = max(worst_star, abs(z - want) / want)
    assert worst_star <= 1e-12
    superadditivity_check(A, Constant(1.0), 0.9, 1, 16)
    superadditivity_check(A, Constant(-1.0), 1.3, 1, 16)
    _report("criterion 9", f"(1/n)log Z_n identity to {worst:.1e} for n <= 20; "
                           f"first-return values to {worst_star:.1e} rel for n <= 14; "
                           f"superadditivity holds to n+m = 16")


def test_criterion_10_pointwise_pressure_apparatus():
    A = by_kind("renewal")
    stems = []
    for n in range(1, 5):
        stems.extend(enumerate_words(A, n, {1}, 6).words)
    for stem in stems:
        x = bounded(A, stem, 1)
        for n in range(1, 11):
            rep = jn_tn(A, x, n, potential=LOG_POTENTIAL)
            assert rep.ok, (stem, n)
            assert rep.max_transport_residual <= 1e-12
    for beta in (0.5, 1.0):
        for stem in [(1,), (2, 1), (3, 2, 1), (1, 1)]:
            x = bounded(A, stem, 1)
            bound = 1.0 + math.exp(beta * (math.log(stem[0] + 1.0) - math.log(1.0)))
            for n in range(1, 13):
                ratio = (pointwise_z(A, LOG_POTENTIAL, beta, x, n).value
                         / z_n(A, LOG_POTENTIAL, beta, 1, n).value)
                assert 1.0 < ratio <= bound + 1e-12, (beta, stem, n)
    _report("criterion 10", "two-piece word partition exact for n <= 10, stems <= 4; "
                            "pointwise/base sandwich holds for n <= 12, "
                            "beta in {0.5, 1.0}")
