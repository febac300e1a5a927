import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import residue_kinds, residue_matrix
from gcms import cylinders
from gcms import matrices as mx
from gcms import measures as ms
from gcms import symbolsets as ss
from gcms.configs import BoundedConfig, bounded, empty_stem_config
from gcms.cylinders import CylFamily, SetExpr, Subbasis, decompose, intersect_many, shift_image
from gcms.matrices import by_kind, explicit
from gcms.thermo import (LOG_POTENTIAL, UNIT_POTENTIAL, Constant, GDiff, LogRatio, beta_c_log,
                         gurevich_pressure, zeta)
from gcms.verification import conformality_suite, cylinder_words_up_to
from gcms.words import enumerate_words, forced_extension, generation_layers, is_admissible

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
PAIR_BC = math.log(1.0 + math.sqrt(2.0))


class ConvexCombination(ms.Measure):
    """Nonnegative convex combination of measures over the same matrix: the
    conformal measures at one beta form a simplex."""

    kind = "convex_combination"

    def __init__(self, parts):
        if not parts:
            raise ms.MeasureError("empty combination")
        if any(w < 0 for w, _ in parts):
            raise ms.MeasureError("weights must be nonnegative")
        if abs(math.fsum(w for w, _ in parts) - 1.0) > 1e-12:
            raise ms.MeasureError("weights must sum to 1")
        if len({m.matrix for _, m in parts}) != 1:
            raise ms.MeasureError("all components must live over the same matrix")
        self.parts = list(parts)
        first = parts[0][1]
        self.matrix, self.beta, self.weight, self.lam = (first.matrix, first.beta,
                                                         first.weight, first.lam)

    def point_mass(self, c):
        return math.fsum(w * m.point_mass(c) for w, m in self.parts)

    def _cyl_mass(self, alpha):
        return math.fsum(w * m._cyl_mass(alpha) for w, m in self.parts)

    def _mass_table(self, plan):
        # each entry combines the parts' entries as _cyl_mass combines their masses
        tables = [m._mass_table(plan) for _, m in self.parts]
        return [math.fsum(w * x for (w, _), x in zip(self.parts, xs)) for xs in zip(*tables)]

    def _sieve_mass(self, prefix, symbols):
        return math.fsum(w * m._sieve_mass(prefix, symbols) for w, m in self.parts)

    def total_mass(self):
        return math.fsum(w * m.total_mass() for w, m in self.parts)


def test_negate_is_an_involution():
    F = Constant(1.0)
    assert ms.negate(F) == Constant(-1.0)
    assert ms.negate(ms.negate(F)) == F


# -- normalizer --------------------------------------------------------------------

def test_normalizer_renewal_values(renewal):
    col = renewal.column_by_id(1)
    res = ms.normalizer(renewal, col, Constant(-1.0), LOG3)
    assert res.status == "finite"
    assert res.value == pytest.approx(2.0, abs=1e-14)
    # closed form (e^b - 2)/(e^b - 1) for the empty stem mass
    for b in (0.8, 1.0, 1.7):
        res = ms.normalizer(renewal, col, Constant(-1.0), b)
        c_e = 1.0 / res.value
        assert c_e == pytest.approx((math.exp(b) - 2) / (math.exp(b) - 1), rel=1e-13)


def test_normalizer_unsupported_kinds():
    # a stored matrix has no boundary families and no growth rate, and every
    # measure refuses it before it would ask for a rate
    A = explicit([[1, 1], [1, 0]])
    assert A.spec.growth is None and not A.accumulation_catalog
    with pytest.raises(ValueError, match="no accumulation column"):
        ms.y_measure(A, 1, UNIT_POTENTIAL, 1.0)
    with pytest.raises(ms.MeasureError, match="no phase table"):
        ms.phase_row(A, UNIT_POTENTIAL, 1.0, 1e-9)
    assert ms.constructed_measures(A, 1.0) == {}


@given(residue_kinds(), st.floats(0.3, 2.0))
@settings(max_examples=10, deadline=None)
def test_drawn_residue_kinds_are_certified(description, offset):
    # a drawn kind's growth rate comes from its backward graph, so above its
    # critical beta its y-measures are built and certified, the phase row
    # names them and the constant-potential pressure is exact; 0.05 above
    # it, the walk cannot bound its tail and the y-measure refuses
    with residue_matrix(*description) as A:
        critical = math.log(A.spec.growth[0])
        beta = critical + offset
        resid = conformality_suite(A, beta)
        assert len(resid) == len(A.accumulation_catalog)
        assert max(resid.values()) <= 1e-10, resid
        n = len(A.accumulation_catalog)
        assert ms.phase_row(A, UNIT_POTENTIAL, beta, 1e-9) \
            == (f"{n} extremal" if n > 1 else "1 measure", "not classified", critical)
        assert gurevich_pressure(A, UNIT_POTENTIAL, beta, 1, 8).certificate == "exact"
        with pytest.raises(ms.Inconclusive) as info:
            ms.y_measure(A, 1, UNIT_POTENTIAL, critical + 0.05)
        assert "\n" not in str(info.value)


def test_normalizer_thresholds(renewal, pair, prime):
    colr = renewal.column_by_id(1)
    assert ms.normalizer(renewal, colr, Constant(-1.0), LOG2).divergent
    assert ms.normalizer(renewal, colr, Constant(-1.0), LOG2 - 1e-3).divergent
    assert ms.normalizer(renewal, colr, Constant(-1.0), LOG2 + 1e-3).status == "finite"
    colp = pair.column_by_id(1)
    assert ms.normalizer(pair, colp, Constant(-1.0), PAIR_BC).divergent
    assert ms.normalizer(pair, colp, Constant(-1.0), PAIR_BC - 1e-3).divergent
    assert ms.normalizer(pair, colp, Constant(-1.0), PAIR_BC + 1e-3).status == "finite"
    colq = prime.column_by_id(1)
    assert ms.normalizer(prime, colq, Constant(-1.0), LOG3 + 1e-3).status == "finite"
    assert ms.normalizer(prime, colq, Constant(-1.0), LOG2).divergent
    with pytest.raises(ms.Inconclusive):
        ms.normalizer(prime, colq, Constant(-1.0), 0.5 * (LOG2 + LOG3))


@pytest.mark.parametrize("kind", ["prime_renewal", "alternating_renewal"])
@pytest.mark.parametrize("beta", [800.0, 1e300])
def test_walked_y_measure_where_the_letter_weight_underflows(kind, beta):
    # exp(-beta) is 0.0: the measure exists, every non-empty stem weighs 0,
    # and the empty stem carries the whole mass
    A = by_kind(kind)
    for root in A.accumulation_catalog:
        m = ms.y_measure(A, root.id, Constant(1.0), beta)
        assert m.c_e == 1.0 and m.total_mass() == 1.0
        assert m.point_mass(empty_stem_config(A, root.id)) == 1.0
        assert all(m.cyl_mass((k,)) == 0.0 for k in range(1, 8))


@pytest.mark.parametrize("kind, beta, keys", [
    ("renewal", 0.5, {"sarig_renewal_const", "log_eigenmeasure"}),
    ("renewal", 1.5, {"sarig_renewal_const", "y_family", "log_eigenmeasure"}),
    ("pair_renewal", 0.5, {"pair_critical"}),
    ("pair_renewal", 1.2, {"pair_critical", "y_family_1", "y_family_2"}),
    ("prime_renewal", 0.5, set()),
    ("prime_renewal", 1.0, set()),
    ("prime_renewal", 1.5, {"y_family_1", "y_family_2", "y_family_3", "y_family_5",
                            "y_family_7"}),
    ("alternating_renewal", 0.5, set()),
    ("alternating_renewal", 0.8, {"y_family_1", "y_family_2"}),
])
def test_constructed_measures_by_kind_and_beta(kind, beta, keys):
    assert set(ms.constructed_measures(by_kind(kind), beta)) == keys


def _doubles_above(beta, k):
    """The k-th double above beta."""
    for _ in range(k):
        beta = math.nextafter(beta, math.inf)
    return beta


@st.composite
def kinds_and_betas(draw):
    """A kind with closed-form stem sums and a beta: anywhere in [0.05, 4],
    a few doubles above the kind's critical beta, or just above it."""
    kind = draw(st.sampled_from(["renewal", "pair_renewal", "alternating_renewal"]))
    edge = by_kind(kind).spec.critical_beta
    beta = draw(st.one_of(st.floats(0.05, 4.0),
                          st.integers(1, 64).map(lambda k: _doubles_above(edge, k)),
                          st.floats(1e-12, 1e-2).map(lambda d: edge + d)))
    return kind, beta


# alternating renewal's critical beta; the y-measures exist above it
LOG_SQRT3 = math.log(math.sqrt(3.0))


@given(kinds_and_betas())
# the window a walk of 400 layers left uncertified, and the six doubles
# above log sqrt(3)
@example(("alternating_renewal", 0.551))
@example(("alternating_renewal", 0.56))
@example(("alternating_renewal", 0.6))
@example(("alternating_renewal", _doubles_above(LOG_SQRT3, 1)))
@example(("alternating_renewal", _doubles_above(LOG_SQRT3, 2)))
@example(("alternating_renewal", _doubles_above(LOG_SQRT3, 3)))
@example(("alternating_renewal", _doubles_above(LOG_SQRT3, 4)))
@example(("alternating_renewal", _doubles_above(LOG_SQRT3, 5)))
@example(("alternating_renewal", _doubles_above(LOG_SQRT3, 6)))
@settings(max_examples=60, deadline=None)
def test_every_y_measure_the_phase_table_prints_is_built_and_conformal(case):
    kind, beta = case
    A = by_kind(kind)
    catalog = A.accumulation_catalog
    keys = {"y_family"} if len(catalog) == 1 else {f"y_family_{c.id}" for c in catalog}
    boundary, _, _ = ms.phase_row(A, Constant(1.0), beta, 1e-9)
    if boundary in ("absent", "inconclusive"):
        assert not keys & set(ms.constructed_measures(A, beta))
        return
    # the suite checks every measure constructed_measures builds
    residuals = conformality_suite(A, beta)
    assert keys <= set(residuals) and max(residuals.values()) <= 1e-10, residuals


def test_normalizer_matches_enumeration(pair, prime, alternating):
    # independent check against exact generation counts, up to the
    # certified geometric tail of the truncated enumeration
    depth = 140
    for A, fam, beta in ((pair, 1, 1.2), (pair, 2, 1.0), (prime, 2, 1.35),
                         (alternating, 1, 0.9)):
        col = A.column_by_id(fam)
        res = ms.normalizer(A, col, Constant(-1.0), beta)
        counts = [1] + [sum(layer.values()) for layer in
                        generation_layers(A, col.allowed_terminal_symbols, depth)]
        partial = math.fsum(c * math.exp(-beta * n) for n, c in enumerate(counts))
        rho = A.spec.growth[1] * math.exp(-beta)
        tail = rho ** (depth + 1) / (1.0 - rho)
        assert partial <= res.value + 1e-12
        assert abs(res.value - partial) <= tail + 1e-10 * res.value


def _fixed_depth_walk(A, col, beta):
    """The normalizer's walk as it was before it stopped early: every layer
    to the cap, depth + 1, and the a-priori tail bound there."""
    x = math.exp(-beta)
    rho = A.spec.growth[1] * x
    depth = 8 if x == 0.0 else min(400, max(8, int(math.log(ms.TAIL_TOL * (1 - rho))
                                                   / math.log(rho)) + 2))
    layers = list(generation_layers(A, col.allowed_terminal_symbols, depth + 1, weight=x))
    sums = {}
    for layer in layers[1:]:
        for j, w in layer.items():
            sums[j] = sums.get(j, 0.0) + w
    value = 1.0 + math.fsum(w for layer in layers for w in layer.values())
    return ms.NormalizerResult(value, rho ** (depth + 1) / (1.0 - rho), "finite",
                               {j: w / x if x else 0.0 for j, w in sums.items()})


def _y(A, col, beta, res):
    """The y-measure of a normalizer result, whose row rule fills every T(j)."""
    return ms.YFamilyMeasure(A, col, Constant(-1.0), beta, "test", 1.0 / res.value,
                             dict(res.tails))


def _walk_lengths(monkeypatch):
    """The number of layers each normalizer walk reads, in call order."""
    lengths = []
    walk = ms.generation_layers

    def counted(*args, **kwargs):
        lengths.append(0)
        for layer in walk(*args, **kwargs):
            lengths[-1] += 1
            yield layer
    monkeypatch.setattr(ms, "generation_layers", counted)
    return lengths


@pytest.mark.parametrize("beta", [1.2, 1.263, 1.6, 2.0])
def test_prime_early_stop_matches_the_fixed_depth_walk(prime, beta):
    for col in prime.accumulation_catalog:
        new = ms.normalizer(prime, col, Constant(-1.0), beta)
        old = _fixed_depth_walk(prime, col, beta)
        slack = new.tail_bound + old.tail_bound + 8 * math.ulp(old.value)
        assert new.tail_bound <= ms.TAIL_TOL and new.tail_bound <= old.tail_bound
        assert abs(new.value - old.value) <= slack, (col.id, beta)
        mu, oracle = _y(prime, col, beta, new), _y(prime, col, beta, old)
        for j in range(1, 13):
            assert abs(mu._tail(j) - oracle._tail(j)) <= slack, (col.id, beta, j)


@functools.lru_cache(maxsize=None)
def _exact_layers(family_id, n):
    """Exact integer counts of the first n layers of a prime-renewal family:
    each layer's total and its entries for the first letters 1..12."""
    A = by_kind("prime_renewal")
    seeds = A.column_by_id(family_id).allowed_terminal_symbols
    return [(sum(layer.values()), {j: layer.get(j, 0) for j in range(1, 13)})
            for layer in generation_layers(A, seeds, n)]


@pytest.mark.parametrize("beta", [1.0987, 1.1, 1.15, 1.263, 2.0])
def test_prime_normalizer_against_exact_counts(prime, beta, monkeypatch):
    # a 40-digit sum over 600 exact layers, at the double x the walk uses.
    # The value and every T(j) agree within the tail bound and 8 ulp, and
    # the bound covers what the walk's own layers leave out of 1/c_e and of
    # each T(j) it names
    mpmath = pytest.importorskip("mpmath")
    lengths = _walk_lengths(monkeypatch)
    with mpmath.workdps(40):
        x = mpmath.mpf(math.exp(-beta))
        for col in prime.accumulation_catalog:
            layers = _exact_layers(col.id, 600)
            res = ms.normalizer(prime, col, Constant(-1.0), beta)
            n = lengths[-1]
            stems = [total * x ** k for k, (total, _) in enumerate(layers, 1)]
            assert stems[-1] / (1 - 3 * x) < 1e-30     # what the 600 layers leave out
            assert mpmath.fsum(stems[n:]) <= res.tail_bound, (col.id, beta)
            slack = res.tail_bound + 8 * math.ulp(res.value)
            assert abs(res.value - (1 + mpmath.fsum(stems))) <= slack, (col.id, beta)
            mu = _y(prime, col, beta, res)
            for j in range(1, 13):
                # T(j) sums x^(k-1) over the words of length k >= 2 that start with j
                cont = [first[j] * x ** (k - 1) for k, (_, first) in enumerate(layers[1:], 2)]
                if j in res.tails:
                    assert mpmath.fsum(cont[n - 1:]) <= res.tail_bound, (col.id, beta, j)
                assert abs(mu._tail(j) - mpmath.fsum(cont)) <= slack, (col.id, beta, j)


def test_prime_walks_stop_once_the_rest_cannot_move_the_sum(prime, monkeypatch):
    # the a-posteriori bound ends every walk at beta 1.263 by layer 125;
    # the a-priori bound alone walks to the cap, 196 layers
    lengths = _walk_lengths(monkeypatch)
    for col in prime.accumulation_catalog:
        res = ms.normalizer(prime, col, Constant(-1.0), 1.263)
        assert res.tail_bound <= 2.0 ** -53 * res.value
    assert len(lengths) == 5 and max(lengths) <= 125, lengths


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal", "alternating_renewal"])
def test_walks_without_closed_forms_reach_the_cap(kind, monkeypatch):
    # without its stem sums, a kind whose layers shrink by d x walks to the
    # cap within 2.9 of its critical beta, and its value and sums are those
    # of the fixed-depth walk bit for bit; its tail bound is no larger
    walking = by_kind(kind)
    monkeypatch.setattr(walking, "spec", dataclasses.replace(walking.spec, stem_sums=None))
    assert walking.spec.stem_sums is None
    bc = walking.spec.critical_beta
    for beta in [bc + 1e-12, bc + 1e-6, bc + 1e-3] + [bc + 0.02 * k for k in range(1, 146)]:
        for col in walking.accumulation_catalog:
            new = ms.normalizer(walking, col, Constant(-1.0), beta)
            old = _fixed_depth_walk(walking, col, beta)
            assert (new.value, new.tails) == (old.value, old.tails), (col.id, beta)
            assert new.tail_bound <= old.tail_bound, (col.id, beta)


CYCLIC_4 = (4, {i: frozenset({i - 1}) for i in range(1, 5)})


@given(residue_kinds())
@settings(max_examples=6, deadline=None)
@example(CYCLIC_4)
def test_letters_the_walk_never_reached_have_no_continuations(description):
    # at a large beta the walk stops after a layer or two, and where row 1
    # is irregular it may leave letter 1 out of its sums: the row rule then
    # starts at T(1) = 0, within the tail bound, against the fixed-depth
    # walk, which reaches every letter asked for
    with residue_matrix(*description) as A:
        for beta in (20.0, 30.0, 60.0):
            for col in A.accumulation_catalog:
                new = ms.normalizer(A, col, Constant(-1.0), beta)
                old = _fixed_depth_walk(A, col, beta)
                assert 1 in old.tails or A.row(1) == ss.ALL
                slack = new.tail_bound + old.tail_bound + 8 * math.ulp(old.value)
                assert abs(new.value - old.value) <= slack, (col.id, beta)
                mu, oracle = _y(A, col, beta, new), _y(A, col, beta, old)
                for j in range(1, 13):
                    assert abs(mu._tail(j) - oracle._tail(j)) <= slack, (col.id, beta, j)
        if description == CYCLIC_4:
            assert 1 not in ms.y_measure(A, 1, UNIT_POTENTIAL, 20.0).tails
            assert max(conformality_suite(A, 30.0).values()) <= 1e-10


@pytest.mark.parametrize("beta", [1.0987, 1.1, 1.15, 1.17])
def test_prime_measures_exist_where_the_phase_table_says(prime, beta):
    # the walk that stops on its own layers certifies the window
    # (log 3, 1.1796] that the 400-layer cap left to its a-priori bound
    assert ms.phase_row(prime, Constant(1.0), beta, 1e-9)[0] == "1 per family (countably many)"
    residuals = conformality_suite(prime, beta)
    assert len(residuals) == 5 and max(residuals.values()) <= 1e-10, residuals


def test_prime_y_measures_are_certified_from_just_above_log3(prime):
    for offset in (1e-12, 1e-10, 1e-6, 1e-3):
        for col in prime.accumulation_catalog:
            assert ms.y_measure(prime, col.id, Constant(1.0), LOG3 + offset).c_e > 0


# -- boundary family measures --------------------------------------------------------

def test_y_measure_renewal_examples(renewal):
    mu = ms.y_measure(renewal, 1, Constant(1.0), LOG3)
    assert mu.c_e == pytest.approx(0.5)
    assert mu.point_mass(BoundedConfig(renewal, (1,), mu.family)) == pytest.approx(1.0 / 6.0)
    assert mu.cyl_mass((2, 1)) == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_y_measure_cylinder_closed_form(renewal):
    for b in (LOG2 + 0.05, 1.1, 1.6):
        mu = ms.y_measure(renewal, 1, Constant(1.0), b)
        for n in range(1, 6):
            for alpha in enumerate_words(renewal, n, {1}, 8).words:
                assert mu.cyl_mass(alpha) == pytest.approx(
                    math.exp(-n * b), rel=1e-12), (b, alpha)


def test_y_measure_absent_below_threshold(renewal, pair):
    with pytest.raises(ms.AbsenceOfMeasure):
        ms.y_measure(renewal, 1, Constant(1.0), LOG2)
    with pytest.raises(ms.AbsenceOfMeasure):
        ms.y_measure(pair, 1, Constant(1.0), PAIR_BC - 1e-3)


def test_atomic_conformality_identity(renewal, pair):
    # c(w) * lam * exp(-beta*weight(w0)) equals c(shifted w), exactly
    cases = [ms.y_measure(renewal, 1, Constant(1.0), 1.1),
             ms.y_measure(pair, 1, Constant(1.0), 1.2),
             ms.y_measure(pair, 2, Constant(1.0), 1.2),
             ms.log_eigenmeasure(2.0, renewal)]
    for mu in cases:
        A = mu.matrix
        stems = []
        for n in range(1, 6):
            stems += enumerate_words(A, n, mu.family.allowed_terminal_symbols, 7).words
        for w in stems:
            lhs = (mu.point_mass(BoundedConfig(A, w, mu.family)) * mu.lam
                   * math.exp(-mu.beta * mu.weight.value(w[0])))
            rhs = mu.point_mass(BoundedConfig(A, w[1:], mu.family))
            assert lhs == pytest.approx(rhs, rel=1e-12), (mu.kind, w)


def test_point_mass_routing(pair):
    mu1 = ms.y_measure(pair, 1, Constant(1.0), 1.2)
    xi1, xi2 = empty_stem_config(pair, 1), empty_stem_config(pair, 2)
    assert mu1.point_mass(xi1) == pytest.approx(mu1.c_e)
    assert mu1.point_mass(xi2) == 0.0
    assert mu1.point_mass(bounded(pair, (2, 1), 2)) == 0.0


WALK_BETA = {"pair_renewal": 1.2, "prime_renewal": 1.3, "alternating_renewal": 0.9}


@pytest.mark.parametrize("kind", sorted(WALK_BETA))
def test_y_measure_against_generation_walk(kind):
    # independent oracle: weighted generation counts of stems with a fixed
    # first letter, walked until the geometric tail is below 1e-16
    A, beta = by_kind(kind), WALK_BETA[kind]
    x = math.exp(-beta)
    rho = A.spec.growth[1] * x
    depth = int(math.log(1e-16 * (1.0 - rho)) / math.log(rho)) + 1
    for col in A.accumulation_catalog:
        mu = ms.y_measure(A, col.id, Constant(1.0), beta)
        for first in (1, 2, 3):
            total = 0.0
            layer = {t: 1 for t in col.allowed_terminal_symbols}
            for n in range(1, depth + 1):
                total += layer.get(first, 0) * x ** n
                nxt: dict[int, int] = {}
                for sym, c in layer.items():
                    for p in A.predecessors(sym):
                        nxt[p] = nxt.get(p, 0) + c
                layer = nxt
            assert mu.cyl_mass((first,)) == pytest.approx(
                mu.c_e * total, rel=1e-12), (col.id, first)


def test_one_stem_walk_per_y_measure(prime, pair, alternating, monkeypatch):
    # the normalizer's walk (or closed form) is the only source of the
    # continuation sums, and only prime renewal walks
    calls = {"walk": 0, "solve": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ms, "generation_layers", counted("walk", ms.generation_layers))
    monkeypatch.setattr(mx, "_pair_tails", counted("solve", mx._pair_tails))
    ms.verify_conformality(ms.y_measure(prime, 2, Constant(1.0), 1.3),
                           cylinder_words_up_to(prime, 3, 6))
    ms.verify_conformality(ms.y_measure(pair, 1, Constant(1.0), 1.2),
                           cylinder_words_up_to(pair, 3, 6))
    ms.verify_conformality(ms.y_measure(alternating, 1, Constant(1.0), 0.6),
                           cylinder_words_up_to(alternating, 3, 6))
    assert calls == {"walk": 1, "solve": 1}


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal", "alternating_renewal"])
def test_stem_sums_match_the_generation_walk(kind, monkeypatch):
    # each closed form, and the row rule past the sums it names, agrees with
    # the walk the normalizer takes on the same kind without its stem sums,
    # within the walk's tail bound, on every family, wherever the walk
    # certifies its tail; the closed forms are read first, as the walk
    # patches the kind's one matrix
    A = by_kind(kind)
    betas = [A.spec.critical_beta + offset for offset in (0.09, 0.1, 0.15, 0.3, 0.6, 1.2)]
    exact = {}
    for beta in betas:
        for col in A.accumulation_catalog:
            res = ms.normalizer(A, col, Constant(-1.0), beta)
            mu = ms.y_measure(A, col.id, Constant(1.0), beta)
            exact[beta, col.id] = res, [mu._tail(j) for j in range(1, 12)]
    monkeypatch.setattr(A, "spec", dataclasses.replace(A.spec, stem_sums=None))
    assert A.spec.stem_sums is None
    checked = 0
    for beta in betas:
        for col in A.accumulation_catalog:
            walked = ms.normalizer(A, col, Constant(-1.0), beta)
            if walked.tail_bound > ms.TAIL_TOL:
                continue
            checked += 1
            res, tails = exact[beta, col.id]
            slack = walked.tail_bound + 8 * math.ulp(walked.value)
            assert res.tail_bound == 0.0, (col.id, beta)
            assert abs(res.value - walked.value) <= slack, (col.id, beta)
            walked_mu = ms.y_measure(A, col.id, Constant(1.0), beta)
            for j in range(1, 12):
                assert abs(tails[j - 1] - walked_mu._tail(j)) <= slack, (col.id, beta, j)
    assert checked >= 5 * len(A.accumulation_catalog)


def _pinned_normalizer(kind, x, terminals):
    """The renewal closed form and the pair-renewal 3x3 solve, written out.
    Pinned outputs read their last bits, so the normalizer gives exactly
    these values until a change regenerates those outputs."""
    if kind == "renewal":
        r = 2.0 * x
        return 1.0 + 0.5 * r / (1.0 - r), {}
    h, e2 = float(len(terminals)), 1.0 if 2 in terminals else 0.0
    M = np.array([[1.0 - x, -x, -x / (1.0 - x)],
                  [-x, 1.0 - x, -x * x / (1.0 - x * x)],
                  [0.0, -x, 1.0]])
    t1, t2, t3 = np.linalg.solve(M, np.array([x * h, x * (1.0 + e2), x * e2]))
    return 1.0 + float(t1), {1: float(t1), 2: float(t2), 3: float(t3)}


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal"])
def test_closed_form_normalizers_are_bit_identical(kind):
    A = by_kind(kind)
    bc = A.spec.critical_beta
    grid = [bc + 1e-12, bc + 1e-6, bc + 1e-3] + [bc + 0.01 * k for k in range(1, 301)]
    for beta in grid:
        x = math.exp(-beta)
        for col in A.accumulation_catalog:
            res = ms.normalizer(A, col, Constant(-1.0), beta)
            value, tails = _pinned_normalizer(kind, x, col.allowed_terminal_symbols)
            assert (res.value, res.tails, res.tail_bound) == (value, tails, 0.0), (col.id, beta)


def test_alternating_stem_sums_stay_finite_inside_the_band(alternating):
    # at each of the 4,000 doubles x below 1/sqrt(3) the band accepts, the
    # rounded d = 1 - 3x^2 stays positive, so the closed form is finite
    x, s3, seen = 1.0 / math.sqrt(3.0), math.sqrt(3.0), 0
    for _ in range(4000):
        x = math.nextafter(x, 0.0)
        if s3 * x < 1.0:
            seen += 1
            for col in alternating.accumulation_catalog:
                value, tails = alternating.spec.stem_sums(x, col.allowed_terminal_symbols)
                assert math.isfinite(value) and all(t > 0 for t in tails.values())
    assert seen >= 3990


def test_a_closed_form_past_its_radius_is_inconclusive(alternating, monkeypatch):
    # at beta = log sqrt(3), rounded down, the band says absent and the
    # rounded d is below 0; a band that said exists there is refused, not
    # read as a measure
    beta = math.log(math.sqrt(3.0))
    col = alternating.column_by_id(1)
    assert ms.normalizer(alternating, col, Constant(-1.0), beta).divergent
    assert alternating.spec.stem_sums(math.exp(-beta), col.allowed_terminal_symbols)[0] == math.inf
    monkeypatch.setattr(ms, "growth_band", lambda A, weight, beta: "exists")
    with pytest.raises(ms.Inconclusive, match="closed form"):
        ms.normalizer(alternating, col, Constant(-1.0), beta)


# -- continuation sums ---------------------------------------------------------------------

def test_renewal_tails_are_the_recursion_from_t1(renewal):
    # T(1) = 1/c_e - 1, T(j) = u(j-1) (T(j-1) + [j-1 = 1]), with c_e from the
    # normalizer and with c_e given
    for m in (ms.y_measure(renewal, 1, Constant(1.0), 1.2), ms.log_eigenmeasure(2.0, renewal)):
        want = [None, m.normalizer_value - 1.0]
        for j in range(2, 201):
            u = math.exp(m.beta * m.weight.value(j - 1))
            want.append(u * (want[j - 1] + (1.0 if j - 1 == 1 else 0.0)))
        assert [m._tail(j) for j in range(200, 0, -1)] == want[:0:-1]


def test_pair_tails_descend_geometrically_from_t3(pair):
    for fam in (1, 2):
        m = ms.y_measure(pair, fam, Constant(1.0), 1.2)
        tails = [m._tail(j) for j in range(40, 2, -1)]
        u, t3 = math.exp(-1.2), tails[-1]
        assert tails == pytest.approx([u ** (j - 3) * t3 for j in range(40, 2, -1)],
                                      rel=1e-14, abs=0)


def test_a_letter_far_past_the_known_sums_has_its_mass(renewal):
    # T(5000) is filled upward from T(1), in a loop
    assert ms.y_measure(renewal, 1, Constant(1.0), 1.2).cyl_mass((5000,)) == 0.0   # e^-6000
    # above beta_c the log eigenmeasure gives the letter n the mass (n+1)^-beta
    assert ms.log_eigenmeasure(2.0, renewal).cyl_mass((5000,)) == pytest.approx(5001.0 ** -2,
                                                                             rel=1e-10)


@pytest.mark.parametrize("n", [1025, 1030])
def test_sarig_mass_past_the_double_range_of_lam_powers(n):
    # lam^(n-1) = 2^(n-1) overflows a double; the mass 2^-n does not
    got = ms.sarig_measure_renewal(by_kind("renewal")).cyl_mass((n,))
    assert got == pytest.approx(math.ldexp(1.0, -n), rel=1e-12)


# the least beta whose walk, stopped at its cap of 401 layers, certifies the
# tail of family 1, and the double below it; only prime renewal walks
CAP_BOUNDARY = {"prime_renewal": (1.0986122886683451, 1.098612288668345)}


@pytest.mark.parametrize("kind", sorted(CAP_BOUNDARY))
def test_layer_cap_boundary(kind):
    A = by_kind(kind)
    accepted, refused = CAP_BOUNDARY[kind]
    mu = ms.y_measure(A, 1, Constant(1.0), accepted)
    assert ms.verify_conformality(mu, cylinder_words_up_to(A, 2, 4)).max_residual <= 1e-10
    with pytest.raises(ms.Inconclusive, match="normalizer tail"):
        ms.y_measure(A, 1, Constant(1.0), refused)


def test_prime_y_measure_probability(prime):
    mu = ms.y_measure(prime, 3, Constant(1.0), 1.3)
    counts = [1] + [sum(layer.values()) for layer in generation_layers(
        prime, prime.column_by_id(3).allowed_terminal_symbols, 80)]
    partial = mu.c_e * math.fsum(c * math.exp(-1.3 * n) for n, c in enumerate(counts))
    assert partial == pytest.approx(1.0, abs=1e-9)


# -- the shared mass rules ------------------------------------------------------------------

def test_measure_rules_hold_for_every_measure(renewal, pair):
    y_pair = [ms.y_measure(pair, fam, Constant(1.0), 1.2) for fam in (1, 2)]
    measures = [ms.y_measure(renewal, 1, Constant(1.0), 1.1), ms.sarig_measure_renewal(renewal),
                ms.pair_renewal_critical_measure(pair), ms.log_eigenmeasure(1.4, renewal),
                ConvexCombination([(0.25, y_pair[0]), (0.75, y_pair[1])])]
    assert len({m.kind for m in measures}) == 5
    for m in measures:
        def family_mass(prefix, symbols):
            return ms.measure_setexpr(m, SetExpr(m.matrix, False, (), (), (
                CylFamily(prefix, symbols),)))

        # (2, 3) is inadmissible on both matrices: A(2, 3) = 0, and the
        # empty cylinder on (1, 2, 3) has an empty shift image
        assert m.cyl_mass((2, 3)) == 0.0
        assert ms.measure_setexpr(m, shift_image(m.matrix, (1, 2, 3))) == 0.0
        assert m.cyl_mass(()) == m.total_mass()
        for prefix in ((), (1,), (1, 1)):
            finite = ss.FiniteSet(frozenset({1, 2, 3, 5}))
            assert family_mass(prefix, finite) == math.fsum(
                m.cyl_mass(prefix + (k,)) for k in (1, 2, 3, 5)), (m.kind, prefix)
            # row 1 is full, so a sieve and its finite complement split the prefix's cylinder
            assert family_mass(prefix, ss.all_except({1, 2, 3, 5})) + family_mass(
                prefix, finite) == pytest.approx(family_mass(prefix, ss.ALL), rel=1e-12)


# -- sequence-space measures ------------------------------------------------------------

def test_sarig_measure_values(renewal):
    nu = ms.sarig_measure_renewal(renewal)
    assert nu.cyl_mass((1,)) == 0.5
    assert nu.cyl_mass((3,)) == nu.cyl_mass((3, 2, 1)) == 0.125
    assert nu.cyl_mass((2, 1)) == 0.25
    # total over first-letter cylinders telescopes to 1
    assert math.fsum(nu.cyl_mass((n,)) for n in range(1, 60)) == pytest.approx(1.0)
    assert nu.point_mass(empty_stem_config(renewal, 1)) == 0.0


def test_pair_critical_values(pair):
    mu = ms.pair_renewal_critical_measure(pair)
    assert mu.beta == pytest.approx(PAIR_BC)
    assert mu.cyl_mass((1,)) == pytest.approx(math.sqrt(2) - 1, abs=1e-14)
    assert mu.cyl_mass((3,)) == pytest.approx(math.exp(-mu.beta) * mu.end_masses[2], rel=1e-14)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


# the hand-coded base values the sequence measures had before conformality
# derived them from their end-letter masses: the oracle of ``base_value``

def test_sarig_base_values_are_powers_of_two(renewal):
    nu = ms.sarig_measure_renewal(renewal)
    assert all(nu.base_value(n) == 2.0 ** (-n) for n in range(1, 201))


def test_pair_critical_base_values(pair):
    mu = ms.pair_renewal_critical_measure(pair)
    b = pair.spec.critical_beta
    nu1 = math.exp(-b)
    nu2 = math.exp(-b) * (1.0 - math.exp(-2.0 * b)) / (2.0 * math.sinh(b) - 1.0)
    assert mu.base_value(1) == nu1
    assert all(mu.base_value(n) == math.exp(-b * (n - 2)) * nu2 for n in range(2, 201))


@pytest.mark.parametrize("beta", [0.3, 0.9, 1.2, 1.5, "beta_c"])
def test_log_eigen_sigma_base_values(beta, renewal):
    beta = beta_c_log() if beta == "beta_c" else beta
    m = ms.log_eigenmeasure(beta, renewal)
    assert m.kind == "log_eigen_sigma"
    for n in range(1, 41):
        assert m.base_value(n) == pytest.approx(
            m.lam ** (-n) * (n + 1.0) ** (-beta), rel=1e-14, abs=0.0), n


def test_sequence_measures_are_specific_to_their_matrix(renewal, pair):
    for build, wrong in ((ms.sarig_measure_renewal, pair), (ms.pair_renewal_critical_measure,
                                                             renewal)):
        with pytest.raises(ms.MeasureError, match="this measure is specific to the"):
            build(wrong)
    with pytest.raises(ms.MeasureError, match="specific to the renewal matrix"):
        ms.log_eigenmeasure(1.2, pair)


def test_pair_normalization_root():
    assert ms.pair_renewal_normalization_root() == pytest.approx(math.sqrt(2) - 1, abs=1e-10)


def extend_by_conformality(m, alpha):
    """Cylinder mass by peeling first letters through the conformality relation,
    one letter at a time, down to the length-one mass: an oracle for
    ``SequenceMeasure.peel``, which sums a constant weight in closed form."""
    value = m.cyl_mass(alpha[-1:])
    for s in reversed(alpha[:-1]):
        value *= math.exp(m.beta * m.weight.value(s)) / m.lam
    return value


def test_extend_by_conformality(pair, renewal):
    mu = ms.pair_renewal_critical_measure(pair)
    assert extend_by_conformality(mu, (1, 2)) == pytest.approx(
        math.exp(-mu.beta) * mu.end_masses[2], rel=1e-14)
    assert extend_by_conformality(mu, (2,)) == mu.end_masses[2]
    m = ms.log_eigenmeasure(1.4, renewal)
    for alpha in [(1, 1), (2, 1), (1, 2, 1), (3, 2, 1, 1), (1, 1, 2, 1, 1)]:
        want = m.cyl_mass(alpha)
        got = extend_by_conformality(m, alpha)
        assert got == pytest.approx(want, rel=1e-12)
        # closed form: peeled letter weights over lam^(last + len - 1)
        n = len(alpha)
        head = math.exp(m.beta * math.fsum(LogRatio().value(s) for s in alpha[:-1]))
        closed = head / (m.lam ** (alpha[-1] + n - 1)) / (alpha[-1] + 1.0) ** m.beta
        assert got == pytest.approx(closed, rel=1e-12)


def test_log_eigenmeasure_dispatch(renewal, pair):
    # the eigenmeasure lives where log_ratio_support says, which the
    # log-ratio phase table prints
    bc = beta_c_log()
    assert isinstance(ms.log_eigenmeasure(2.0, renewal), ms.YFamilyMeasure)
    assert ms.log_eigenmeasure(bc, renewal).kind == "log_eigen_sigma"
    assert ms.log_eigenmeasure(1.2, renewal).kind == "log_eigen_sigma"
    assert [ms.log_ratio_support(renewal, b) for b in (1.2, bc, math.nextafter(bc, 3.0), 2.0)] \
        == ["sequence space", "sequence space", "boundary family", "boundary family"]
    with pytest.raises(ValueError):
        ms.log_eigenmeasure(-1.0, renewal)
    with pytest.raises(ValueError, match="beta must be positive"):
        ms.log_ratio_support(renewal, 0.0)
    with pytest.raises(ms.MeasureError, match="specific to the renewal matrix"):
        ms.log_ratio_support(pair, 2.0)


def test_log_eigenmeasure_values(renewal):
    m2 = ms.log_eigenmeasure(2.0, renewal)
    assert m2.c_e == pytest.approx(2.0 - math.pi ** 2 / 6, abs=1e-12)
    assert m2.point_mass(BoundedConfig(renewal, (1,), m2.family)) == pytest.approx(2.0 ** -2.0 * (2 - zeta(2.0)), rel=1e-12)
    mbc = ms.log_eigenmeasure(beta_c_log(), renewal)
    assert mbc.total_mass() == pytest.approx(1.0, abs=1e-10)
    assert mbc.point_mass(empty_stem_config(renewal, 1)) == 0.0
    m12 = ms.log_eigenmeasure(1.2, renewal)
    assert m12.total_mass() == pytest.approx(1.0, abs=1e-8)
    assert m12.lam > 1.0


# -- set-expression evaluation ------------------------------------------------------------

def test_measure_setexpr(renewal):
    mu = ms.y_measure(renewal, 1, Constant(1.0), LOG3)
    assert ms.measure_setexpr(mu, decompose(Subbasis(renewal, (2, 1)))) == pytest.approx(1.0 / 9)
    nu = ms.sarig_measure_renewal(renewal)
    assert ms.measure_setexpr(nu, decompose(Subbasis(renewal, (2, 1)))) == pytest.approx(0.25)
    # whole space and complements
    for m in (mu, nu):
        assert ms.measure_setexpr(m, decompose(Subbasis(renewal, ()))) == pytest.approx(1.0)
        total = (ms.measure_setexpr(m, decompose(Subbasis(renewal, (1,))))
                 + ms.measure_setexpr(m, decompose(Subbasis(renewal, (1,), complemented=True))))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_measure_additivity_on_intersections(pair):
    mu = ms.y_measure(pair, 1, Constant(1.0), 1.2)
    a, b = Subbasis(pair, (1,)), Subbasis(pair, (1, 2), complemented=True)
    inter = intersect_many([a, b])
    # mu(C_1) = mu(C_1 minus C_12) + mu(C_12)
    assert ms.measure_setexpr(mu, decompose(a)) == pytest.approx(
        ms.measure_setexpr(mu, inter) + mu.cyl_mass((1, 2)), rel=1e-12)
    inv = decompose(Subbasis(pair, (), 2))
    direct = mu.point_mass(empty_stem_config(pair, 1)) + mu.cyl_mass((1,)) + math.fsum(
        mu.cyl_mass((2 * k,)) for k in range(1, 200))
    assert ms.measure_setexpr(mu, inv) == pytest.approx(direct, rel=1e-10)


def test_shared_letters_of_two_zero_rows_are_counted_once(prime):
    # prime rows 2 = {1, 2, 4, 8, ...} and 3 = {2, 3, 9, 27, ...} share the
    # letter 2, so the sieve of letters outside both subtracts it once, not twice
    assert prime.irregular_rows_intersection(2, 3) == {2}
    expr = intersect_many([Subbasis(prime, (), 2, complemented=True),
                           Subbasis(prime, (), 3, complemented=True)])
    (family,) = expr.families
    assert family.prefix == () and family.symbols.zero_rows == {2, 3}
    mu = ms.y_measure(prime, 2, Constant(1.0), 2.0)
    outside = [k for k in range(1, 61) if not prime.entry(2, k) and not prime.entry(3, k)]
    head = math.fsum(mu.cyl_mass((k,)) for k in outside)
    # a stem of family 2 that starts with k > 60 falls at most one letter a
    # step to its terminal 1 or 2, so it has at least 60 letters; at most 3^n
    # stems have length n, each of mass c_e u^n with u = exp(-2)
    u = math.exp(-2.0)
    rest = mu.c_e * (3 * u) ** 60 / (1 - 3 * u)
    # the empty-stem points of the meet lie on other families: no mass here
    assert all(p.root.id != 2 for p in expr.points)
    assert abs(ms.measure_setexpr(mu, expr) - head) <= rest + 1e-15
    assert mu.base_value(2) > 0.1    # what counting the letter twice would cost


# -- conformality -------------------------------------------------------------------------

def test_verify_conformality_residuals(renewal, pair):
    cyls = cylinder_words_up_to(renewal, 6, 7)
    rep = ms.verify_conformality(ms.sarig_measure_renewal(renewal), cyls)
    assert rep.max_residual <= 1e-12
    rep = ms.verify_conformality(ms.y_measure(renewal, 1, Constant(1.0), 1.5), cyls)
    assert rep.max_residual <= 1e-12
    cyls_p = cylinder_words_up_to(pair, 6, 7)
    rep = ms.verify_conformality(ms.pair_renewal_critical_measure(pair), cyls_p)
    assert rep.max_residual <= 1e-12


def test_conformality_suite_checks_the_log_eigenmeasure_at_the_beta_given(renewal):
    want = ms.verify_conformality(ms.log_eigenmeasure(0.5, renewal),
                                  cylinder_words_up_to(renewal, 6, 7)).max_residual
    assert conformality_suite(renewal, 0.5)["log_eigenmeasure"] == want


def test_one_shift_image_per_distinct_word(pair, monkeypatch):
    # the images depend on the word only, so three measures share them
    calls = 0
    normalize = cylinders.normalize

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return normalize(*args, **kwargs)

    shift_image.cache_clear()
    ms._conformality_rows.cache_clear()
    monkeypatch.setattr(cylinders, "normalize", counted)
    assert set(conformality_suite(pair, 1.2)) == {"pair_critical", "y_family_1", "y_family_2"}
    assert calls == len(cylinder_words_up_to(pair, 6, 7)) == 867


def test_shift_image_memo_matches_a_fresh_build():
    # one cache across the matrices, so a word shared by two of them is a
    # cache key that must still tell them apart
    cases = [(by_kind("renewal"), 6, 7), (by_kind("pair_renewal"), 6, 7),
             (by_kind("prime_renewal"), 4, 6), (by_kind("alternating_renewal"), 4, 6),
             (explicit([[0, 1], [1, 0]]), 4, 2)]
    for A, max_len, sym_bound in cases:
        words = cylinder_words_up_to(A, max_len, sym_bound)
        assert words
        for w in words:
            image = shift_image(A, w)
            assert shift_image(A, w) is image
            assert image == shift_image.__wrapped__(A, w), (A, w)


def checked_row_residual(m, words):
    """The conformality residual with each word checked by ``cyl_mass`` on
    the right-hand side, as the rows were read before they took
    admissibility from the shift image: the oracle for that reading."""
    worst = 0.0
    for alpha in words:
        lhs = ms.measure_setexpr(m, shift_image(m.matrix, alpha))
        rhs = m.lam * math.exp(-m.beta * m.weight.value(alpha[0])) * m.cyl_mass(alpha)
        worst = max(worst, abs(lhs - rhs))
    return worst


def row_residuals(m, words, image_of=shift_image):
    """The conformality residual of each word, one row at a time as the
    rows were read before they were planned once per word list: the whole
    ``measure_setexpr`` of the image, and lam exp(-beta*weight) formed per
    row.  The oracle for the planned rows."""
    out = []
    for alpha in words:
        image = image_of(m.matrix, alpha)
        lhs = ms.measure_setexpr(m, image)
        mass = m._cyl_mass(alpha) if len(alpha) == 1 or not image.is_empty else 0.0
        rhs = m.lam * math.exp(-m.beta * m.weight.value(alpha[0])) * mass
        out.append(abs(lhs - rhs))
    return out


def assert_rows_bit_identical(m, words):
    got = list(ms._conformality_residuals(m, words))
    assert got == row_residuals(m, words)
    assert max(got) == checked_row_residual(m, words) == ms.verify_conformality(m, words).max_residual


def assert_suite_rows_bit_identical(A, beta):
    words = cylinder_words_up_to(A, 6, 7)
    measures = ms.constructed_measures(A, beta)
    got = conformality_suite(A, beta)
    assert set(got) == set(measures)
    for key, m in measures.items():
        assert_rows_bit_identical(m, words)
        assert got[key] == max(row_residuals(m, words)), key
    # inadmissible words whose tails are admissible: their images are
    # empty, and so is their right side; then single letters past the
    # bound.  Each letter is met in longer words, first letter or last,
    # before its own row, and on renewal the log-ratio weight tells the
    # letters' factors apart
    extra = [(a,) + t for t in cylinder_words_up_to(A, 3, 5) for a in range(1, 7)]
    extra += [(k,) for k in range(1, 13)]
    assert any(not is_admissible(A, w) for w in extra)
    for m in measures.values():
        assert_rows_bit_identical(m, extra)


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal"])
@pytest.mark.parametrize("beta", [0.5, 1.1, 1.5, 2.0])
def test_conformality_rows_read_admissibility_bit_identically(kind, beta):
    assert_suite_rows_bit_identical(by_kind(kind), beta)


@pytest.mark.parametrize("beta", [0.6, 1.2])
def test_alternating_conformality_rows_read_admissibility_bit_identically(alternating, beta):
    assert_suite_rows_bit_identical(alternating, beta)


def test_prime_y_measure_rows_read_admissibility_bit_identically(prime):
    words = cylinder_words_up_to(prime, 4, 6)
    extra = words + [(a,) + t for t in cylinder_words_up_to(prime, 2, 6) for a in range(1, 8)]
    assert any(not is_admissible(prime, w) for w in extra)
    for beta in (1.25, 1.6, 2.0):
        for root in prime.accumulation_catalog:
            m = ms.y_measure(prime, root.id, Constant(1.0), beta)
            for ws in (words, extra):
                assert_rows_bit_identical(m, ws)


def test_conformality_rows_read_a_generator_as_its_list(renewal):
    m = ms.log_eigenmeasure(0.5, renewal)
    words = cylinder_words_up_to(renewal, 4, 5)
    assert list(ms._conformality_residuals(m, iter(words))) == row_residuals(m, words)
    assert (ms.verify_conformality(m, (w for w in words)).max_residual
            == ms.verify_conformality(m, words).max_residual)


def test_conformality_rows_read_words_in_any_order_and_repeated(pair):
    # a sorted prefix-closed list is its own table, repeats of its longest
    # words too; a reversed list, whose parents come late, is planned on the
    # sorted closure of its words
    m = ms.pair_renewal_critical_measure(pair)
    words = cylinder_words_up_to(pair, 4, 5)
    longest = [w for w in words if len(w) == 4][:3]
    for ws, own_table in ((words + longest, True), (words[::-1], False), (longest, False)):
        assert (ms._conformality_rows(pair, tuple(ws)).table == tuple(ws)) == own_table
        assert list(ms._conformality_residuals(m, ws)) == row_residuals(m, ws)


def test_only_a_one_atom_image_reads_one_cylinder_mass(pair, monkeypatch):
    # no shift image of a rule kind holds an atom beside a point or a
    # family: a letter whose row is finite is no terminal of any root.  So
    # hand-made images stand in, and each must be read in full
    m = ms.y_measure(pair, 1, Constant(1.0), 1.2)
    with_point = cylinders.normalize(pair, points=[bounded(pair, (1,), 1)], atoms=[(3, 2)])
    with_family = cylinders.normalize(pair, atoms=[(3, 2)],
                                      families=[CylFamily((1,), ss.all_except({1}))])
    for image in (with_point, with_family):
        assert len(image.atoms) == 1 and (image.points or image.families)
        assert ms.measure_setexpr(m, image) != m._cyl_mass(image.atoms[0])
    images = {(1, 3, 2): with_point, (2, 3, 2): with_family}
    monkeypatch.setattr(ms, "shift_image", lambda A, w: images.get(w) or shift_image(A, w))
    words = [(1, 3, 2), (2, 3, 2), (1, 1), (3, 2)]
    assert (list(ms._conformality_residuals(m, words))
            == row_residuals(m, words, image_of=ms.shift_image))


def test_cylinder_words_take_one_walk_per_length(monkeypatch):
    # one walk per length, seeded with every letter, gives the words of the
    # per-letter enumeration, deduplicated and sorted
    import gcms.verification as vf
    cases = [(by_kind(kind), 6, 7) for kind in
             ("renewal", "pair_renewal", "prime_renewal", "alternating_renewal")]
    cases.append((explicit([[0, 1], [1, 0]]), 6, 7))
    for A, max_len, sym_bound in cases:
        letters = range(1, min(sym_bound, A.size or sym_bound) + 1)
        want = sorted({w for n in range(1, max_len + 1) for last in letters
                       for w in enumerate_words(A, n, {last}, sym_bound).words})
        walks = []
        monkeypatch.setattr(vf, "enumerate_words",
                            lambda *args: walks.append(args) or enumerate_words(*args))
        assert vf._cylinder_words.__wrapped__(A, max_len, sym_bound) == tuple(want), A
        assert len(walks) == max_len


def test_a_repeated_conformality_suite_checks_and_walks_no_word_again(pair, monkeypatch):
    import gcms.verification as vf
    counts = {"admissible": 0, "walks": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cylinders, "is_admissible", counted("admissible", cylinders.is_admissible))
    monkeypatch.setattr(vf, "enumerate_words", counted("walks", vf.enumerate_words))
    monkeypatch.setattr(ms, "shift_image", counted("images", ms.shift_image))
    counts["images"] = 0
    first = conformality_suite(pair, 1.2)
    assert 0 < counts["admissible"] <= len(cylinder_words_up_to(pair, 6, 7)) == 867
    assert counts["walks"] > 0
    assert counts["images"] == 867
    counts.update(admissible=0, walks=0, images=0)
    second = conformality_suite(pair, 1.5)
    assert counts == {"admissible": 0, "walks": 0, "images": 0}
    assert set(first) == set(second)


def test_conformality_over_no_cylinder_is_refused(renewal):
    # a check over no word would read as a pass, with residual 0
    mu = ms.sarig_measure_renewal(renewal)
    for words in ([], iter(())):
        with pytest.raises(ValueError, match="at least one cylinder word"):
            ms.verify_conformality(mu, words)


def test_conformality_over_an_empty_word_is_refused(renewal):
    # the empty word's cylinder is the whole space, which the shift does not map
    mu = ms.sarig_measure_renewal(renewal)
    for words in ([()], [(1,), ()], iter([(2, 1), ()])):
        with pytest.raises(ValueError, match="non-empty cylinder words"):
            ms.verify_conformality(mu, words)


def unkept(m):
    """A copy of ``m`` that evaluates every letter factor afresh by
    ``math.exp``, on every use, as the measures did before they kept them:
    the oracle for the factors kept per instance."""
    if isinstance(m, ms.YFamilyMeasure):
        fresh = dataclasses.replace(m, tails=dict(m.tails))
        fresh._factor = lambda s: math.exp(m.beta * m.weight.value(s))
        return fresh

    def peel(head):
        x = 1.0
        for s in head:
            x *= math.exp(m.beta * m.weight.value(s)) / m.lam
        return x

    fresh = dataclasses.replace(m)
    fresh.peel = peel
    return fresh


@pytest.mark.parametrize("build", [
    lambda: ms.log_eigenmeasure(0.5, by_kind("renewal")),
    lambda: ms.log_eigenmeasure(1.2, by_kind("renewal")),
    lambda: ms.log_eigenmeasure(beta_c_log(), by_kind("renewal")),
    lambda: ms.log_eigenmeasure(2.0, by_kind("renewal")),
    lambda: ms.y_measure(by_kind("renewal"), 1, Constant(1.0), 1.2),
    lambda: ms.y_measure(by_kind("pair_renewal"), 1, Constant(1.0), 1.2),
    lambda: ms.y_measure(by_kind("pair_renewal"), 2, Constant(1.0), 1.2),
    lambda: ms.y_measure(by_kind("prime_renewal"), 2, Constant(1.0), 1.3)],
    ids=["log-0.5", "log-1.2", "log-beta_c", "log-2.0",
         "y-renewal", "y-pair-1", "y-pair-2", "y-prime-2"])
def test_letter_factors_kept_per_instance_are_bit_identical(build):
    m = build()
    oracle = unkept(m)
    words = cylinder_words_up_to(m.matrix, 5, 6)
    # the kept factors are read back on the second pass
    for _ in range(2):
        for w in words:
            assert m.cyl_mass(w) == oracle.cyl_mass(w), w
    assert m._factors and not oracle._factors


def table_words(plan):
    """The words of a plan's table, rebuilt from its parents and last letters."""
    words = []
    for p, s in zip(plan.parents, plan.letters):
        words.append((words[p] if p >= 0 else ()) + (s,))
    return words


def convex_pair_measure():
    pair = by_kind("pair_renewal")
    return ConvexCombination([(0.25, ms.y_measure(pair, 1, Constant(1.0), 1.2)),
                              (0.75, ms.y_measure(pair, 2, Constant(1.0), 1.2))])


@pytest.mark.parametrize("build, longest_run", [
    (lambda: ms.sarig_measure_renewal(by_kind("renewal")), 39),
    (lambda: ms.pair_renewal_critical_measure(by_kind("pair_renewal")), 38),
    (lambda: ms.log_eigenmeasure(0.5, by_kind("renewal")), 39),
    (lambda: ms.log_eigenmeasure(beta_c_log(), by_kind("renewal")), 39),
    (lambda: ms.log_eigenmeasure(2.0, by_kind("renewal")), 39),
    (lambda: ms.y_measure(by_kind("renewal"), 1, Constant(1.0), 1.2), 39),
    (lambda: ms.y_measure(by_kind("pair_renewal"), 2, Constant(1.0), 1.2), 38),
    (lambda: ms.y_measure(by_kind("prime_renewal"), 3, Constant(1.0), 1.3), 5),
    (convex_pair_measure, 38)],
    ids=["sarig", "pair-critical", "log-sequence-0.5", "log-sequence-beta_c",
         "log-family-2.0", "y-renewal", "y-pair-2", "y-prime-walked", "convex-pair"])
def test_mass_tables_are_bit_identical_to_cylinder_masses(build, longest_run):
    # words of length <= 3 on letters <= 40, so forced runs reach 39 letters;
    # the log ratio tells every letter's factor apart, above beta_c on the
    # boundary family and at and below it on the sequence space, and the
    # prime y-measure reads the sums of its walk
    m = build()
    A = m.matrix
    plan = ms._conformality_rows(A, tuple(cylinder_words_up_to(A, 3, 40)))
    words = table_words(plan)
    assert tuple(words) == plan.table
    atoms = [words[b] + tuple(range(plan.letters[b] - 1, e - 1, -1))
             for b, e in zip(plan.atom_bases, plan.atom_stops)]
    assert atoms == [forced_extension(A, words[b]) for b in plan.atom_bases]
    assert max(len(a) - len(words[b]) for a, b in zip(atoms, plan.atom_bases)) == longest_run
    assert list(m._mass_table(plan)) == [m._cyl_mass(w) for w in words + atoms]


def test_conformality_detects_corruption(pair):
    mu = ms.pair_renewal_critical_measure(pair)
    mu.end_masses[2] += 1e-3
    rep = ms.verify_conformality(mu, cylinder_words_up_to(pair, 4, 5))
    assert rep.max_residual >= 1e-4


def test_conformality_reports_a_nan_mass(pair):
    # a nan mass makes the worst residual nan; max(0.0, nan) would give 0.0
    mu = ms.pair_renewal_critical_measure(pair)
    mu.end_masses[2] = math.nan
    rep = ms.verify_conformality(mu, cylinder_words_up_to(pair, 4, 5))
    assert math.isnan(rep.max_residual)


def test_convex_combination(pair):
    m1 = ms.y_measure(pair, 1, Constant(1.0), 1.2)
    m2 = ms.y_measure(pair, 2, Constant(1.0), 1.2)
    comb = ConvexCombination([(0.25, m1), (0.75, m2)])
    assert comb.total_mass() == pytest.approx(1.0, abs=1e-12)
    rep = ms.verify_conformality(comb, cylinder_words_up_to(pair, 5, 6))
    assert rep.max_residual <= 1e-10
    with pytest.raises(ms.MeasureError):
        ConvexCombination([(0.4, m1), (0.4, m2)])
    with pytest.raises(ms.MeasureError):
        ConvexCombination([(-0.5, m1), (1.5, m2)])


# -- weak-star sweeps ----------------------------------------------------------------------

def worst_decreases(rows):
    """Whether the worst |value - target| of each beta of a sweep is at most
    that of the beta before it, up to 1e-15."""
    worst = {}
    for r in rows:
        worst[r.beta] = max(worst.get(r.beta, 0.0), r.diff)
    w = list(worst.values())
    return all(b <= a + 1e-15 for a, b in zip(w, w[1:]))


def test_weak_star_renewal_constant(renewal):
    basis_words = [w for n in range(1, 5)
                   for w in enumerate_words(renewal, n, {1}, 6).words]
    basis = [(str(w), decompose(Subbasis(renewal, w))) for w in basis_words]
    target = ms.sarig_measure_renewal(renewal)
    grid = [LOG2 + off for off in (0.5, 0.1, 0.01, 1e-3, 1e-4)]
    rows = ms.weak_star_sweep(
        lambda b: ms.y_measure(renewal, 1, Constant(1.0), b), target, basis, grid)
    assert worst_decreases(rows)
    last = [r for r in rows if r.beta == grid[-1]]
    assert max(r.diff for r in last) <= 1e-3


def test_weak_star_singletons_vanish(renewal):
    xi0 = empty_stem_config(renewal, 1)
    masses = [ms.y_measure(renewal, 1, Constant(1.0), LOG2 + off).point_mass(xi0)
              for off in (0.5, 0.1, 0.01, 1e-3)]
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert masses[-1] <= 2e-3


def test_weak_star_log_potential(renewal):
    bc = beta_c_log()
    target = ms.log_eigenmeasure(bc, renewal)
    words = [w for n in range(1, 4) for w in enumerate_words(renewal, n, {1}, 5).words]
    basis = [(str(w), decompose(Subbasis(renewal, w))) for w in words]
    rows = ms.weak_star_sweep(
        lambda b: ms.log_eigenmeasure(b, renewal), target, basis,
        [bc + off for off in (0.3, 0.1, 0.01, 1e-3)])
    assert worst_decreases(rows)


def test_complementarity_prime_renewal(prime, pair, renewal):
    # mu(E) + mu(complement of E) = mu(X) exercises multi-row sieves and the
    # inclusion-exclusion over overlapping prime rows; on the sequence
    # measures it reaches every sieve shape the row sums give, the
    # complement of the irregular row 2 of pair renewal included
    from gcms.verification import subbasis_elements
    cases = [(ms.y_measure(prime, 2, Constant(1.0), 1.3), (2, 4, 5)),
             (ms.pair_renewal_critical_measure(pair), (2, 4, 4)),
             (ms.y_measure(pair, 1, Constant(1.0), 1.2), (2, 4, 4)),
             (ms.y_measure(pair, 2, Constant(1.0), 1.2), (2, 4, 4)),
             (ms.sarig_measure_renewal(renewal), (2, 4, 4)),
             (ms.log_eigenmeasure(1.2, renewal), (2, 4, 4))]
    for mu, sizes in cases:
        worst = 0.0
        for e in subbasis_elements(mu.matrix, *sizes):
            v = ms.measure_setexpr(mu, decompose(e))
            w = ms.measure_setexpr(mu, decompose(e.complement()))
            worst = max(worst, abs(v + w - mu.total_mass()))
        assert worst <= 1e-12, mu.report()


def test_weak_star_pair_renewal_extremals(pair):
    # both extremal boundary measures approach the critical sequence measure
    target = ms.pair_renewal_critical_measure(pair)
    words = [w for n in range(1, 4) for w in enumerate_words(pair, n, {1, 2}, 5).words]
    gaps = []
    for off in (0.1, 0.01, 1e-3, 1e-4):
        worst = 0.0
        for fam in (1, 2):
            m = ms.y_measure(pair, fam, Constant(1.0), PAIR_BC + off)
            worst = max(worst, max(abs(m.cyl_mass(w) - target.cyl_mass(w))
                                   for w in words))
        gaps.append(worst)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 2e-4


# -- the printed-constant comparison (reported, not asserted) -------------------------------

def test_printed_constants_report(pair, capsys):
    b = 1.2
    x = math.exp(-b)
    f1 = [1, 2]
    while len(f1) < 200:
        f1.append(2 * f1[-1] + f1[-2])
    lfrak = math.fsum(4 * f1[n] * x ** n for n in range(200))
    h = x * (1 - x * x) / (2 * math.sinh(b) - 1)
    printed = {1: (1 + 4 * math.exp(b) / lfrak) * h,
               2: (1 + 4 * math.exp(b) / (4 + x * lfrak)) * h}
    for fam in (1, 2):
        mu = ms.y_measure(pair, fam, Constant(1.0), b)
        generic = mu.cyl_mass((2,))
        diff = abs(generic - printed[fam])
        print(f"family {fam}: generic mu(C_2) = {generic:.12f}, "
              f"printed expression = {printed[fam]:.12f}, |diff| = {diff:.3e}")
        if fam == 1:
            # family 1 agrees to machine precision; family 2's printed constant
            # does not match the generic normalizer and is only reported
            assert diff <= 1e-8
    mu1 = ms.y_measure(pair, 1, Constant(1.0), b)
    assert mu1.point_mass(empty_stem_config(pair, 1)) == pytest.approx(4.0 / lfrak, rel=1e-10)


def test_measure_report_json(renewal):
    mu = ms.y_measure(renewal, 1, Constant(1.0), 1.1)
    import json
    d = json.loads(ms.measure_report_json(mu, 1e-15))
    assert d["kind"] == "y_family" and d["total_mass"] == 1.0
    assert d["max_DU_residual"] == 1e-15


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal"])
def test_phase_row_reports_the_critical_measure_within_tol(kind):
    A = by_kind(kind)
    bc, F = A.spec.critical_beta, Constant(1.0)
    assert ms.phase_row(A, F, bc, 1e-9)[1:] == ("1 measure", bc)
    assert ms.phase_row(A, F, bc + 1e-6, 1e-9)[1] == "absent"
    assert ms.phase_row(A, F, bc + 1e-6, 1e-5)[1] == "1 measure"


def test_phase_row_of_the_log_ratio_potential_is_its_eigenmeasures_support(renewal):
    for beta, support in ((1.2, "sequence space"), (beta_c_log(), "sequence space"),
                          (2.2, "boundary family")):
        assert ms.phase_row(renewal, LogRatio(), beta, 1e-9) == (
            support, "1 eigenmeasure for every beta", beta_c_log())


@pytest.mark.parametrize("kind, potential", [("renewal", Constant(1.0)),
                                             ("pair_renewal", Constant(1.0)),
                                             ("renewal", LOG_POTENTIAL)])
def test_convergence_net_approaches_its_target(kind, potential):
    # the largest gap on the cylinders of length <= 2 shrinks like the offset
    A = by_kind(kind)
    beta_c, net, target = ms.convergence(A, potential)
    words = cylinder_words_up_to(A, 2, 4)
    for offset in (1e-1, 1e-3, 1e-5):
        m = net(beta_c + offset)
        gap = max(abs(m.cyl_mass(w) - target.cyl_mass(w)) for w in words)
        assert 0.1 * offset < gap < offset, (offset, gap)


@pytest.mark.parametrize("potential", [Constant(2.0), Constant(-1.0), Constant(0.0),
                                       GDiff(math.sqrt, "sqrt")], ids=repr)
def test_tables_refuse_a_potential_they_do_not_draw(renewal, potential):
    # the tables draw the unit constant and the log ratio; any other reading
    # would contradict y_measure (Constant(2.0) has y-measures at 0.5)
    with pytest.raises(ms.MeasureError, match="no phase picture for potential"):
        ms.phase_row(renewal, potential, 0.5, 1e-9)
    with pytest.raises(ms.MeasureError, match="no phase picture for potential"):
        ms.convergence(renewal, potential)
