import math
from contextlib import contextmanager

import pytest
from hypothesis import assume, strategies as st

from gcms import cylinders, matrices, thermo
from gcms import measures as ms
from gcms import verification as vf


@pytest.fixture(autouse=True)
def fresh_shift_images():
    """Each test builds its own shift images, conformality rows and cylinder
    word lists: the memos are module-level state, and a test that patches
    the cylinder algebra or the word enumeration must not read what an
    earlier test built."""
    cylinders.shift_image.cache_clear()
    ms._conformality_rows.cache_clear()
    vf._cylinder_words.cache_clear()


@pytest.fixture(scope="session")
def renewal():
    return matrices.by_kind("renewal")


@pytest.fixture(scope="session")
def pair():
    return matrices.by_kind("pair_renewal")


@pytest.fixture(scope="session")
def prime():
    return matrices.by_kind("prime_renewal")


@pytest.fixture(scope="session")
def alternating():
    return matrices.by_kind("alternating_renewal")


@pytest.fixture(scope="session")
def oracle_classes():
    """The cylinder oracle's class pairs, enumerated once per session.

    ``oracle_classes(A, word_len, sym_bound, inv_bound)`` (the oracle's
    default bounds unless given) returns the distinct normal forms of
    ``subbasis_elements``, in the order the oracle numbers them, and the
    ordered pairs of their indices that ``cylinder_oracle`` meets.  The
    normal forms are shared by every test of the session, and with them what
    each remembers of ``member`` (the points decided and held, as masks, by
    ``SetExpr.holding``): a test that patches the membership rule builds its
    own normal forms.
    """
    from itertools import combinations_with_replacement
    from gcms.cylinders import decompose
    from gcms.verification import subbasis_elements
    cache = {}

    def get(A, word_len=3, sym_bound=4, inv_bound=4):
        key = (A, word_len, sym_bound, inv_bound)
        if key not in cache:
            ids = {}
            cls = [ids.setdefault(decompose(e), len(ids))
                   for e in subbasis_elements(A, word_len, sym_bound, inv_bound)]
            pairs = dict.fromkeys((cls[i], cls[j]) for i, j in
                                  combinations_with_replacement(range(len(cls)), 2))
            cache[key] = list(ids), list(pairs)
        return cache[key]
    return get


@st.composite
def _drawn_residue_kinds(draw):
    m = draw(st.integers(2, 5))
    rows = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3, unique=True))
    cover = draw(st.booleans())
    owners = draw(st.lists(st.sampled_from([*rows, 1] if cover else [*rows, None]),
                           min_size=m, max_size=m))
    irregular = {i: frozenset(c for c, o in enumerate(owners) if o == i)
                 for i in sorted(set(owners) - {None})}
    # a row holding every class would be cofinite, not irregular
    assume(all(len(r) < m for r in irregular.values()))
    return m, irregular


def residue_kinds():
    """The description (m, {row: residue set}) of a drawn residue kind
    (``matrices._residue_kind``): a modulus 2 <= m <= 5 (m = 1 admits
    renewal alone) and up to three irregular rows among 2-7, each holding
    a non-empty proper subset of Z/m and no two the same residue; with row
    1 irregular too, their residues cover Z/m.  Or one of the cyclic kinds,
    rows 1..m with R_i = {i - 1}."""
    return _drawn_residue_kinds() | st.integers(2, 5).map(
        lambda m: (m, {i: frozenset({i - 1}) for i in range(1, m + 1)}))


@contextmanager
def residue_matrix(m, irregular):
    """The matrix of a residue kind, registered in ``matrices.KINDS`` under
    its canonical description while the block runs.  Its counts and growth
    rate come from its backward graph, as on the named residue kinds; it
    has no closed-form stem sums, so its normalizer walks the generation
    layers.  The entry and every matrix built from it leave with the
    block, as the CLI offers every name in ``KINDS`` as a ``--kind``."""
    name = f"residue m={m} " + " ".join(f"R{i}={sorted(r)}" for i, r in irregular.items())
    matrices.KINDS[name] = matrices._residue_kind(m, irregular, stem_sums=None)
    try:
        yield matrices.by_kind(name)
    finally:
        del matrices.KINDS[name]
        for key in [k for k in matrices._matrices if k[0] == name]:
            del matrices._matrices[key]


def check_renewal_equation(A, F, beta, base, n_max):
    """Z_n = sum over k = 1..n of Z*_k Z_(n-k), with Z_0 = 1, for n <= n_max
    (Vere-Jones 1962): a cycle through ``base`` splits at its first return.
    The counts of words, ``n_terms``, obey it exactly, and the values within
    rtol 1e-12.  The rule shares no code with the walk's first-return filter;
    it reads the two series of ``thermo.z_series``."""
    zs = [thermo.ZValue(1.0, 1, True, 0.0), *thermo.z_series(A, F, beta, base, n_max, False)]
    stars = [None, *thermo.z_series(A, F, beta, base, n_max, True)]
    for n in range(1, n_max + 1):
        parts = [(stars[k], zs[n - k]) for k in range(1, n + 1)]
        assert zs[n].n_terms == sum(s.n_terms * z.n_terms for s, z in parts), (A, base, n)
        want = math.fsum(s.value * z.value for s, z in parts)
        assert zs[n].value == pytest.approx(want, rel=1e-12, abs=0), (A, F, beta, base, n)
