import pytest

from gcms import symbolsets as sset
from gcms.matrices import by_kind, explicit


def _atoms(A):
    out = [sset.ALL, sset.all_except({1}), sset.all_except({2, 4}), sset.FiniteSet(frozenset({1, 3})),
           sset.FiniteSet(frozenset())]
    for j in range(1, 7):
        out.append(A.row(j))
        out.append(sset.row_zero(A, j))
    return out


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal", "prime_renewal",
                                  "alternating_renewal"])
def test_pairwise_intersections_pointwise(kind):
    A = by_kind(kind)
    atoms = _atoms(A)
    for s in atoms:
        for t in atoms:
            st = sset.intersect(A, s, t)
            for k in range(1, 41):
                want = sset.contains(A, s, k) and sset.contains(A, t, k)
                assert sset.contains(A, st, k) == want, (s, t, k)


@pytest.mark.parametrize("kind", ["pair_renewal", "prime_renewal", "alternating_renewal"])
def test_triple_intersections_pointwise(kind):
    # three-way products exercise multi-row sieves and their finite overlaps
    A = by_kind(kind)
    atoms = _atoms(A)
    import itertools
    for s, t, r in itertools.islice(itertools.product(atoms, repeat=3), 0, None, 7):
        str_ = sset.intersect(A, sset.intersect(A, s, t), r)
        for k in range(1, 31):
            want = (sset.contains(A, s, k) and sset.contains(A, t, k)
                    and sset.contains(A, r, k))
            assert sset.contains(A, str_, k) == want, (s, t, r, k)


def test_row_sets_match_entries():
    for kind in ("renewal", "pair_renewal", "prime_renewal", "alternating_renewal"):
        A = by_kind(kind)
        for j in range(1, 10):
            one, zero = A.row(j), sset.row_zero(A, j)
            for k in range(1, 40):
                assert sset.contains(A, one, k) == (A.entry(j, k) == 1)
                assert sset.contains(A, zero, k) == (A.entry(j, k) == 0)


def test_finite_alphabet_respected():
    A = explicit([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert not sset.contains(A, sset.ALL, 4)
    assert [k for k in range(1, 11) if sset.contains(A, sset.all_except({2}), k)] == [1, 3]
    assert sset.is_definitely_empty(A, sset.FiniteSet(frozenset()))
    assert sset.is_definitely_empty(A, sset.all_except({1, 2, 3}))


def test_alternating_parity_cover():
    A = by_kind("alternating_renewal")
    # the two irregular rows tile the alphabet: both zero-rows empty the sieve
    s = sset.intersect(A, sset.row_zero(A, 1), sset.row_zero(A, 2))
    assert sset.is_definitely_empty(A, s)


def test_describe_forms():
    A = by_kind("pair_renewal")
    assert sset.describe(sset.FiniteSet(frozenset({2, 1}))) == "Exactly([1, 2])"
    assert sset.describe(sset.all_except({3})) == "AllExcept([3])"
    assert "A(2,k)=1" in sset.describe(A.row(2))
    assert "A(2,k)=0" in sset.describe(sset.row_zero(A, 2))
