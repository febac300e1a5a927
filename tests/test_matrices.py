import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import residue_kinds, residue_matrix
from gcms import matrices
from gcms import symbolsets as sset
from gcms.matrices import explicit, full_shift
from gcms.symbolsets import ALL, FiniteSet, Sieve
from gcms.verification import counting_suite


def _to_json(A):
    """The JSON specification naming ``A``, in the form ``--matrix-file`` reads."""
    d = {"kind": A.kind}
    if A.prime_bound is not None:
        d["prime_bound"] = A.prime_bound
    if A.size is not None:
        d["size"] = A.size
    if A.kind == "explicit":
        d["rows"] = [[A.entry(i, j) for j in range(1, A.size + 1)] for i in range(1, A.size + 1)]
    return json.dumps(d, sort_keys=True)


def test_renewal_entries(renewal):
    assert renewal.entry(1, 7) == 1
    assert renewal.entry(3, 5) == 0
    assert renewal.entry(4, 3) == 1
    assert renewal.entry(2, 1) == 1
    assert renewal.entry(2, 3) == 0


def test_pair_renewal_entries(pair):
    # full first row, descent, and the even columns of row 2
    assert all(pair.entry(1, j) == 1 for j in range(1, 20))
    assert pair.entry(2, 6) == 1 and pair.entry(2, 7) == 0
    assert pair.entry(2, 1) == 1          # descent A(2,1)
    assert pair.entry(5, 4) == 1 and pair.entry(5, 3) == 0


def test_prime_renewal_entries(prime):
    assert prime.entry(3, 9) == 1         # 9 = 3**2
    assert prime.entry(2, 8) == 1 and prime.entry(2, 6) == 0
    assert prime.entry(4, 3) == 1         # descent
    assert prime.entry(4, 16) == 0        # 4 is not prime
    assert prime.entry(5, 125) == 1


def test_alternating_entries(alternating):
    assert alternating.entry(1, 2) == 1 and alternating.entry(1, 3) == 0
    assert alternating.entry(2, 1) == 1 and alternating.entry(2, 4) == 0
    assert alternating.entry(5, 4) == 1


def test_emitters(renewal, pair):
    assert renewal.row(1) == ALL
    assert renewal.row(4) == FiniteSet(frozenset({3}))
    assert pair.row(2) == Sieve(2, frozenset(), frozenset())
    assert {j for j in range(1, 8) if pair.entry(2, j)} == {1, 2, 4, 6}


def test_infinite_emitters(renewal, pair, prime, alternating):
    def infinite(A, i):
        return not isinstance(A.row(i), FiniteSet)

    assert infinite(renewal, 1)
    assert not infinite(renewal, 2)
    assert infinite(pair, 2)
    assert infinite(prime, 5)
    assert not infinite(prime, 4)
    assert infinite(alternating, 1) and infinite(alternating, 2)
    assert not infinite(alternating, 3)


def test_predecessors_match_entries(renewal, pair, prime, alternating):
    for A in (renewal, pair, prime, alternating):
        for j in range(1, 30):
            preds = set(A.predecessors(j))
            for i in range(1, 40):
                assert (i in preds) == (A.entry(i, j) == 1)


@pytest.mark.parametrize("kind", sorted(matrices.KINDS))
def test_max_predecessors_is_the_longest_column(kind):
    # the y-measure normalizer's a-posteriori tail bound rests on it
    A = matrices.by_kind(kind)
    assert A.spec.max_predecessors == max(len(A.predecessors(j)) for j in range(1, 10_001))


def _pair_family1_count(n):
    # the integer iteration of the 2x2 branching matrix; equals
    # ((1-sqrt2)^n + (1-sqrt2)^(n+1) + (1+sqrt2)^n + (1+sqrt2)^(n+1)) / 4
    if n == 0:
        return 1
    r, s = 1, 1
    for _ in range(n - 1):
        r, s = r + 2 * s, r + s
    return r + s


def _alternating_count(family_id, n):
    # letter 1 has the one predecessor 2, an even s the odd ones 1 and s + 1,
    # an odd s >= 3 the even ones 2 and s + 1, so the layers alternate in
    # parity: c(2k) = 3^(k-1), c(2k+1) = 2 * 3^(k-1); family 2's seed 2 is
    # layer 2 of family 1, so c_2(n) = c_1(n + 1)
    n += family_id - 1
    if n <= 1:
        return 1
    k, odd = divmod(n, 2)
    return (2 if odd else 1) * 3 ** (k - 1)


# the nine facts of each residue kind as they were once written by hand in
# matrices.KINDS; _residue_kind derives them from the kind's residue rule
_column = matrices._column
HAND_WRITTEN = {
    "renewal": dict(
        irregular=lambda i: False,
        entry=lambda i, j: 1 if (i == 1 or i == j + 1) else 0,
        predecessors=lambda j: (1, j + 1),
        irregular_meet=None,
        catalog=lambda prime_bound: (_column(1, {1}),),
        cover=(1,),
        max_predecessors=2,
        growth=(2.0, 2.0),
        counts=lambda family_id, n: 1 if n == 0 else 2 ** (n - 1)),
    "pair_renewal": dict(
        irregular=lambda i: i == 2,
        entry=lambda i, j: 1 if (i == 1 or i == j + 1 or (i == 2 and j % 2 == 0)) else 0,
        predecessors=lambda j: (1, 2, j + 1) if j % 2 == 0 else (1, j + 1),
        irregular_meet=None,
        catalog=lambda prime_bound: (_column(1, {1, 2}), _column(2, {1})),
        cover=(1,),
        max_predecessors=3,
        growth=(1.0 + math.sqrt(2.0), 1.0 + math.sqrt(2.0)),
        counts=lambda family_id, n: (_pair_family1_count(n) if family_id == 1
                                     else 1 if n == 0 else _pair_family1_count(n - 1))),
    "alternating_renewal": dict(
        irregular=lambda i: i in (1, 2),
        entry=lambda i, j: 1 if (i == j + 1 or i == 1 + j % 2) else 0,
        predecessors=lambda j: (2,) if j == 1 else (1 + j % 2, j + 1),
        irregular_meet=lambda i, j: frozenset(),
        catalog=lambda prime_bound: (_column(1, {1}), _column(2, {2})),
        cover=(1, 2),
        max_predecessors=2,
        growth=(math.sqrt(3.0), math.sqrt(3.0)),
        counts=_alternating_count),
}


@pytest.mark.parametrize("kind", sorted(HAND_WRITTEN))
def test_residue_kinds_derive_the_hand_written_facts(kind):
    spec, hand = matrices.KINDS[kind], HAND_WRITTEN[kind]
    letters = range(1, 60)
    assert all(_is_irregular(spec.row(i)) == hand["irregular"](i) for i in letters)
    assert ([[spec.entry(i, j) for j in letters] for i in letters]
            == [[hand["entry"](i, j) for j in letters] for i in letters])
    assert all(spec.predecessors(j) == hand["predecessors"](j) for j in range(1, 10_001))
    assert spec.catalog(7) == hand["catalog"](7)
    assert (spec.cover, spec.max_predecessors) == (hand["cover"], hand["max_predecessors"])
    if hand["irregular_meet"] is None:
        assert spec.irregular_meet is None
    else:
        rows = [i for i in letters if hand["irregular"](i)]
        assert all(spec.irregular_meet(i, j) == hand["irregular_meet"](i, j)
                   for i in rows for j in rows if i != j)


@pytest.mark.parametrize("kind", sorted(HAND_WRITTEN))
def test_residue_kinds_derive_the_hand_written_counts_and_growth(kind):
    # the generation counts and growth doubles once stated by hand, each with
    # its own proof, against the path counts and Perron root of the backward
    # graph; the growth doubles are the floors of 2, 1 + sqrt 2 and sqrt 3
    spec, hand = matrices.KINDS[kind], HAND_WRITTEN[kind]
    for col in spec.catalog(7):
        assert [spec.counts(col.id, n) for n in range(41)] \
            == [hand["counts"](col.id, n) for n in range(41)], col.id
    assert spec.growth == hand["growth"]


def _backward_graph(m, irregular):
    """The matrix of the backward graph of a residue kind, built from its
    predecessors: letters 1..top, then letters top + 1..top + m, each
    standing for its class mod m, so a predecessor above top goes to the
    state of its class."""
    spec = matrices._residue_kind(m, irregular, stem_sums=None)
    top = max(irregular, default=1)
    size = top + m

    def state(j):
        return j - 1 if j <= top else next(s for s in range(top, size) if (s + 1 - j) % m == 0)
    rows = [[0] * size for _ in range(size)]
    for j in range(1, size + 1):
        for p in spec.predecessors(j):
            rows[j - 1][state(p)] += 1
    return spec, rows


def _perron_root_50_digits(rows):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        values = mpmath.eig(mpmath.matrix(rows), left=False, right=False)
        return max(values, key=lambda v: (mpmath.re(v), -abs(mpmath.im(v))))


@given(residue_kinds())
@settings(max_examples=8, deadline=None)
def test_drawn_growth_is_the_floor_of_the_perron_root(description):
    # rho-hat <= rho < the next double, rho from mpmath at 50 digits, which
    # finds a root that is a double (2 on some drawn kinds) within 1e-40
    mpmath = pytest.importorskip("mpmath")
    spec, rows = _backward_graph(*description)
    rho = _perron_root_50_digits(rows)
    with mpmath.workdps(50):
        eps = mpmath.mpf(10) ** -40
        assert abs(mpmath.im(rho)) < eps
        low, high = spec.growth
        assert low == high
        assert low - eps <= mpmath.re(rho) < math.nextafter(low, math.inf) - eps


def test_roadmap_kind_grows_by_one_plus_root_three():
    # m = 3, R_2 = {0}, R_4 = {1}: the backward graph has 7 states and
    # Perron root 1 + sqrt 3, so P(0) = log(1 + sqrt 3)
    mpmath = pytest.importorskip("mpmath")
    spec = matrices._residue_kind(3, {2: {0}, 4: {1}}, stem_sums=None)
    low = spec.growth[0]
    with mpmath.workdps(50):
        assert low <= 1 + mpmath.sqrt(3) < math.nextafter(low, math.inf)
    assert spec.growth == (1.0 + math.sqrt(3.0),) * 2


@given(residue_kinds())
@settings(max_examples=10, deadline=None)
def test_drawn_counting_suites_match(description):
    # each family's counts against the letter-by-letter backward walk of the
    # counting suite; generation 0 is the empty stem
    with residue_matrix(*description) as A:
        for col in A.accumulation_catalog:
            rows = counting_suite(A, col.id, 12)
            assert [r.n for r in rows] == list(range(1, 13))
            assert all(r.match for r in rows), (col.id, rows)
            assert A.spec.counts(col.id, 0) == 1
        with pytest.raises(ValueError, match="no family"):
            A.spec.counts(len(A.accumulation_catalog) + 1, 3)


@given(residue_kinds())
@settings(max_examples=10, deadline=None)
def test_every_kind_with_boundary_families_has_a_growth_rate(description):
    # growth_band reads the rate without a refusal: a kind with families has
    # one, and a stored matrix has neither
    with residue_matrix(*description):
        kinds = [matrices.by_kind(k) for k in matrices.KINDS]
        for B in kinds + [explicit([[1, 1], [1, 0]]), full_shift(3)]:
            assert not B.accumulation_catalog or B.spec.growth is not None, B.kind
            assert B.size is None or (not B.accumulation_catalog and B.spec.growth is None)


def _assert_descent_meets_are_row_intersections(A):
    # every pair of distinct irregular rows <= 12, against the rows' letters
    # <= 60: an infinite intersection would show there as many letters
    letters = range(1, 61)
    rows = {i: {j for j in letters if A.entry(i, j)} for i in range(1, 13)
            if _is_irregular(A.row(i))}
    for i in rows:
        for j in rows:
            if i != j:
                assert A.irregular_rows_intersection(i, j) == rows[i] & rows[j], (i, j)


def test_descent_meets_are_row_intersections(prime, alternating):
    for A in (prime, alternating):
        _assert_descent_meets_are_row_intersections(A)


@given(residue_kinds())
@settings(max_examples=30, deadline=None)
def test_drawn_residue_kinds_have_their_rule_facts(description):
    # the meets of the irregular rows, which keep the cylinder algebra
    # closed, and d, the longest column, on which the normalizer's tail
    # bound rests
    with residue_matrix(*description) as A:
        if len(description[1]) > 1:
            _assert_descent_meets_are_row_intersections(A)
        assert A.spec.max_predecessors == max(len(A.predecessors(j)) for j in range(1, 1_001))


def test_residue_kinds_refuse_overlapping_residues():
    # two irregular rows sharing a class meet in an infinite set, which the
    # cylinder algebra cannot keep finite
    with pytest.raises(ValueError, match="overlap"):
        matrices._residue_kind(3, {2: {0, 1}, 4: {1}}, stem_sums=None)


def test_residue_kinds_refuse_an_irregular_row_1_without_a_cover():
    # a class that no row holds would have the empty set as its column
    # limit, and the irregular rows would not cover the alphabet
    with pytest.raises(ValueError, match="without a cover"):
        matrices._residue_kind(3, {1: {0}, 2: {1}}, stem_sums=None)


@pytest.mark.parametrize("modulus, irregular, message", [
    (2, {2: set()}, "residue set of row 2 is empty"),
    (2, {2: {2}}, r"row 2 has residues \[2\] outside 0\.\.1"),
    (2, {2: {0, 1}}, "row 2 holds every class mod 2, so it is cofinite"),
    (3, {0: {1}}, "row 0 is no letter"),
    (0, {}, "modulus must be >= 1, not 0"),
], ids=["empty-residue-set", "residue-out-of-range", "full-residue-set", "row-0", "modulus-0"])
def test_residue_kinds_refuse_a_description_outside_their_rule(modulus, irregular, message):
    # each of these was once built: an empty or out-of-range R_2 left row 2
    # finite, a full one made it cofinite, a row 0 made 0 a predecessor
    # (predecessors(4) listed it), and modulus 0 failed inside max()
    with pytest.raises(ValueError, match=message) as info:
        matrices._residue_kind(modulus, irregular, stem_sums=None)
    assert "\n" not in str(info.value)


def test_accumulation_catalogs(renewal, pair, prime, alternating):
    def letter_sets(A):
        return [set(c.allowed_terminal_symbols) for c in A.accumulation_catalog]

    assert letter_sets(renewal) == [{1}]
    assert letter_sets(pair) == [{1, 2}, {1}]
    assert letter_sets(prime) == [{1}, {1, 2}, {1, 3}, {1, 5}, {1, 7}]
    assert letter_sets(alternating) == [{1}, {2}]
    # catalogs are pairwise distinct columns
    for A in (renewal, pair, prime, alternating):
        supports = [c.allowed_terminal_symbols for c in A.accumulation_catalog]
        assert len(supports) == len(set(supports))


def test_entry_is_pure(renewal):
    assert all(renewal.entry(1, j) == renewal.entry(1, j) for j in range(1, 50))


def test_explicit_round_trip():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 0]]
    A = explicit(rows)
    text = _to_json(A)
    B = matrices.from_dict(json.loads(text))
    assert A == B
    assert _to_json(B) == text      # bit-exact round trip
    assert A.entry(1, 2) == 1 and A.entry(3, 2) == 0
    assert [A.predecessors(j) for j in (1, 2, 3)] == [(1, 3), (1, 2), (2,)]
    # symbols above the size are domain errors, as in every query
    for query in (lambda: A.entry(4, 1), lambda: A.entry(1, 4), lambda: A.predecessors(4),
                  lambda: A.row(4)):
        with pytest.raises(ValueError, match="symbol 4 out of range for size 3"):
            query()
    for query in (lambda: A.entry(0, 1), lambda: A.predecessors(0), lambda: A.row(0)):
        with pytest.raises(ValueError, match="symbols are positive integers"):
            query()


def test_explicit_rejects_zero_rows_and_columns():
    with pytest.raises(ValueError):
        explicit([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        explicit([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        explicit([])


def test_full_shift():
    A = full_shift(3)
    assert all(A.entry(i, j) == 1 for i in range(1, 4) for j in range(1, 4))
    assert A.accumulation_catalog == ()


def test_builtin_json_round_trip(renewal, pair):
    for d in ({"kind": "renewal"}, {"kind": "pair_renewal"},
              {"kind": "prime_renewal", "prime_bound": 11},
              {"kind": "alternating_renewal"}, {"kind": "full_shift", "size": 4}):
        A = matrices.from_dict(d)
        assert matrices.from_dict(json.loads(_to_json(A))) == A


# JSON values of every shape; integers stay small so that a valid full_shift
# size or prime_bound never allocates much
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=10)
_SPECS = _JSON | st.fixed_dictionaries(
    {"kind": st.sampled_from([*matrices.KINDS, "full_shift", "explicit", "other"]) | _JSON},
    optional={"size": _JSON, "prime_bound": _JSON,
              "rows": _JSON | st.lists(st.lists(st.integers(-1, 2), max_size=3), max_size=3)})


@settings(max_examples=300, deadline=None)
@given(_SPECS)
def test_from_dict_gives_a_matrix_or_value_error(spec):
    try:
        A = matrices.from_dict(spec)
    except ValueError:
        return
    assert isinstance(A, matrices.TransitionMatrix)


def test_prime_bound_controls_catalog():
    # the bound reaches the matrix through from_dict, as a --matrix-file does
    A = matrices.from_dict({"kind": "prime_renewal", "prime_bound": 11})
    assert len(A.accumulation_catalog) == 6  # {1} + primes 2,3,5,7,11


def test_matrix_identity_is_kind_rows_and_bound():
    # matrices are interned: equal builds through every constructor are one
    # object, and a kind, a row or a bound still tells matrices apart
    TM = matrices.TransitionMatrix
    same = [(matrices.from_dict({"kind": "prime_renewal"}), matrices.by_kind("prime_renewal"),
             TM("prime_renewal"), TM("prime_renewal", prime_bound=7)),
            (explicit([[1, 1], [1, 0]]), explicit(((1, 1), (1, 0))),
             matrices.from_dict({"kind": "explicit", "rows": [[1, 1], [1, 0]]}),
             TM("explicit", rows=((1, 1), (1, 0)))),
            (full_shift(2), matrices.from_dict({"kind": "full_shift", "size": 2}),
             TM("full_shift", rows=((1, 1), (1, 1)))),
            # the bound counts only on a truncated kind
            (matrices.by_kind("renewal"), TM("renewal", prime_bound=11),
             matrices.from_dict({"kind": "renewal", "prime_bound": 3}))]
    for A, *others in same:
        assert all(B is A for B in others)
    apart = [matrices.from_dict({"kind": "prime_renewal", "prime_bound": 11}),
             matrices.by_kind("prime_renewal"), matrices.by_kind("renewal"),
             explicit([[1, 1], [1, 1]]), explicit([[1, 1], [1, 0]]), full_shift(2)]
    assert all(A is not B and A != B for i, A in enumerate(apart) for B in apart[i + 1:])
    assert matrices.by_kind("renewal") != "renewal"


def test_copies_are_the_interned_matrix():
    for A in (matrices.by_kind("renewal"), matrices.from_dict({"kind": "prime_renewal",
                                                               "prime_bound": 11}),
              explicit([[1, 1], [1, 0]]), full_shift(3)):
        assert copy.copy(A) is A and copy.deepcopy(A) is A
        assert copy.deepcopy({"m": [A]})["m"][0] is A
    # a refused matrix leaves nothing behind, so a second build is refused too
    for _ in range(2):
        with pytest.raises(ValueError, match="column 2 is all zero"):
            explicit([[1, 0], [1, 0]])


# stored matrices get a kind built from their rows; the table holds for them too
STORED = {"full_shift": lambda: full_shift(3),
          "explicit": lambda: explicit([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
          "two_cycle": lambda: explicit([[0, 1], [1, 0]])}


def _is_irregular(row) -> bool:
    return isinstance(row, Sieve) and row.one_row is not None


@pytest.mark.parametrize("kind", [*sorted(matrices.KINDS), *STORED])
def test_kind_table_consistency(kind):
    A = STORED[kind]() if kind in STORED else matrices.by_kind(kind)
    window = set(range(1, (A.size or 199) + 1))
    rows = {i: {j for j in window if A.entry(i, j)} for i in range(1, min(13, len(window)) + 1)}
    for i, row in rows.items():
        r = A.row(i)
        assert {k for k in window if sset.contains(A, r, k)} == row
        assert {k for k in window if sset.contains(A, sset.row_zero(A, i), k)} == window - row
        if isinstance(r, FiniteSet):
            assert row == r.symbols
        elif not _is_irregular(r):
            assert r.zero_rows == frozenset()
            assert row == window - r.excluded
        else:
            assert r == Sieve(i, frozenset(), frozenset())
            assert row - {i - 1} and window - row
    irregular = [i for i in rows if _is_irregular(A.row(i))]
    for i in irregular:
        for j in irregular:
            if i != j:
                assert A.irregular_rows_intersection(i, j) == rows[i] & rows[j]
    if len(irregular) < 2:
        with pytest.raises(ValueError):
            A.irregular_rows_intersection(1, 2)
    # predecessors come back strictly ascending; the backward word walk relies on it
    for j in range(1, min(30, len(window) + 1)):
        preds = A.predecessors(j)
        assert isinstance(preds, tuple) and list(preds) == sorted(set(preds))
    if A.size is not None:
        # a stored matrix has no boundary, no cover and no certified rates
        assert A.spec.cover == A.accumulation_catalog == ()
        assert A.spec.growth is None and A.spec.counts is None
        assert A.spec.max_predecessors == max(len(A.predecessors(j)) for j in window)
        return
    # the cover rows tile the alphabet
    cover = [rows[i] for i in A.spec.cover]
    assert set().union(*cover) == window
    assert sum(len(r) for r in cover) == len(window)
