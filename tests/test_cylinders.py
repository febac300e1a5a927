import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import residue_kinds, residue_matrix
from gcms import symbolsets as sset
from gcms.configs import GroupWord, UnboundedConfig, bounded, empty_stem_config
from gcms.cylinders import (CylFamily, SetExpr, Subbasis, decompose, intersect_many,
                            member, parse_elem, parse_expression, part_contains, raw_member)
from gcms.verification import (_meet_fault, build_universe, cylinder_oracle, cylinder_words_up_to,
                               raw_rows, setexpr_count_vec, subbasis_elements)
from gcms.words import is_admissible


def _count(c, s):
    """Number of parts of ``s`` that hold ``c``, asked of ``part_contains``
    directly; the whole space holds every point once."""
    if s.whole_space:
        return 1
    return sum(part_contains(c, p) for p in (*s.points, *s.atoms, *s.families))


# -- decompositions against worked cases --------------------------------------

def test_inverse_cylinder_reduces_to_plain_cylinder(renewal):
    # appending the inverse of 3 after "2.1" lands on the cylinder of "2.1.2"
    got = decompose(Subbasis(renewal, (2, 1), 3))
    want = decompose(Subbasis(renewal, (2, 1, 2)))
    assert got == want
    assert not got.points and not got.families


def test_complement_of_first_cylinder(renewal):
    got = decompose(Subbasis(renewal, (1,), complemented=True))
    assert [p.stem for p in got.points] == [()]
    assert len(got.families) == 1
    fam = got.families[0]
    assert fam.prefix == () and fam.symbols == sset.all_except({1})


def test_pair_inverse_on_empty_word(pair):
    # C_{2^-1} = {empty-stem config of family 1} |_| C_1 |_| the even cylinders
    got = decompose(Subbasis(pair, (), 2))
    assert [(p.stem, p.root.id) for p in got.points] == [((), 1)]
    assert len(got.families) == 1
    s = got.families[0].symbols
    assert sset.contains(pair, s, 1) and sset.contains(pair, s, 4)
    assert not sset.contains(pair, s, 3)


def test_degenerate_inverse_letter(renewal):
    # the inverse of the stem's own last letter cancels
    assert decompose(Subbasis(renewal, (2, 1), 1)) == decompose(Subbasis(renewal, (2,)))
    assert (decompose(Subbasis(renewal, (2, 1), 1, complemented=True))
            == decompose(Subbasis(renewal, (2,), complemented=True)))
    assert decompose(Subbasis(renewal, (), 1)).whole_space  # row 1 accepts everything
    assert decompose(Subbasis(renewal, (), 1, complemented=True)).is_empty


def test_whole_space_and_empty(renewal):
    assert decompose(Subbasis(renewal, ())).whole_space
    assert decompose(Subbasis(renewal, (), complemented=True)).is_empty


def test_non_admissible_words_rejected(renewal):
    with pytest.raises(ValueError):
        Subbasis(renewal, (2, 3))


# -- intersections -------------------------------------------------------------

def test_intersect_idempotent(renewal):
    a = Subbasis(renewal, (1,))
    assert intersect_many([a, a]) == decompose(a)


def test_intersect_nested_prefixes(renewal):
    got = intersect_many([Subbasis(renewal, (1,)), Subbasis(renewal, (1, 2)),
                          Subbasis(renewal, (1, 2, 1))])
    assert got == decompose(Subbasis(renewal, (1, 2, 1)))


def test_intersect_disjoint_words(renewal):
    assert intersect_many([Subbasis(renewal, (2, 1)), Subbasis(renewal, (3, 2))]).is_empty


def test_intersect_cylinder_with_complement(renewal):
    got = intersect_many([Subbasis(renewal, (1,)), Subbasis(renewal, (1, 2), complemented=True)])
    assert [p.stem for p in got.points] == [(1,)]
    assert len(got.families) == 1
    fam = got.families[0]
    assert fam.prefix == (1,) and fam.symbols == sset.all_except({2})


def test_intersect_many_three_way(renewal):
    # starting with 1 but avoiding both 1.2 and 1.1 leaves the length-one
    # stem plus the continuations through letters above 2
    got = intersect_many([Subbasis(renewal, (1,)),
                          Subbasis(renewal, (1, 2), complemented=True),
                          Subbasis(renewal, (1, 1), complemented=True)])
    assert [p.stem for p in got.points] == [(1,)]
    assert len(got.families) == 1
    fam = got.families[0]
    assert fam.prefix == (1,) and fam.symbols == sset.all_except({1, 2})
    # verify against the three-way raw membership directly
    universe = build_universe(renewal, 5, 6, 30).configs
    for c in universe:
        want = (raw_member(c, Subbasis(renewal, (1,)))
                and raw_member(c, Subbasis(renewal, (1, 2), complemented=True))
                and raw_member(c, Subbasis(renewal, (1, 1), complemented=True)))
        assert member(c, got) == want


def test_intersect_requires_same_matrix(renewal, pair):
    with pytest.raises(ValueError):
        intersect_many([Subbasis(renewal, (1,)), Subbasis(pair, (1,))])
    # an equal matrix built apart is the same matrix: matrices are interned
    from gcms.cylinders import meet
    from gcms.matrices import TransitionMatrix
    twin = TransitionMatrix("renewal", prime_bound=11)
    assert twin is renewal
    got = meet(decompose(Subbasis(twin, (1,))), decompose(Subbasis(renewal, (1, 2))))
    assert got == decompose(Subbasis(renewal, (1, 2)))


def test_intersect_commutative_on_universe(renewal):
    universe = build_universe(renewal, 4, 5, 20)
    elems = [Subbasis(renewal, (1,)), Subbasis(renewal, (2, 1), complemented=True),
             Subbasis(renewal, (1, 1), 2), Subbasis(renewal, (2, 1), 3, complemented=True),
             Subbasis(renewal, (1, 2, 1), complemented=True)]
    for a in elems:
        for b in elems:
            ab, ba = intersect_many([a, b]), intersect_many([b, a])
            assert ab == ba, (a, b)
            counts = setexpr_count_vec(universe, ab)
            want = [raw_member(c, a) and raw_member(c, b) for c in universe.configs]
            assert counts.max(initial=0) <= 1, (a, b)
            assert (counts == 1).tolist() == want, (a, b)


# -- membership ----------------------------------------------------------------

def test_member_examples(renewal):
    xi0 = empty_stem_config(renewal, 1)
    assert member(xi0, decompose(Subbasis(renewal, (1,), complemented=True)))
    assert member(bounded(renewal, (3, 2, 1), 1), decompose(Subbasis(renewal, (3, 2))))
    assert not member(bounded(renewal, (1,), 1), decompose(Subbasis(renewal, (1, 2))))
    assert member(UnboundedConfig(renewal, (), (1,)), decompose(Subbasis(renewal, (1, 1))))


def test_reduction_soundness(renewal):
    # evaluation only sees the last inverse letter: alpha gamma^-1 = alpha gamma[-1]^-1
    configs = [empty_stem_config(renewal, 1), bounded(renewal, (2, 1), 1),
               bounded(renewal, (1, 1), 1), UnboundedConfig(renewal, (3, 2), (1,)),
               UnboundedConfig(renewal, (), (1,))]
    gammas = [(2, 1), (3, 2), (1, 1), (4, 3, 2)]
    alphas = [(), (1,), (2, 1), (1, 2)]
    for c in configs:
        for alpha in alphas:
            for gamma in gammas:
                if alpha and alpha[-1] == gamma[-1]:
                    continue
                full = GroupWord(alpha, gamma)
                short = GroupWord(alpha, (gamma[-1],))
                assert c.eval(full) == c.eval(short), (c, alpha, gamma)


def test_verify_identity_pass_and_disjoint(renewal):
    # the normal form of a meet covers each configuration at most once, and
    # exactly those of both raw membership rows
    u = build_universe(renewal, 4, 5, 25)
    a, b = Subbasis(renewal, (1,)), Subbasis(renewal, (1, 2), complemented=True)
    row_a, row_b = raw_rows(u, [a, b])
    assert row_a & row_b
    assert _meet_fault(u, intersect_many([a, b]), row_a & row_b) is None


def test_verify_identity_detects_corruption(renewal):
    u = build_universe(renewal, 4, 5, 25)
    a, b = Subbasis(renewal, (1,)), Subbasis(renewal, (1, 2), complemented=True)
    row_a, row_b = raw_rows(u, [a, b])
    good = intersect_many([a, b])
    # drop the family part: membership must now fail somewhere
    corrupted = SetExpr(good.matrix, False, good.points, good.atoms, ())
    k, reason = _meet_fault(u, corrupted, row_a & row_b)
    assert reason == "raw=True normalized=False"
    assert raw_member(u.configs[k], a) and raw_member(u.configs[k], b)


def test_whole_space_decomposition(renewal, pair, prime, alternating, monkeypatch):
    from gcms import verification

    def cover(A):
        # the oracle checks the cover on its own universe, here stems up to 4
        # over symbols up to 5 plus 25 periodic points, with few elements
        return cylinder_oracle(A, word_len=1, sym_bound=2, inv_bound=2, stem_len=4,
                               universe_syms=5, n_periodic=25).whole_space_cover

    for A in (renewal, pair, prime, alternating):
        assert cover(A)
    # the cover's parts are checked as they are, not folded into the
    # whole-space flag: a dropped empty-stem point is reported, and so is a
    # first-letter family that misses every configuration starting with 1
    u = build_universe(pair, 4, 5, 25)
    points = tuple(empty_stem_config(pair, col.id) for col in pair.accumulation_catalog)
    family = CylFamily((), sset.ALL)
    assert _meet_fault(u, SetExpr(pair, False, points, (), (family,)), u.full) is None
    assert _meet_fault(u, SetExpr(pair, False, points[1:], (), (family,)), u.full)
    contains = verification.part_contains
    monkeypatch.setattr(verification, "part_contains", lambda c, part: (
        contains(c, part) and not (part == family and c.symbol_at(0) == 1)))
    assert not cover(renewal)


# -- reduced oracle (the exhaustive one runs in the acceptance suite) ----------

@pytest.mark.parametrize("kind", ["renewal", "pair_renewal", "prime_renewal",
                                  "alternating_renewal"])
def test_small_oracle(kind):
    from gcms.matrices import by_kind
    from gcms.verification import cylinder_oracle
    rep = cylinder_oracle(by_kind(kind), word_len=2, sym_bound=3, inv_bound=3,
                          stem_len=4, universe_syms=5, n_periodic=20)
    assert rep.ok, rep.mismatches


@pytest.mark.parametrize("kind, n_elems, n_pairs", [("alternating_renewal", 200, 20100),
                                                    ("prime_renewal", 400, 80200)])
def test_full_oracle(kind, n_elems, n_pairs):
    # renewal and pair_renewal run the full-size oracle in the acceptance suite
    from gcms.matrices import by_kind
    from gcms.verification import cylinder_oracle
    rep = cylinder_oracle(by_kind(kind))
    assert rep.ok, rep.mismatches
    assert (rep.n_elems, rep.n_pairs) == (n_elems, n_pairs)


@given(residue_kinds())
@settings(max_examples=25, deadline=None)
def test_drawn_residue_kinds_through_the_oracle(description):
    # letters up to 7 reach every drawn irregular row, so each row's sieve,
    # each root of the catalog and each meet of two rows is checked
    with residue_matrix(*description) as A:
        rep = cylinder_oracle(A, word_len=2, sym_bound=4, inv_bound=4, stem_len=4,
                              universe_syms=7, n_periodic=20)
        assert rep.ok, rep.mismatches


def test_oracle_reports_a_corrupted_decompose(monkeypatch):
    # the oracle can fail: decompose losing a boundary point must show up
    from gcms import cylinders
    from gcms.matrices import by_kind
    from gcms.verification import cylinder_oracle
    roots = cylinders._roots
    monkeypatch.setattr(cylinders, "_roots", lambda A, stem: roots(A, stem)[1:])
    rep = cylinder_oracle(by_kind("pair_renewal"), word_len=2, sym_bound=3, inv_bound=3,
                          stem_len=4, universe_syms=5, n_periodic=20)
    assert not rep.ok
    assert all(m.startswith("decompose(") for m in rep.mismatches), rep.mismatches


def _all_pairs_oracle(A, word_len, sym_bound, inv_bound, stem_len, universe_syms, n_periodic,
                      max_report=5):
    # the oracle's pair phase as it was before it met once per class pair:
    # one meet and one check for every pair of elements
    import numpy as np
    from itertools import combinations_with_replacement
    from gcms.cylinders import meet
    u = build_universe(A, stem_len, universe_syms, n_periodic)
    elems = subbasis_elements(A, word_len, sym_bound, inv_bound)
    raw = np.array([[raw_member(c, e) for c in u.configs] for e in elems], dtype=bool)
    decomposed = [decompose(e) for e in elems]
    mismatches = []
    for i, e in enumerate(elems):
        counts = setexpr_count_vec(u, decomposed[i])
        if (counts > 1).any() or ((counts == 1) != raw[i]).any():
            mismatches.append(f"decompose({e!r}) disagrees with raw membership")
            if len(mismatches) >= max_report:
                break
    n_pairs = 0
    if not mismatches:
        for i, j in combinations_with_replacement(range(len(elems)), 2):
            n_pairs += 1
            counts = setexpr_count_vec(u, meet(decomposed[i], decomposed[j]))
            expected = raw[i] & raw[j]
            if (counts > 1).any():
                k = int(np.argmax(counts > 1))
                mismatches.append(
                    f"{elems[i]!r} & {elems[j]!r}: config {u.configs[k]!r} covered "
                    f"{int(counts[k])} times")
            elif ((counts == 1) != expected).any():
                k = int(np.argmax((counts == 1) != expected))
                mismatches.append(
                    f"{elems[i]!r} & {elems[j]!r}: config {u.configs[k]!r} "
                    f"raw={bool(expected[k])} normalized={bool(counts[k] == 1)}")
            if len(mismatches) >= max_report:
                break
    return len(elems), n_pairs, len(u), mismatches


ORACLE_MATRICES = ["renewal", "pair_renewal", "prime_renewal", "alternating_renewal",
                   "explicit", "full_shift"]


def _oracle_matrix(name):
    # the four rule kinds, a stored 3x3 matrix and the full 3-shift
    from gcms.matrices import by_kind, explicit, full_shift
    return {"explicit": lambda: explicit([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
            "full_shift": lambda: full_shift(3)}.get(name, lambda: by_kind(name))()


@pytest.mark.parametrize("name", ORACLE_MATRICES)
@pytest.mark.parametrize("faulty", ["clean", "faulty_meet", "faulty_decompose"])
def test_oracle_matches_the_all_pairs_loop(name, faulty, monkeypatch):
    # meeting once per class pair reports what meeting every element pair does,
    # message for message, on a sound meet, on one that keeps the first of
    # two families on a shared prefix, and on a decompose that loses a
    # boundary point, which the element phase reports
    from gcms import cylinders
    from gcms.matrices import explicit
    from gcms.verification import cylinder_oracle
    A = _oracle_matrix(name)
    if faulty == "faulty_meet":
        meet_families = cylinders._meet_families
        monkeypatch.setattr(cylinders, "_meet_families", lambda A, f, g: (
            f if f.prefix == g.prefix else meet_families(A, f, g)))
    if faulty == "faulty_decompose":
        roots = cylinders._roots
        monkeypatch.setattr(cylinders, "_roots", lambda A, stem: roots(A, stem)[1:])
    # a stored matrix has no boundary points for decompose to lose
    expect_fault = {"clean": False, "faulty_meet": True,
                    "faulty_decompose": bool(A.accumulation_catalog)}[faulty]
    # the report cut-off, and none: every pair, in both orders of a class
    # pair that a faulty meet tells apart, is then reported
    from gcms import verification
    sizes = dict(word_len=2, sym_bound=3, inv_bound=3, stem_len=4, universe_syms=5,
                 n_periodic=20)
    for max_report in (verification._MAX_REPORT, 10 ** 6):
        monkeypatch.setattr(verification, "_MAX_REPORT", max_report)
        rep = cylinder_oracle(A, **sizes)
        slow = _all_pairs_oracle(A, **sizes, max_report=max_report)
        assert (rep.n_elems, rep.n_pairs, rep.n_configs, rep.mismatches) == slow
        assert bool(slow[3]) == expect_fault, slow[3]


def test_raw_rows_match_raw_membership(monkeypatch):
    # one raw_member row per (alpha, inv); a complement's row is its negation
    from gcms import verification
    from gcms.matrices import by_kind
    A = by_kind("pair_renewal")
    u = build_universe(A, 4, 5, 20)
    elems = subbasis_elements(A, 2, 3, 3)
    calls = []
    member = verification.raw_member
    monkeypatch.setattr(verification, "raw_member",
                        lambda c, e: calls.append(e) or member(c, e))
    rows = verification.raw_rows(u, elems)
    assert len(calls) == len(u) * len({(e.alpha, e.inv) for e in elems}) == len(u) * len(elems) // 2
    assert not any(e.complemented for e in calls)
    for e, row in zip(elems, rows):
        assert row >> len(u) == 0
        assert [bool(row >> k & 1) for k in range(len(u))] == [raw_member(c, e) for c in u.configs]


def test_oracle_builds_each_part_row_once(monkeypatch):
    # every part of every decomposition and every meet gets one row, once:
    # each part is asked of part_contains, never twice on one configuration,
    # and an atom or a family only on one member of each group of
    # configurations that read alike, so in fewer calls than one per
    # configuration and part
    from gcms import verification
    from gcms.cylinders import meet
    from gcms.matrices import by_kind
    A = by_kind("pair_renewal")
    calls = []
    contains = verification.part_contains
    monkeypatch.setattr(verification, "part_contains",
                        lambda c, part: calls.append((part, c)) or contains(c, part))
    rep = verification.cylinder_oracle(A, word_len=2, sym_bound=3, inv_bound=3, stem_len=4,
                                       universe_syms=5, n_periodic=20)
    assert rep.ok, rep.mismatches
    dec = [decompose(e) for e in subbasis_elements(A, 2, 3, 3)]
    exprs = dec + [meet(d, e) for i, d in enumerate(dec) for e in dec[i:]]
    parts = {p for s in exprs for p in (*s.points, *s.atoms, *s.families)}
    parts.add(CylFamily((), sset.ALL))     # the whole-space cover's family
    assert {part for part, _ in calls} == parts
    assert len(set(calls)) == len(calls)
    assert len(calls) < rep.n_configs * len(parts)


def test_count_vectors_match_uncached_membership():
    # setexpr_count_vec reads cached bit rows; _count asks part_contains
    # directly
    import random
    from gcms.cylinders import meet
    from gcms.matrices import by_kind
    A = by_kind("pair_renewal")
    u = build_universe(A, 5, 6, 50)    # the universe of the full-size oracle
    dec = [decompose(e) for e in subbasis_elements(A, 3, 4, 4)]
    rng = random.Random(20240809)
    for s in dec + [meet(rng.choice(dec), rng.choice(dec)) for _ in range(300)]:
        assert setexpr_count_vec(u, s).tolist() == [_count(c, s) for c in u.configs], s


@pytest.mark.parametrize("kind, n_configs, n_pairs", [("renewal", 178, 31375),
                                                      ("pair_renewal", 1035, 61425)])
def test_oracle_on_a_wider_universe(kind, n_configs, n_pairs):
    # the full-size element set against stems up to 7 over symbols up to 8,
    # several times the universe of the default sizes
    from gcms.matrices import by_kind
    from gcms.verification import cylinder_oracle
    rep = cylinder_oracle(by_kind(kind), stem_len=7, universe_syms=8)
    assert rep.ok, rep.mismatches
    assert (rep.n_configs, rep.n_pairs) == (n_configs, n_pairs)


def assert_random_triple_meets(A, rng, universe, elem_sizes, n_triples):
    """Meets of random triples of subbasis elements against the raw
    membership of each configuration of ``universe`` (the arguments of
    ``build_universe``), and associativity on the nose, as the normal form
    is canonical.  Repeated meets reach part-pair shapes single
    decompositions never produce."""
    from gcms.cylinders import meet
    u = build_universe(A, *universe)
    elems = subbasis_elements(A, *elem_sizes)
    dec = [decompose(e) for e in elems]
    raw = {}

    def raw_row(i):
        if i not in raw:
            raw[i] = np.array([raw_member(c, elems[i]) for c in u.configs])
        return raw[i]

    for _ in range(n_triples):
        i, j, k = (rng.randrange(len(elems)) for _ in range(3))
        expr = meet(meet(dec[i], dec[j]), dec[k])
        counts = setexpr_count_vec(u, expr)
        expected = raw_row(i) & raw_row(j) & raw_row(k)
        assert not (counts > 1).any(), (elems[i], elems[j], elems[k])
        assert ((counts == 1) == expected).all(), (elems[i], elems[j], elems[k])
        assert expr == meet(dec[i], meet(dec[j], dec[k])), (elems[i], elems[j], elems[k])


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal", "prime_renewal",
                                  "alternating_renewal"])
def test_random_triple_intersections(kind):
    import random
    from gcms.matrices import by_kind
    assert_random_triple_meets(by_kind(kind), random.Random(20240809), (4, 5, 20), (2, 3, 3), 400)


@given(residue_kinds())
@settings(max_examples=25, deadline=None)
def test_drawn_residue_kinds_triple_intersections(description):
    # inverse letters up to 7 reach every drawn irregular row as a sieve
    import random
    with residue_matrix(*description) as A:
        assert_random_triple_meets(A, random.Random(repr(description)), (4, 7, 20), (2, 4, 7), 200)


def test_explicit_matrix_oracle():
    # finite matrices have no boundary points; the same formulas must hold
    from gcms.matrices import explicit
    from gcms.verification import cylinder_oracle
    A = explicit([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    rep = cylinder_oracle(A, word_len=2, sym_bound=3, inv_bound=3,
                          stem_len=0, universe_syms=3, n_periodic=40)
    assert rep.ok, rep.mismatches


@st.composite
def stored_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    return draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=n, max_size=n)
                .filter(lambda r: all(map(any, r)) and all(map(any, zip(*r)))))


@given(stored_matrices())
@settings(max_examples=60, deadline=None)
def test_stored_matrices_through_the_oracle(rows):
    # forced cycles and alphabets smaller than the oracle's bounds included
    from gcms.matrices import explicit
    from gcms.verification import cylinder_oracle
    rep = cylinder_oracle(explicit(rows), word_len=2, sym_bound=3, inv_bound=3, stem_len=3,
                          universe_syms=4, n_periodic=20)
    assert rep.ok, rep.mismatches


def test_forced_cycle_normal_forms_are_unique():
    # C[1] and C[1.2.1.2] are the one periodic point (12)^inf
    from gcms.matrices import explicit
    A = explicit([[0, 1], [1, 0]])
    got = decompose(Subbasis(A, (1,)))
    assert got == decompose(Subbasis(A, (1, 2, 1, 2)))
    assert got.atoms == ((1, 2, 1),)


@given(stored_matrices())
@settings(max_examples=60, deadline=None)
def test_forced_extension_is_canonical_on_stored_matrices(rows):
    # appending a forced letter names the same cylinder, so it must give the
    # same forced extension, also after the run has gone round a cycle
    from gcms.matrices import explicit
    from gcms.words import enumerate_words, forced_extension
    A = explicit(rows)
    for n in (1, 2, 3):
        for w in enumerate_words(A, n, range(1, A.size + 1), A.size).words:
            ext = forced_extension(A, w)
            assert forced_extension(A, ext) == ext, (w, ext)
            for _ in range(2 * A.size):
                support = A.row(w[-1]).symbols
                if len(support) != 1:
                    break
                w += tuple(support)
                assert forced_extension(A, w) == ext, (w, ext)


# -- normal-form parts are admissible -------------------------------------------

def _assert_parts_admissible(A, expr):
    # the measures read the parts of a normal form without checking them
    # (measures.Measure): every atom and family prefix is admissible, and a
    # family's symbols continue its prefix admissibly
    for a in expr.atoms:
        assert is_admissible(A, a), (expr, a)
    for f in expr.families:
        assert is_admissible(A, f.prefix), (expr, f)
        for k in range(1, 13):
            if sset.contains(A, f.symbols, k):
                assert is_admissible(A, f.prefix + (k,)), (expr, f, k)


def _check_emitted_parts(A, classes, pairs, word_len):
    from gcms.cylinders import meet, normalize, shift_image
    for expr in classes:
        _assert_parts_admissible(A, expr)
        # normalize again: the canonical parts stay canonical
        _assert_parts_admissible(A, normalize(A, expr.points, expr.atoms, expr.families))
    for i, j in pairs:
        _assert_parts_admissible(A, meet(classes[i], classes[j]))
    for w in cylinder_words_up_to(A, word_len + 1, 6):
        _assert_parts_admissible(A, shift_image.__wrapped__(A, w))


@pytest.mark.parametrize("kind, word_len", [("renewal", 3), ("pair_renewal", 3),
                                            ("alternating_renewal", 3), ("prime_renewal", 2)])
def test_emitted_parts_are_admissible(kind, word_len, oracle_classes):
    from gcms.matrices import by_kind
    A = by_kind(kind)
    _check_emitted_parts(A, *oracle_classes(A, word_len), word_len)


@given(stored_matrices())
@settings(max_examples=20, deadline=None)
def test_emitted_parts_are_admissible_on_stored_matrices(oracle_classes, rows):
    from gcms.matrices import explicit
    A = explicit(rows)
    _check_emitted_parts(A, *oracle_classes(A, 2, 3, 3), 2)


# -- the shift image of a cylinder ---------------------------------------------

def _shift_image_by_roots(A, alpha):
    # the image built from its parts, as the measures built it before the
    # cylinder algebra owned it: for a letter, the empty-stem points whose
    # root holds the letter and the family of its row; for a longer word,
    # the cylinder on its tail, and nothing where the word is inadmissible
    from gcms.configs import BoundedConfig
    from gcms.cylinders import normalize
    if len(alpha) >= 2:
        return normalize(A, atoms=[alpha[1:]] if is_admissible(A, alpha) else [])
    points = [BoundedConfig(A, (), col) for col in A.accumulation_catalog
              if alpha[0] in col.allowed_terminal_symbols]
    return normalize(A, points=points, families=[CylFamily((), A.row(alpha[0]))])


def _assert_shift_images_by_roots(A, words):
    from gcms.cylinders import shift_image
    for w in words:
        assert shift_image.__wrapped__(A, w) == _shift_image_by_roots(A, w), (A, w)


@pytest.mark.parametrize("spec", [
    {"kind": "renewal"}, {"kind": "pair_renewal"}, {"kind": "alternating_renewal"},
    {"kind": "prime_renewal", "prime_bound": 7}, {"kind": "prime_renewal", "prime_bound": 31}],
    ids=["renewal", "pair", "alternating", "prime-7", "prime-31"])
def test_shift_image_is_the_inverse_cylinder_or_the_tail(spec):
    from itertools import product
    from gcms.matrices import from_dict
    A = from_dict(spec)
    inadmissible = [w for w in product(range(1, 8), repeat=3) if not is_admissible(A, w)][:3]
    assert len(inadmissible) == 3
    words = [(k,) for k in range(1, 61)] + cylinder_words_up_to(A, 4, 7) + inadmissible
    _assert_shift_images_by_roots(A, words)


@given(stored_matrices())
@settings(max_examples=20, deadline=None)
def test_shift_image_is_the_inverse_cylinder_or_the_tail_on_stored_matrices(rows):
    from gcms.matrices import explicit
    A = explicit(rows)
    _assert_shift_images_by_roots(A, cylinder_words_up_to(A, 4, A.size))


# -- part rows per group of configurations that read alike -------------------

def _check_grouped_rows(A, classes, pairs):
    # on the universe of the full-size oracle, the row of every part of every
    # element normal form and every class-pair meet is the row asked of
    # part_contains configuration by configuration, bit for bit, and the
    # count vector is the one those rows give
    import numpy as np
    from gcms.cylinders import meet
    from gcms.verification import _pack, _unpack
    u = build_universe(A, 5, 6, 50)
    exprs = {*classes, *(meet(classes[i], classes[j]) for i, j in pairs)}
    parts = {p for s in exprs for p in (*s.points, *s.atoms, *s.families)}
    want = {p: _pack((part_contains(c, p) for c in u.configs), len(u)) for p in parts}
    for part, row in want.items():
        assert u.part_row(part) == row, part
    for s in exprs:
        counts = (np.ones(len(u), dtype=np.int64) if s.whole_space
                  else sum((_unpack(want[p], len(u)).astype(np.int64)
                            for p in (*s.points, *s.atoms, *s.families)),
                           np.zeros(len(u), dtype=np.int64)))
        assert setexpr_count_vec(u, s).tolist() == counts.tolist(), s


@pytest.mark.parametrize("kind", ["renewal", "pair_renewal", "prime_renewal",
                                  "alternating_renewal"])
def test_grouped_part_rows_match_per_configuration_rows(kind, oracle_classes):
    from gcms.matrices import by_kind
    A = by_kind(kind)
    _check_grouped_rows(A, *oracle_classes(A))


@given(stored_matrices())
@settings(max_examples=10, deadline=None)
def test_grouped_part_rows_match_per_configuration_rows_on_stored_matrices(oracle_classes,
                                                                           rows):
    from gcms.matrices import explicit
    A = explicit(rows)
    _check_grouped_rows(A, *oracle_classes(A, 2, 3, 3))


# -- meet assembles its operands' canonical parts ------------------------------

def _reference_meet(s, t):
    # meet as it was before its operands remembered their points: the point
    # filter asks member for every point of every meet, and the result is
    # built from the parts kept by cylinders.normalize, which takes no part
    # of the operands as canonical
    from gcms import cylinders
    from gcms.words import is_prefix
    if s.matrix != t.matrix:
        raise ValueError("set expressions over different matrices")
    A = s.matrix
    if s.whole_space:
        return t
    if t.whole_space:
        return s
    points = [p for p in s.points if cylinders.member(p, t)]
    points += [q for q in t.points if q not in s.points and cylinders.member(q, s)]
    atoms, families = [], []

    def meet_atom_family(a, f):
        if is_prefix(a, f.prefix):
            families.append(f)
        elif (is_prefix(f.prefix, a) and len(a) > len(f.prefix)
              and sset.contains(A, f.symbols, a[len(f.prefix)])):
            atoms.append(a)

    for a in s.atoms:
        for b in t.atoms:
            if is_prefix(a, b):
                atoms.append(b)
            elif is_prefix(b, a):
                atoms.append(a)
        for g in t.families:
            meet_atom_family(a, g)
    for b in t.atoms:
        for f in s.families:
            meet_atom_family(b, f)
    for f in s.families:
        for g in t.families:
            hit = cylinders._meet_families(A, f, g)
            if hit is not None:
                families.append(hit)
    return cylinders.normalize(A, points, atoms, families)


def _check_class_pair_meets(classes, pairs):
    from gcms.cylinders import meet
    met = {(i, j): meet(classes[i], classes[j]) for i, j in pairs}
    for (i, j), got in met.items():
        s, t = classes[i], classes[j]
        assert got == _reference_meet(s, t), (s, t)
        assert got == (met[j, i] if (j, i) in met else meet(t, s)), (s, t)


@pytest.mark.parametrize("kind, word_len, n_pairs", [("renewal", 3, 3140),
                                                     ("pair_renewal", 3, 11848),
                                                     ("alternating_renewal", 3, 2303),
                                                     ("prime_renewal", 2, 3775)])
def test_meet_matches_meet_by_normalize(kind, word_len, n_pairs, oracle_classes):
    # every class pair the oracle meets, at its full sizes (prime_renewal at
    # word length 2: its full 23,241 pairs take seconds)
    from gcms.matrices import by_kind
    classes, pairs = oracle_classes(by_kind(kind), word_len)
    assert len(pairs) == n_pairs
    _check_class_pair_meets(classes, pairs)


@given(stored_matrices())
@settings(max_examples=10, deadline=None)
def test_meet_matches_meet_by_normalize_on_stored_matrices(oracle_classes, rows):
    from gcms.matrices import explicit
    _check_class_pair_meets(*oracle_classes(explicit(rows), 2, 3, 3))


# -- meet against its slow path ------------------------------------------------

def _slow_assemble(A, points, atoms, families):
    # the slow path of cylinders._assemble: every sieve family asked whether
    # it is empty, and the whole-space fold compared by value
    from gcms.cylinders import SetExpr, _in_order, _point_key
    from gcms.words import forced_extension
    from operator import attrgetter
    out_atoms = list(atoms)
    out_fams = []
    for f in families:
        if isinstance(f.symbols, sset.FiniteSet):
            out_atoms.extend(forced_extension(A, f.prefix + (k,)) for k in f.symbols.symbols)
        elif not sset.is_definitely_empty(A, f.symbols):
            out_fams.append(f)
    if not points and not out_fams and len(out_atoms) < 2:
        return SetExpr(A, False, (), tuple(out_atoms), ())
    out_points = _in_order(points, _point_key, "point")
    out_atoms = _in_order(out_atoms, None, "cylinder")
    fams = _in_order(out_fams, attrgetter("prefix"), "family")
    if (not out_atoms and [(f.prefix, f.symbols) for f in fams] == [((), sset.ALL)]
            and set(map(_point_key, out_points)) == {((), c.id) for c in A.accumulation_catalog}):
        return SetExpr(A, True, (), (), ())
    return SetExpr(A, False, out_points, out_atoms, fams)


def _slow_meet(s, t):
    # the slow path of cylinders.meet: matrices compared by value, every part
    # loop walked whatever its sides hold, each point asked of member
    from gcms import cylinders
    if s.matrix != t.matrix:
        raise ValueError("set expressions over different matrices")
    A = s.matrix
    if s.whole_space:
        return t
    if t.whole_space:
        return s
    atoms, families = [], []
    points = [p for p in s.points if cylinders.member(p, t)]
    points += [q for q in t.points if q not in s.points and cylinders.member(q, s)]
    for a in s.atoms:
        for b in t.atoms:
            if a == b[:len(a)]:
                atoms.append(b)
            elif b == a[:len(b)]:
                atoms.append(a)
    for own, other in ((s.atoms, t.families), (t.atoms, s.families)):
        for a in own:
            for f in other:
                m = len(f.prefix)
                if a == f.prefix[:len(a)]:
                    families.append(f)
                elif f.prefix == a[:m] and sset.contains(A, f.symbols, a[m]):
                    atoms.append(a)
    for f in s.families:
        for g in t.families:
            hit = cylinders._meet_families(A, f, g)
            if hit is not None:
                families.append(hit)
    return _slow_assemble(A, points, atoms, families)


def _assert_meets_alike(s, t):
    # == on normal forms compares the part tuples in order; they are named
    # here so that a failure shows which one differs
    from gcms.cylinders import meet
    got, want = meet(s, t), _slow_meet(s, t)
    assert got.whole_space == want.whole_space, (s, t)
    assert got.points == want.points, (s, t)
    assert got.atoms == want.atoms, (s, t)
    assert got.families == want.families, (s, t)
    assert got == want, (s, t)


def _check_point_filter(classes, pairs):
    for i, j in pairs:
        _assert_meets_alike(classes[i], classes[j])


@pytest.mark.parametrize("name", ORACLE_MATRICES)
def test_meet_matches_the_member_point_filter(name, oracle_classes):
    # every class pair of the full-size oracle: each operand remembers what
    # member said of a point, and the meet equals the slow one, which asks
    # member every time and walks every part loop
    _check_point_filter(*oracle_classes(_oracle_matrix(name)))


@given(stored_matrices())
@example([[1, 1], [1, 1]])    # !C[1] & !C[2] leaves an empty sieve on the first letter
@settings(max_examples=10, deadline=None)
def test_meet_matches_the_member_point_filter_on_stored_matrices(oracle_classes, rows):
    from gcms.matrices import explicit
    _check_point_filter(*oracle_classes(explicit(rows), 2, 3, 3))


@given(stored_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_meet_matches_the_slow_meet_on_random_normal_forms(rows, rng):
    # normal forms beyond single elements: slow meets of up to three random
    # elements, met pairwise
    from functools import reduce
    from gcms.matrices import explicit
    A = explicit(rows)
    elems = subbasis_elements(A, 2, 3, 3)
    forms = [reduce(_slow_meet, map(decompose, rng.sample(elems, rng.randint(1, 3))))
             for _ in range(25)]
    for s in forms:
        for t in forms:
            _assert_meets_alike(s, t)


# -- meet decides each boundary point once per normal form ---------------------

def test_point_memo_tells_matrices_apart(renewal, pair):
    # a point of another matrix with the same stem and root id hashes like a
    # remembered point, and is still no member
    s = decompose(Subbasis(renewal, (1,), complemented=True))
    p, q = empty_stem_config(renewal, 1), empty_stem_config(pair, 1)
    assert p in s.points and hash(q) == hash(p) and q != p
    assert s._held([p]) == [p]
    assert s._held([q]) == [] and not member(q, s)
    assert s._held([q, p]) == [p] and list(s._point_memo.items()) == [(p, True), (q, False)]


def test_oracle_asks_member_once_per_point_and_normal_form(monkeypatch):
    # counted, not timed: the oracle's 11,848 class-pair meets asked member
    # 50,702 times when every meet asked it of every point
    from collections import Counter
    from gcms import cylinders
    from gcms.matrices import by_kind
    from gcms.verification import cylinder_oracle
    asked = Counter()
    ask = cylinders.member
    monkeypatch.setattr(cylinders, "member",
                        lambda c, s: asked.update([(c, id(s))]) or ask(c, s))
    rep = cylinder_oracle(by_kind("pair_renewal"))
    assert rep.ok and rep.n_pairs == 61425
    assert max(asked.values()) == 1
    assert sum(asked.values()) <= 5000


def test_oracle_meets_each_class_pair_once_and_assembles_little(oracle_classes, monkeypatch):
    # counted, not timed: the pair-renewal oracle meets each of its 11,848
    # class pairs once, on the classes' first members.  When it walked the
    # element pairs, all 11,905 _assemble calls sorted their parts, and the
    # run made 153,930 BoundedConfig.__eq__ calls; a result of no point, no
    # family and at most one atom now needs no sorting, and interned points
    # are found by identity.  When every family pair was met afresh and every
    # part row asked part_contains of every configuration, the run made 5,484
    # symbolsets.intersect calls and 47,304 part_contains calls; with family
    # pairs met once and rows built per group, 755 and 6,927
    from collections import Counter
    from gcms import cylinders, verification
    from gcms.configs import BoundedConfig
    from gcms.matrices import TransitionMatrix, by_kind
    A = by_kind("pair_renewal")
    classes, pairs = oracle_classes(A)
    cylinders._meet_families.cache_clear()     # count the family meets from cold
    met, counted = [], Counter()
    meet, in_order, eq = verification.meet, cylinders._in_order, BoundedConfig.__eq__
    intersect, contains = sset.intersect, verification.part_contains
    monkeypatch.setattr(verification, "meet", lambda s, t: met.append((s, t)) or meet(s, t))
    monkeypatch.setattr(cylinders, "_in_order",
                        lambda parts, key, what: counted.update([what])
                        or in_order(parts, key, what))
    monkeypatch.setattr(BoundedConfig, "__eq__",
                        lambda p, q: counted.update(["eq"]) or eq(p, q))
    monkeypatch.setattr(sset, "intersect",
                        lambda *args: counted.update(["intersect"]) or intersect(*args))
    monkeypatch.setattr(verification, "part_contains",
                        lambda c, part: counted.update(["contains"]) or contains(c, part))
    matrix_eq = TransitionMatrix.__eq__
    monkeypatch.setattr(TransitionMatrix, "__eq__",
                        lambda a, b: counted.update(["matrix eq"]) or matrix_eq(a, b))
    rep = cylinder_oracle(A)
    assert rep.ok and rep.n_pairs == 61425
    assert len(met) == 11848
    # the operands of every meet share one matrix object, which meet tells
    # by identity: it compared the matrices by value in each of its meets
    assert counted["matrix eq"] == 0
    assert set(met) == {(classes[i], classes[j]) for i, j in pairs}
    # _in_order sorts the points once per assembly that goes past the shortcut
    assert counted["point"] <= 6000
    assert counted["eq"] <= 50000
    assert counted["intersect"] <= 1000
    assert counted["contains"] <= 8000


def test_meet_families_memo_is_the_unmemoized_meet(oracle_classes):
    # every family pair the class-pair meets of the full pair-renewal oracle take
    from gcms.cylinders import _meet_families
    from gcms.matrices import by_kind
    A = by_kind("pair_renewal")
    classes, pairs = oracle_classes(A)
    met = {(f, g) for i, j in pairs for f in classes[i].families for g in classes[j].families}
    assert len(met) > 1000
    for f, g in met:
        assert _meet_families(A, f, g) == _meet_families.__wrapped__(A, f, g), (f, g)


def test_families_are_interned_and_keep_value_semantics(renewal, pair):
    import copy
    import dataclasses
    import pickle
    f = CylFamily((1,), sset.all_except({2}))
    # a family built twice from equal parts is one object
    assert CylFamily((1,), sset.all_except([2])) is f
    assert CylFamily(prefix=(1,), symbols=sset.Sieve(None, frozenset(), frozenset({2}))) is f
    assert (decompose(Subbasis(renewal, (1,), complemented=True)).families
            == (CylFamily((), sset.all_except({1})),))
    # families that differ only in their symbols are different objects
    g = CylFamily((1,), sset.all_except({3}))
    assert g is not f and g != f and g.prefix == f.prefix
    assert CylFamily((1,), sset.FiniteSet(frozenset({2}))) is not f
    # every route that rebuilds a family by value returns the interned one
    for same in (dataclasses.replace(f), copy.copy(f), copy.deepcopy(f),
                 pickle.loads(pickle.dumps(f))):
        assert same is f
    assert dataclasses.replace(f, symbols=g.symbols) is g
    # the representation is unchanged
    assert repr(f) == "Fam[1; AllExcept([2])]"
    assert repr(CylFamily((1, 2), sset.FiniteSet(frozenset({3, 1})))) == "Fam[1.2; Exactly([1, 3])]"
    assert [repr(h) for h in decompose(Subbasis(pair, (), 2)).families] == ["Fam[e; {k: A(2,k)=1}]"]
    # equality and hash are the object's own, and a family stays frozen
    assert "__eq__" not in vars(CylFamily) and "__hash__" not in vars(CylFamily)
    assert not hasattr(f, "_hash") and hash(f) == object.__hash__(f)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.prefix = (2,)


@pytest.mark.parametrize("parts, key", [
    ([], None),
    ([(1,), (2, 1), (3,)], None),
    ([(), (1,), (1, 1)], len),
    ([(3,), (1,), (2, 1)], None),
    ([(), (1, 1), (1,)], len),
    ([(2,), (1,), (3,), (0,)], lambda w: -w[0]),
])
def test_in_order_returns_parts_sorted_by_their_keys(parts, key):
    from gcms.cylinders import _in_order
    got = _in_order(parts, key, "cylinder")
    assert type(got) is tuple and got == tuple(sorted(parts, key=key))


@pytest.mark.parametrize("parts", [[(1,), (1,), (2,)], [(2,), (1,), (2,)], [(1,), (2,), (2,)]])
def test_in_order_rejects_a_repeated_key(parts):
    # in sorted input and in unsorted input alike
    from gcms.cylinders import _in_order
    with pytest.raises(RuntimeError, match=r"duplicate cylinder \(\d,\) in decomposition"):
        _in_order(parts, None, "cylinder")


def _check_one_family_per_prefix(classes, pairs, monkeypatch):
    # the families meet hands to _assemble, and those it keeps, have one
    # prefix each: the parts of a normal form are disjoint
    from gcms import cylinders
    handed = []
    assemble = cylinders._assemble
    monkeypatch.setattr(cylinders, "_assemble", lambda A, points, atoms, families: (
        handed.append(families) or assemble(A, points, atoms, families)))
    for i, j in pairs:
        handed.clear()
        kept = cylinders.meet(classes[i], classes[j]).families
        for fams in (*handed, kept):
            prefixes = [f.prefix for f in fams]
            assert len(set(prefixes)) == len(prefixes), (classes[i], classes[j])


@pytest.mark.parametrize("kind, word_len", [("renewal", 3), ("pair_renewal", 3),
                                            ("alternating_renewal", 3), ("prime_renewal", 2)])
def test_meets_hold_one_family_per_prefix(kind, word_len, oracle_classes, monkeypatch):
    from gcms.matrices import by_kind
    _check_one_family_per_prefix(*oracle_classes(by_kind(kind), word_len), monkeypatch)


@given(stored_matrices())
@settings(max_examples=10, deadline=None)
def test_meets_hold_one_family_per_prefix_on_stored_matrices(oracle_classes, rows):
    from gcms.matrices import explicit
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_one_family_per_prefix(*oracle_classes(explicit(rows), 2, 3, 3), monkeypatch)


def test_assemble_rejects_two_families_on_one_prefix(renewal):
    # two families on one prefix overlap in a normal form, also when their
    # symbol sets differ, so a key of prefix and symbols would let them through
    from gcms.cylinders import _assemble
    fams = [CylFamily((), sset.all_except({1})), CylFamily((), sset.all_except({2}))]
    with pytest.raises(RuntimeError, match="duplicate family"):
        _assemble(renewal, [], [], fams)


def test_meet_calls_no_normalize(oracle_classes, monkeypatch):
    # the operands of a meet are normal forms, so nothing is normalized again
    from gcms import cylinders
    from gcms.matrices import by_kind
    classes, pairs = oracle_classes(by_kind("pair_renewal"))
    calls = []
    normalize = cylinders.normalize
    monkeypatch.setattr(cylinders, "normalize",
                        lambda *args, **kw: calls.append(args) or normalize(*args, **kw))
    for i, j in pairs:
        cylinders.meet(classes[i], classes[j])
    assert not calls


def test_raw_rows_build_each_group_word_once(monkeypatch):
    # one group word per element raw_member evaluates, not one per configuration
    from gcms import cylinders, verification
    from gcms.matrices import by_kind
    A = by_kind("pair_renewal")
    u = build_universe(A, 5, 6, 50)
    elems = subbasis_elements(A, 3, 4, 4)
    built = []
    group_word = cylinders.GroupWord
    monkeypatch.setattr(cylinders, "GroupWord",
                        lambda *args: built.append(args) or group_word(*args))
    verification.raw_rows(u, elems)
    assert len(built) == len(set(built)) == len({(e.alpha, e.inv) for e in elems})


# -- grammar -------------------------------------------------------------------

def test_parse_expressions(renewal):
    assert parse_elem(renewal, "C[3.2.1]") == Subbasis(renewal, (3, 2, 1))
    assert parse_elem(renewal, "!C[3.2.1]") == Subbasis(renewal, (3, 2, 1), complemented=True)
    assert parse_elem(renewal, "C[2.1;inv=3]") == Subbasis(renewal, (2, 1), 3)
    assert parse_elem(renewal, "!C[2.1;inv=3]") == Subbasis(renewal, (2, 1), 3, complemented=True)
    assert parse_elem(renewal, "C[e]") == Subbasis(renewal, ())
    chain = parse_expression(renewal, "C[1] & !C[1.2]")
    assert chain == [Subbasis(renewal, (1,)), Subbasis(renewal, (1, 2), complemented=True)]
    with pytest.raises(ValueError):
        parse_elem(renewal, "D[1]")


def test_repr_round_trips_through_parser(renewal, pair):
    # the oracle's mismatch messages spell elements in the grammar
    for A in (renewal, pair):
        for e in subbasis_elements(A, 3, 4, 4):
            assert parse_elem(A, repr(e)) == e


# -- property test: membership agrees with raw evaluation ------------------------

@st.composite
def subbasis_elem_indices(draw):
    return draw(st.integers(min_value=0, max_value=10 ** 6))


@given(subbasis_elem_indices(), subbasis_elem_indices())
@settings(max_examples=40, deadline=None)
def test_random_pairs_against_oracle(i, j):
    from gcms.matrices import by_kind
    A = by_kind("renewal")
    elems = subbasis_elements(A, word_len=2, sym_bound=3, inv_bound=3)
    a, b = elems[i % len(elems)], elems[j % len(elems)]
    universe = build_universe(A, 4, 5, 15).configs
    expr = intersect_many([a, b])
    for c in universe:
        want = raw_member(c, a) and raw_member(c, b)
        count = _count(c, expr)
        assert count <= 1
        assert (count == 1) == want
