from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from gcms.configs import (BoundedConfig, GroupWord, IntegerInterval, UnboundedConfig, bounded,
                          count_preimages_closed_form, empty_stem_config, preimages)
from gcms.matrices import KINDS, by_kind, full_shift
from gcms.words import backward_words


# -- the reference model: group-word products, the shift and the local rules ----
# The package never multiplies group words, shifts a configuration or checks
# the rules that define a configuration; these checks of the model against
# the paper live here.

IDENTITY = GroupWord()


def times_gen(g, y):
    """g * y, reduced; None when the product is not of the form
    alpha * beta^{-1}, as such a word evaluates to 0."""
    if not g.neg:
        return GroupWord(g.pos + (y,), ())
    if g.neg[0] == y:
        return GroupWord(g.pos, g.neg[1:])
    return None


def times_inv(g, x):
    """g * x^{-1}, reduced."""
    if not g.neg and g.pos and g.pos[-1] == x:
        return GroupWord(g.pos[:-1], ())
    return GroupWord(g.pos, (x,) + g.neg)


def parent(g):
    """g with its last written letter removed; None at the identity."""
    if g.neg:
        return GroupWord(g.pos, g.neg[1:])
    if g.pos:
        return GroupWord(g.pos[:-1], ())
    return None


def evaluate(c, g):
    """c at the group word g, where None (a vanishing product) is 0."""
    return 0 if g is None else c.eval(g)


def shift(c):
    """Drop the first letter; the root is preserved."""
    if isinstance(c, BoundedConfig):
        if not c.stem:
            raise ValueError("shift is undefined on an empty stem")
        return BoundedConfig(c.matrix, c.stem[1:], c.root)
    if c.preperiod:
        return UnboundedConfig(c.matrix, c.preperiod[1:], c.period)
    return UnboundedConfig(c.matrix, (), c.period[1:] + c.period[:1])


def shift_n(c, n):
    for _ in range(n):
        c = shift(c)
    return c


@dataclass
class RulesReport:
    ok: bool
    violated: str | None = None
    witness: GroupWord | None = None


def _group_words_up_to(depth, symbol_bound):
    """All pos/neg words with |pos| + |neg| <= depth over bounded symbols."""
    def words_up_to(max_len):
        out, layer = [()], [()]
        for _ in range(max_len):
            layer = [w + (s,) for w in layer for s in range(1, symbol_bound + 1)]
            out.extend(layer)
        return out

    for pos in words_up_to(depth):
        for neg in words_up_to(depth - len(pos)):
            if not (pos and neg and pos[-1] == neg[-1]):
                yield GroupWord(pos, neg)


def rules_check(c, depth, symbol_bound=None):
    """The defining local rules on all group words up to ``depth``.

    In order: R1 filled at the identity; R2 convexity (every filled word has
    its parent filled); R3 at most one forward extension of any filled word;
    R4 the matrix-compatibility equivalence for inverse letters.  Words
    range over symbols up to ``symbol_bound`` (default: ``depth``).
    """
    bound = symbol_bound if symbol_bound is not None else depth
    if c.eval(IDENTITY) != 1:
        return RulesReport(False, "R1", IDENTITY)
    filled = [g for g in _group_words_up_to(depth, bound) if c.eval(g) == 1]
    for g in filled:
        if parent(g) is not None and c.eval(parent(g)) != 1:
            return RulesReport(False, "R2", g)
    for g in filled:
        extensions = [y for y in range(1, bound + 1) if evaluate(c, times_gen(g, y)) == 1]
        if len(extensions) > 1:
            return RulesReport(False, "R3", g)
        for y in extensions:
            for x in range(1, bound + 1):
                if c.eval(times_inv(g, x)) != c.matrix.entry(x, y):
                    return RulesReport(False, "R4", times_inv(g, x))
    return RulesReport(True)


# -- group words -------------------------------------------------------------

def test_group_word_reduction():
    g = GroupWord((3, 2, 1), (1,))
    assert g.pos == (3, 2) and g.neg == ()
    assert GroupWord((1, 2), (3, 2)).pos == (1,)  # one cancellation, then 1 != 3


def test_group_word_multiplication():
    g = GroupWord((1, 2), ())
    assert times_gen(g, 3) == GroupWord((1, 2, 3), ())
    h = times_inv(g, 5)
    assert h == GroupWord((1, 2), (5,))
    assert times_gen(h, 5) == g            # cancels back
    assert times_gen(h, 4) is None         # 1.2.5^-1.4 vanishes
    assert times_inv(GroupWord((1, 2), ()), 2) == GroupWord((1,), ())
    assert times_inv(h, 7) == GroupWord((1, 2), (7, 5))


def test_group_word_parent():
    assert parent(GroupWord((1, 2), (5,))) == GroupWord((1, 2), ())
    assert parent(GroupWord((1,), ())) == IDENTITY
    assert parent(IDENTITY) is None


# -- evaluation --------------------------------------------------------------

def test_eval_bounded_examples(renewal):
    c = bounded(renewal, (3, 2, 1), 1)
    assert c.eval(GroupWord((3, 2))) == 1                 # stem prefix
    assert c.eval(GroupWord((3, 2, 1), (1,))) == 1        # root letter
    assert c.eval(GroupWord((3, 2, 1), (2,))) == 0        # 2 not in the root
    assert c.eval(GroupWord((3, 2), (1,))) == 1           # next stem letter 1, A(1,1)=1
    assert c.eval(GroupWord((3, 2), (4,))) == 0           # A(4,1) = 0
    assert c.eval(IDENTITY) == 1


def test_eval_strict_prefix_rule(renewal):
    # at a strict prefix, the inverse letter must feed the next stem letter
    c = bounded(renewal, (3, 2, 1), 1)
    # after prefix (3,), next letter is 2: A(x, 2) = 1 iff x in {1, 3}
    assert c.eval(GroupWord((3,), (1,))) == 1
    assert c.eval(GroupWord((3,), (5,))) == 0
    # inverse tails reduce to their last letter, and must be admissible
    assert c.eval(GroupWord((3,), (2, 1))) == 1           # last letter 1, admissible tail
    assert c.eval(GroupWord((3,), (5, 1))) == 0           # (5,1) not admissible


def test_eval_unbounded(renewal):
    u = UnboundedConfig(renewal, (), (1,))
    assert u.eval(GroupWord((1, 1, 1))) == 1
    assert u.eval(GroupWord((2,))) == 0
    assert u.eval(GroupWord((1,), (2,))) == 1             # A(2, 1) = 1
    assert u.eval(GroupWord((1,), (3,))) == 0


def test_eval_consistency_bounded_vs_unbounded(renewal):
    # group words with positive part a strict prefix of the stem agree
    c = bounded(renewal, (4, 3, 2, 1), 1)
    u = UnboundedConfig(renewal, (4, 3, 2), (1,))
    for pos_len in range(0, 4):
        pos = (4, 3, 2, 1)[:pos_len]
        for j in range(1, 7):
            g = GroupWord(pos, (j,))
            if g.pos == (4, 3, 2, 1):
                continue
            assert c.eval(g) == u.eval(g), (pos, j)


# -- shift -------------------------------------------------------------------

def test_shift(renewal):
    c = bounded(renewal, (3, 2, 1), 1)
    assert shift(c).stem == (2, 1)
    assert shift(shift(shift(c))).stem == ()
    assert shift(c).root is c.root
    with pytest.raises(ValueError):
        shift(empty_stem_config(renewal, 1))


def test_shift_unbounded(renewal):
    u = UnboundedConfig(renewal, (3, 2), (1,))
    assert shift(u).preperiod == (2,)
    v = UnboundedConfig(renewal, (), (2, 1))
    assert shift(v).symbol_at(0) == 1


def test_canonical_eventually_periodic(renewal):
    a = UnboundedConfig(renewal, (1,), (1,))
    b = UnboundedConfig(renewal, (), (1,))
    assert a == b                          # preperiod absorbed
    c = UnboundedConfig(renewal, (), (1, 1))
    assert c == b                          # period made primitive


# -- families and preimages ---------------------------------------------------

def test_family_of(pair, renewal):
    assert bounded(pair, (1, 2), 1).root.id == 1
    assert bounded(pair, (1,), 2).root.id == 2
    assert bounded(renewal, (2, 1), 1).root.id == 1


def test_invalid_roots_rejected(renewal, pair):
    with pytest.raises(ValueError):
        bounded(renewal, (1,), 2)          # renewal has a single column
    with pytest.raises(ValueError):
        bounded(pair, (1, 2), 2)           # family 2 stems must end in 1
    with pytest.raises(ValueError):
        bounded(renewal, (3, 2), 1)        # stem must end in the emitter 1
    with pytest.raises(ValueError):
        bounded(renewal, (2, 3), 1)        # inadmissible stem


def test_preimages_examples(renewal, pair):
    assert len(preimages(empty_stem_config(renewal, 1), 3)) == 4
    stems = [p.stem for p in preimages(empty_stem_config(pair, 1), 2)]
    assert sorted(stems) == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
    c = bounded(renewal, (1,), 1)
    assert preimages(c, 0) == [c]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_preimages_match_validated_oracle(kind):
    # the oracle prepends the walk's heads to the stem and builds each
    # configuration through the validating constructor: the same stems, and
    # the same configurations in the walk's colexicographic order
    A = by_kind(kind)
    for col in A.accumulation_catalog:
        seeds = col.allowed_terminal_symbols
        stems = [()]
        for k in (1, 2, 3):
            heads = sorted(backward_words(A, k, seeds))
            stems.append(heads[len(heads) // 2])
        for stem in stems:
            c = BoundedConfig(A, stem, col)
            assert preimages(c, 0) == [c]
            first = A.predecessors(stem[0]) if stem else seeds
            for n in range(9):
                want = sorted(h + stem for h in backward_words(A, n, first))
                got = preimages(c, n)
                assert sorted(p.stem for p in got) == want, (col.id, stem, n)
                assert got == [BoundedConfig(A, w, col) for w in sorted(
                    want, key=lambda w: w[::-1])], (col.id, stem, n)


def test_shift_inverts_preimages(renewal, pair):
    for A, fam in ((renewal, 1), (pair, 1), (pair, 2)):
        base = empty_stem_config(A, fam)
        for n in (1, 2, 4):
            for p in preimages(base, n):
                assert shift_n(p, n) == base


@pytest.mark.parametrize("n", range(0, 15))
def test_renewal_counts_closed_form(renewal, n):
    assert len(preimages(empty_stem_config(renewal, 1), n)) \
        == count_preimages_closed_form(renewal, 1, n)


@pytest.mark.parametrize("family", [1, 2])
def test_pair_counts_closed_form(pair, family):
    for n in range(0, 13):
        assert len(preimages(empty_stem_config(pair, family), n)) \
            == count_preimages_closed_form(pair, family, n)


@pytest.mark.parametrize("family", [1, 2])
def test_alternating_counts_closed_form(alternating, family):
    for n in range(0, 15):
        assert len(preimages(empty_stem_config(alternating, family), n)) \
            == count_preimages_closed_form(alternating, family, n)


def test_alternating_closed_form_values(alternating):
    # c1(2k) = 3^(k-1), c1(2k+1) = 2 * 3^(k-1), c2(n) = c1(n+1)
    assert [count_preimages_closed_form(alternating, 1, n) for n in range(8)] \
        == [1, 1, 1, 2, 3, 6, 9, 18]
    assert count_preimages_closed_form(alternating, 2, 7) == 27
    with pytest.raises(ValueError):
        count_preimages_closed_form(alternating, 3, 2)


def test_pair_closed_form_values(pair):
    assert count_preimages_closed_form(pair, 1, 2) == 5
    assert count_preimages_closed_form(pair, 2, 1) == 1
    assert count_preimages_closed_form(pair, 1, 0) == 1


def test_prime_counts_within_interval(prime):
    for fam in (1, 2, 3, 5):
        for n in range(1, 10):
            interval = count_preimages_closed_form(prime, fam, n)
            assert isinstance(interval, IntegerInterval)
            assert len(preimages(empty_stem_config(prime, fam), n)) in interval


def test_closed_form_unsupported():
    # stored finite matrices have no boundary families and no closed form
    with pytest.raises(ValueError, match="no closed-form preimage count"):
        count_preimages_closed_form(full_shift(2), 1, 3)


def test_family_invariant_under_shift(pair):
    for p in preimages(empty_stem_config(pair, 1), 3):
        q = p
        while q.stem:
            assert q.root.id == 1
            q = shift(q)


# -- local rules ---------------------------------------------------------------

def test_rules_check_constructed_configs(renewal, pair):
    samples = [
        empty_stem_config(renewal, 1),
        bounded(renewal, (3, 2, 1), 1),
        bounded(pair, (2, 2), 1),
        bounded(pair, (2, 1), 2),
        UnboundedConfig(renewal, (3, 2), (1,)),
        UnboundedConfig(pair, (), (2,)),
    ]
    for c in samples:
        report = rules_check(c, depth=4)
        assert report.ok, (c, report.violated, report.witness)


def test_rules_check_depth5_symbols8(renewal, pair):
    assert rules_check(bounded(renewal, (2, 1), 1), depth=5, symbol_bound=8).ok
    assert rules_check(bounded(pair, (2,), 1), depth=5, symbol_bound=8).ok


def test_rules_check_catches_violations(renewal):
    class TwoForward:
        """Filled at e, 1, and 2: two forward extensions of the identity."""
        matrix = renewal

        def eval(self, g):
            return 1 if (g.neg == () and g.pos in ((), (1,), (2,))) else 0

    rep = rules_check(TwoForward(), depth=3)
    assert not rep.ok and rep.violated == "R3"

    class NotConvex:
        matrix = renewal

        def eval(self, g):
            return 1 if g.pos == (1, 1) and g.neg == () or g == IDENTITY else 0

    rep = rules_check(NotConvex(), depth=3)
    assert not rep.ok and rep.violated in ("R2", "R3", "R4")


def test_shift_is_a_tree_translation(renewal, pair):
    # evaluating the shifted configuration at g equals evaluating the
    # original at the reduced product (first stem letter) * g
    def left_mult(x0, g):
        if g.pos:
            return GroupWord((x0,) + g.pos, g.neg)
        if g.neg and g.neg[-1] == x0:
            return GroupWord((), g.neg[:-1])
        return GroupWord((x0,), g.neg)

    def group_words(depth):
        words = [()]
        layer = [()]
        for _ in range(depth):
            layer = [w + (s,) for w in layer for s in range(1, depth + 1)]
            words += layer
        for pos in words:
            for neg in words:
                if len(pos) + len(neg) <= depth and not (pos and neg and pos[-1] == neg[-1]):
                    yield GroupWord(pos, neg)

    samples = [bounded(renewal, (3, 2, 1), 1), bounded(renewal, (1, 1), 1),
               bounded(pair, (2, 2), 1), bounded(pair, (2, 1), 2),
               UnboundedConfig(renewal, (2,), (1,)), UnboundedConfig(pair, (), (2,))]
    for c in samples:
        sc = shift(c)
        x0 = c.stem[0] if hasattr(c, "stem") else c.symbol_at(0)
        for g in group_words(4):
            assert sc.eval(g) == c.eval(left_mult(x0, g)), (c, g)


# -- property tests -------------------------------------------------------------

@st.composite
def renewal_stems(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    if n == 0:
        return ()
    # build backward: predecessors of the renewal matrix are {1, s+1}
    w = [1]
    for _ in range(n - 1):
        w.insert(0, 1 if draw(st.booleans()) else w[0] + 1)
    return tuple(w)


@given(renewal_stems(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_preimage_shift_roundtrip_property(stem, n):
    from gcms.matrices import by_kind
    A = by_kind("renewal")
    c = bounded(A, stem, 1)
    for p in preimages(c, n):
        assert shift_n(p, n) == c


@given(st.sampled_from(sorted(KINDS)), st.data())
@settings(max_examples=40, deadline=None)
def test_equal_configurations_hash_equally(kind, data):
    # preimages builds its configurations without the constructor
    # (configs._config); each must equal, and hash like, the one the
    # validating constructor builds over the matrix from a specification
    from gcms.matrices import from_dict
    A, B = by_kind(kind), from_dict({"kind": kind})
    col = data.draw(st.sampled_from(A.accumulation_catalog))
    n = data.draw(st.integers(min_value=0, max_value=5))
    layer = preimages(empty_stem_config(A, col.id), n)
    c = data.draw(st.sampled_from(layer))
    d = BoundedConfig(B, c.stem, B.column_by_id(col.id))
    assert c == d and hash(c) == hash(d)
    assert {c: True}.get(d) and d in set(layer)
