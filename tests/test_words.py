from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from test_cylinders import stored_matrices

from gcms import matrices
from gcms import measures as ms
from gcms import symbolsets as ss
from gcms.configs import UnboundedConfig, bounded, empty_stem_config, preimages
from gcms.cylinders import Subbasis, shift_image
from gcms.matrices import KINDS, by_kind, explicit, full_shift
from gcms.verification import cylinder_words_up_to, periodic_points
from gcms.words import (backward_words, enumerate_words, forced_extension, format_word,
                        generation_layers, is_admissible, iter_cycles, word)


def test_word_parsing():
    assert word("3.2.1") == (3, 2, 1)
    assert word("") == ()
    assert format_word((3, 2, 1)) == "3.2.1"
    assert format_word(()) == "e"


def test_admissibility(renewal):
    assert is_admissible(renewal, (3, 2, 1))
    assert is_admissible(renewal, (1, 3))       # first row is full
    assert not is_admissible(renewal, (2, 3))   # A(2,3) = 0
    assert is_admissible(renewal, ())
    assert is_admissible(renewal, (7,))


def test_entry_is_zero_or_one():
    # is_admissible reads entry's truth value as A(i, j) == 1
    stored = explicit([[int((i + 2 * j) % 3 != 0) for j in range(40)] for i in range(40)])
    for A in (*(by_kind(kind) for kind in sorted(KINDS)), stored, full_shift(3)):
        top = min(40, A.size or 40)
        assert {A.entry(i, j) for i in range(1, top + 1) for j in range(1, top + 1)} <= {0, 1}


def test_walk_rejects_a_listed_predecessor_that_is_no_transition(monkeypatch):
    # a renewal matrix whose column supports also list j + 2, where A(j + 2, j) = 0
    A = matrices.from_dict({"kind": "renewal"})   # a fresh instance, patched below
    monkeypatch.setattr(A, "_predecessors", lambda j: (1, j + 1, j + 2))
    one_line = r"^3 listed as a predecessor of 1, but A\(3, 1\) = 0$"
    with pytest.raises(ValueError, match=one_line):
        list(backward_words(A, 2, (1,)))
    with pytest.raises(ValueError, match=one_line):
        enumerate_words(A, 2, {1}, 10)
    # the closing edge of a cycle is an edge of the walk: 3 -> 1 is no transition
    with pytest.raises(ValueError, match=one_line):
        list(iter_cycles(A, 2, 1))
    with pytest.raises(ValueError, match=one_line):
        preimages(empty_stem_config(A, 1), 2)
    # the junction into a non-empty stem is an edge of the walk too
    with pytest.raises(ValueError, match=r"^4 listed as a predecessor of 2, but A\(4, 2\) = 0$"):
        preimages(bounded(A, (2, 1), 1), 1)


def test_periodic_points_reject_a_listed_predecessor_that_is_no_transition(monkeypatch):
    # the same variant: its first preperiod 3 before the fixed point 1 is no
    # transition, and the batch says so rather than leave the point out
    A = matrices.from_dict({"kind": "renewal"})
    monkeypatch.setattr(A, "_predecessors", lambda j: (1, j + 1, j + 2))
    with pytest.raises(ValueError,
                       match=r"^preperiod \+ period is not admissible: A\(3, 1\) = 0$"):
        periodic_points(A, 12)


@pytest.mark.parametrize("build, message", [
    (lambda A: UnboundedConfig(A, (2,), (3,)),
     r"^preperiod \+ period is not admissible: A\(2, 3\) = 0$"),
    (lambda A: UnboundedConfig(A, (), (3, 2)), r"^period does not close up: A\(2, 3\) = 0$"),
    (lambda A: bounded(A, (3, 2, 1, 3, 1), 1),
     r"^stem 3\.2\.1\.3\.1 is not admissible: A\(3, 1\) = 0$"),
    (lambda A: Subbasis(A, (1, 4, 2)), r"^word 1\.4\.2 is not admissible: A\(4, 2\) = 0$"),
])
def test_each_admissibility_refusal_names_its_first_missing_edge(renewal, build, message):
    with pytest.raises(ValueError, match=message):
        build(renewal)


def _full_periodic_walk(A):
    """Every point of the walk behind ``periodic_points``, walked to its end:
    each cycle of length <= 5 through a letter <= 3 on letters <= 6, then
    each letter <= 6 before it, the first of each distinct point kept."""
    out = {}
    for n in range(1, 6):
        for through in range(1, (3 if A.size is None else min(3, A.size)) + 1):
            for cyc in iter_cycles(A, n, through):
                if max(cyc) <= 6:
                    for pre in [()] + [(p,) for p in A.predecessors(cyc[0]) if p <= 6]:
                        c = UnboundedConfig(A, pre, cyc)
                        out.setdefault((c.preperiod, c.period), c)
    return list(out.values())


@pytest.mark.parametrize("A", [*(by_kind(k) for k in sorted(KINDS)), full_shift(2),
                               explicit([[1, 1], [1, 0]]),
                               explicit([[0, 1, 0], [0, 0, 1], [1, 0, 0]])], ids=repr)
def test_periodic_points_are_the_first_points_of_the_full_walk(A):
    full = _full_periodic_walk(A)
    for count in range(len(full) + 3):
        assert periodic_points(A, count) == full[:count]


def _per_edge_walk(A, n, seeds):
    """The walk as it was: ``entry`` asked at every edge it meets, each word
    of the last layer pushed and popped like any other suffix."""
    if n == 0:
        return [()]
    out = []
    stack = [((s,), 1) for s in sorted(seeds, reverse=True)]
    while stack:
        suffix, length = stack.pop()
        if length == n:
            out.append(suffix)
            continue
        first = suffix[0]
        for p in reversed(A.predecessors(first)):
            if A.entry(p, first) != 1:
                raise ValueError(
                    f"{p} listed as a predecessor of {first}, but A({p}, {first}) = 0")
            stack.append(((p,) + suffix, length + 1))
    return out


def _assert_walk_is_the_per_edge_walk(A, n, seeds, monkeypatch):
    # same words in the same order, with one entry call per distinct edge
    asked = []
    entry = A._entry
    monkeypatch.setattr(A, "_entry", lambda i, j: asked.append((i, j)) or entry(i, j))
    want = _per_edge_walk(A, n, seeds)
    edges = set(asked)
    asked.clear()
    got = list(backward_words(A, n, seeds))
    monkeypatch.undo()
    assert got == want, (n, seeds)
    assert len(asked) == len(set(asked)) and set(asked) == edges, (n, seeds)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_walk_is_the_per_edge_walk(kind, monkeypatch):
    A = matrices.from_dict({"kind": kind})   # a fresh instance, patched per walk
    # each root's terminal set, as preimages seeds its walk, and each letter alone
    terminal = [tuple(col.allowed_terminal_symbols) for col in A.accumulation_catalog]
    letters = {s for t in terminal for s in t} | set(range(1, 6))
    for n in range(13):
        for seeds in terminal + [(s,) for s in sorted(letters)]:
            _assert_walk_is_the_per_edge_walk(A, n, seeds, monkeypatch)


@given(stored_matrices(), st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_walk_is_the_per_edge_walk_on_stored_matrices(rows, n):
    with pytest.MonkeyPatch.context() as monkeypatch:
        A = explicit(rows)
        for seeds in [(s,) for s in range(1, len(rows) + 1)] + [range(1, len(rows) + 1)]:
            _assert_walk_is_the_per_edge_walk(A, n, seeds, monkeypatch)


def test_enumerate_words_basic(renewal):
    got = enumerate_words(renewal, 2, {1}, 10)
    assert got.words == [(1, 1), (2, 1)]
    assert got.dropped == 0
    assert len(enumerate_words(renewal, 3, {1}, 10).words) == 4
    assert enumerate_words(renewal, 0, set(), 5).words == [()]


@pytest.mark.parametrize("n", range(1, 15))
def test_renewal_word_counts(renewal, n):
    assert len(enumerate_words(renewal, n, {1}, n).words) == 2 ** (n - 1)


def test_enumerate_words_is_stable_and_duplicate_free(renewal, pair):
    for A in (renewal, pair):
        a = enumerate_words(A, 4, {1, 2}, 6)
        b = enumerate_words(A, 4, {1, 2}, 6)
        assert a.words == b.words
        assert a.words == sorted(a.words)
        assert len(set(a.words)) == len(a.words)
        assert all(is_admissible(A, w) for w in a.words)


def test_symbol_bound_truncates(renewal):
    full = enumerate_words(renewal, 5, {1}, 5)
    cut = enumerate_words(renewal, 5, {1}, 3)
    assert full.dropped == 0 and cut.dropped > 0
    assert cut.dropped == len(full.words) - len(cut.words)


def test_cylinder_word_memo_matches_a_fresh_enumeration():
    # one cache across the matrices and bounds, so each key must still be
    # told apart, and a caller's edits must not reach the kept words
    from gcms.verification import _cylinder_words
    cases = [(by_kind(kind), 4, 6) for kind in KINDS]
    cases += [(by_kind("renewal"), 6, 7), (by_kind("pair_renewal"), 6, 7),
              (explicit([[0, 1], [1, 0]]), 4, 2), (full_shift(3), 3, 3)]
    for A, max_len, sym_bound in cases:
        fresh = list(_cylinder_words.__wrapped__(A, max_len, sym_bound))
        got = cylinder_words_up_to(A, max_len, sym_bound)
        assert got == fresh and got, (A, max_len, sym_bound)
        assert all(is_admissible(A, w) for w in got)
        got[0] = (99,)
        got.append(())
        assert cylinder_words_up_to(A, max_len, sym_bound) == fresh
    assert len(cylinder_words_up_to(by_kind("pair_renewal"), 6, 7)) == 867


@pytest.mark.parametrize("n", range(1, 15))
def test_renewal_cycle_counts(renewal, n):
    got = list(iter_cycles(renewal, n, 1))
    assert len(got) == len(set(got)) == 2 ** (n - 1)
    # a return to 1 from the letter s takes exactly s steps
    assert max(max(w) for w in got) == n


def test_cycles_examples(renewal, pair):
    assert list(iter_cycles(renewal, 1, 1)) == [(1,)]
    assert len(list(iter_cycles(renewal, 3, 1))) == 4
    assert sorted(iter_cycles(pair, 2, 2)) == [(2, 1), (2, 2)]


def test_cycles_are_cycles(pair):
    for w in iter_cycles(pair, 4, 2):
        assert w[0] == 2
        assert is_admissible(pair, w)
        assert pair.entry(w[-1], w[0]) == 1


def _seed_walk_cycles(A, n, through, first_return=False):
    """The cycles as ``iter_cycles`` listed them before it walked back from
    ``through``: a walk seeded from the predecessors of ``through``, which
    never asks ``entry`` about the closing edge; with ``first_return`` the
    walk never visits ``through`` again."""
    if n == 1:
        return [(through,)] if A.entry(through, through) == 1 else []
    skip = {through} if first_return else set()
    stack = [((s,), 1) for s in sorted(A.predecessors(through), reverse=True) if s not in skip]
    out = []
    while stack:
        tail, length = stack.pop()
        if length == n - 1:
            if A.entry(through, tail[0]) == 1:
                out.append((through,) + tail)
            continue
        stack.extend(((p,) + tail, length + 1)
                     for p in reversed(A.predecessors(tail[0])) if p not in skip)
    return out


@pytest.mark.parametrize("name", [*sorted(KINDS), "explicit", "two_cycle", "full_shift"])
def test_cycles_are_the_seed_walk_cycles(name):
    # the one cycle rule lists the cycles of the seed walk, in the same order,
    # and filtering out inner returns gives its first-return cycles
    A = {"explicit": lambda: explicit([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
         "two_cycle": lambda: explicit([[0, 1], [1, 0]]),
         "full_shift": lambda: full_shift(3)}.get(name, lambda: by_kind(name))()
    for through in range(1, min(5, A.size or 5) + 1):
        for n in range(1, 10):
            cycles = list(iter_cycles(A, n, through))
            assert cycles == _seed_walk_cycles(A, n, through), (through, n)
            assert ([c for c in cycles if through not in c[1:]]
                    == _seed_walk_cycles(A, n, through, first_return=True)), (through, n)


def test_forced_extension(renewal, pair):
    assert forced_extension(renewal, (3,)) == (3, 2, 1)
    assert forced_extension(renewal, (1,)) == (1,)
    assert forced_extension(pair, (5,)) == (5, 4, 3, 2)
    assert forced_extension(pair, (2,)) == (2,)


def _walked_extension(A, w):
    # the letter walk: one row query per letter of the forced run, cut at
    # the first repeated letter; the oracle of the rule kinds' descent rule
    def successor(s):
        row = A.row(s)
        return min(row.symbols) if isinstance(row, ss.FiniteSet) and len(row.symbols) == 1 else None

    if not w:
        return w
    start = len(w) - 1
    while start > 0 and successor(w[start - 1]) is not None:
        start -= 1
    out = list(w[:start])
    run = set()
    for s in w[start:]:
        out.append(s)
        if s in run:
            return tuple(out)
        run.add(s)
    while (nxt := successor(out[-1])) is not None:
        out.append(nxt)
        if nxt in run:
            break
        run.add(nxt)
    return tuple(out)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rule_forced_runs_are_the_letter_walk(kind):
    A = by_kind(kind)
    # every letter s <= 5000: the walk from s is walked once, from the
    # highest letter of its run; a run repeats no letter, so the walk from
    # any later letter of it is the rest of the run
    walked = {}
    for s in range(5000, 0, -1):
        if s not in walked:
            run = _walked_extension(A, (s,))
            assert len(set(run)) == len(run), run[:5]
            walked.update((t, (run, i)) for i, t in enumerate(run))
        run, i = walked[s]
        assert forced_extension(A, (s,)) == run[i:], s
    # and the admissible words, whose own forced suffix the walk re-reads
    for w in cylinder_words_up_to(A, 3, 30):
        assert forced_extension(A, w) == _walked_extension(A, w), w


def test_long_forced_runs_make_no_letter_queries(monkeypatch):
    # the normal-form parts are read unchecked, and the forced run of a
    # letter comes from the kind's rule, not from one row query per letter
    A = matrices.from_dict({"kind": "renewal"})
    nu = ms.sarig_measure_renewal(A)
    image = shift_image(A, (3000,))
    assert image.atoms == (tuple(range(2999, 0, -1)),)
    calls = []
    for name in ("entry", "row", "predecessors"):
        monkeypatch.setattr(A, name, lambda *args, name=name: calls.append((name, args)))
    ms.measure_setexpr(nu, image)
    nu.base_value(3000)
    assert not calls


@pytest.mark.parametrize("rows, w, want", [
    ([[0, 1], [1, 0]], (1,), (1, 2, 1)),
    ([[0, 1], [1, 0]], (2, 1, 2), (2, 1, 2)),
    ([[1, 1, 0], [1, 1, 1], [0, 0, 1]], (3,), (3, 3)),
    ([[1, 1, 0], [1, 1, 1], [0, 0, 1]], (2, 3), (2, 3, 3)),
    ([[1, 1, 0], [1, 1, 1], [0, 0, 1]], (1,), (1,)),
    ([[0, 1], [1, 0]], (1, 2, 1, 2), (1, 2, 1)),
    ([[1, 1, 0], [1, 1, 1], [0, 0, 1]], (2, 3, 3, 3, 3), (2, 3, 3)),
])
def test_forced_extension_stops_on_a_forced_cycle(rows, w, want):
    # a forced run that repeats a letter has entered a cycle: the cylinder
    # is one periodic point, named by the run cut at its first repeated
    # letter, and extending again changes nothing
    A = explicit(rows)
    got = forced_extension(A, w)
    assert got == want
    assert forced_extension(A, got) == got


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_generation_layers_count_preimages(kind):
    # the enumerated preimage tree is the oracle: per first letter, for n <= 12
    A = by_kind(kind)
    for col in A.accumulation_catalog:
        layers = list(generation_layers(A, col.allowed_terminal_symbols, 12))
        assert len(layers) == 12
        for n, layer in enumerate(layers, 1):
            configs = preimages(empty_stem_config(A, col.id), n)
            assert sum(layer.values()) == len(configs), (col.id, n)
            assert layer == Counter(c.stem[0] for c in configs), (col.id, n)
            assert all(type(c) is int for c in layer.values())


def _per_layer_walk(A, seeds, n, weight):
    # the walk as it was: one column query per (layer, letter)
    layers = [{s: weight for s in sorted(seeds)}] if n >= 1 else []
    while len(layers) < n:
        nxt = {}
        for sym, x in layers[-1].items():
            x *= weight
            for p in A.predecessors(sym):
                nxt[p] = nxt.get(p, 0) + x
        layers.append(nxt)
    return layers


@pytest.mark.parametrize("weight", [1, 0.3])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_generation_layers_read_each_column_once(kind, weight, monkeypatch):
    A = matrices.from_dict({"kind": kind})
    for col in A.accumulation_catalog:
        want = _per_layer_walk(A, col.allowed_terminal_symbols, 40, weight)
        asked = []
        column = matrices.TransitionMatrix.predecessors
        monkeypatch.setattr(A, "predecessors", lambda j: asked.append(j) or column(A, j))
        got = list(generation_layers(A, col.allowed_terminal_symbols, 40, weight))
        monkeypatch.undo()
        # same keys in the same order, same sums bit for bit
        assert [list(layer.items()) for layer in got] == [list(layer.items()) for layer in want]
        assert len(asked) == len(set(asked)) == len(set().union(*got[:-1]))


def test_generation_layers_are_built_when_asked_for(prime, monkeypatch):
    # a caller that stops after layer k has read no column of its letters
    asked = []
    column = matrices.TransitionMatrix.predecessors
    monkeypatch.setattr(prime, "predecessors", lambda j: asked.append(j) or column(prime, j))
    walk = generation_layers(prime, {1, 3}, 50)
    assert next(walk) == {1: 1, 3: 1} and asked == []
    assert next(walk) == {1: 2, 2: 1, 3: 1, 4: 1} and asked == [1, 3]


def test_generation_layers_weighted(pair, prime):
    u = 0.37
    for A, seeds in ((pair, {1, 2}), (prime, {1, 3})):
        for n, layer in enumerate(generation_layers(A, seeds, 9, weight=u), 1):
            want: dict[int, float] = {}
            for w in backward_words(A, n, seeds):
                want[w[0]] = want.get(w[0], 0.0) + u ** len(w)
            assert layer.keys() == want.keys()
            assert all(layer[f] == pytest.approx(want[f], rel=1e-13) for f in want)
    assert list(generation_layers(pair, {1}, 0)) == []
