"""Each rule kind, and drawn residue kinds, against their own finite
truncations, stored as tables.

A rule kind answers ``entry``, ``predecessors`` and ``descent_stop`` from
its rules; the truncation ``explicit([[A.entry(i, j) for j <= N] for i <=
N])`` answers them from a table, through the stored kind's separate code
path.  Every question that touches only letters <= N must get the same
answer from both (Gurevich 1969: the pressure of a countable chain is the
limit over its finite truncations).
"""

import pytest
from hypothesis import given, settings

from conftest import check_renewal_equation, residue_kinds, residue_matrix
from gcms.configs import UnboundedConfig, bounded
from gcms.matrices import by_kind, explicit
from gcms.thermo import LOG_POTENTIAL, UNIT_POTENTIAL, pointwise_z, z_n, z_n_star, z_series
from gcms.words import backward_words, iter_cycles

N = 40
KINDS = ("renewal", "pair_renewal", "prime_renewal", "alternating_renewal")
# (stem, root id, period) per kind: the stem ends in a terminal letter of
# the root and may go on to the period, a cycle, so it begins both a
# boundary point of the kind and an eventually periodic point of either
POINTS = {"renewal": [((3, 2, 1), 1, (1,)), ((1, 5, 4, 3, 2, 1), 1, (2, 1))],
          "pair_renewal": [((4, 3, 2), 1, (2,)), ((2, 4, 3, 2, 1), 2, (1,))],
          "prime_renewal": [((4, 3, 2, 1), 1, (1,)), ((3, 9, 8, 7), 7, (7,)),
                            ((2, 8, 7, 6, 5), 5, (4, 3, 2))],
          "alternating_renewal": [((3, 2, 1), 1, (2, 1)), ((1, 4, 3, 2), 2, (1, 2))]}
POTENTIALS = [(UNIT_POTENTIAL, 0.7), (LOG_POTENTIAL, 1.3)]


def _table(A):
    letters = range(1, N + 1)
    return explicit([[A.entry(i, j) for j in letters] for i in letters])


@pytest.fixture(scope="module", params=KINDS)
def kind_and_table(request):
    A = by_kind(request.param)
    return A, _table(A)


def _check_partition_functions(A, T, potential, beta):
    # a predecessor of j is at most j + 1 or a drawn irregular row (<= 7),
    # so a cycle of length n <= 12 through 1 stays below 8 + n, far below N;
    # the one-walk series of either matrix is the per-n values, and the
    # table's series obey the renewal equation
    for first_return, z in ((False, z_n), (True, z_n_star)):
        series = [z_series(M, potential, beta, 1, 12, first_return) for M in (A, T)]
        for n in range(1, 13):
            want = z(A, potential, beta, 1, n)
            assert z(T, potential, beta, 1, n) == want, n
            assert [s[n - 1] for s in series] == [want, want], n
    check_renewal_equation(T, potential, beta, 1, 12)


def _check_words_and_cycles(A, T):
    # read backward, a word climbs at most one letter per step or jumps to
    # a drawn irregular row (<= 7), so the words of length n <= 10 that end
    # in a letter <= 3 stay below 8 + n, far below N
    for n in range(1, 11):
        words = set(backward_words(A, n, (1, 2, 3)))
        assert max(map(max, words)) <= N, n
        assert words == set(backward_words(T, n, (1, 2, 3))), n
        for base in (1, 2, 3):
            assert set(iter_cycles(A, n, base)) == set(iter_cycles(T, n, base)), (n, base)


def _check_predecessors(A, T):
    for j in range(1, N + 1):
        assert tuple(i for i in A.predecessors(j) if i <= N) == T.predecessors(j), j


def _check_descent_stops(A, T):
    # a letter whose row is the one letter below it does not branch, so the
    # descent from s walks down to the first letter whose row branches
    rows = {i: [j for j in range(1, N + 1) if T.entry(i, j)] for i in range(1, N + 1)}
    for s in range(1, N + 1):
        stop = s
        while stop > 1 and rows[stop] == [stop - 1]:
            stop -= 1
        assert A.spec.descent_stop(s) == stop, s


@pytest.mark.parametrize("potential, beta", POTENTIALS, ids=["unit", "log"])
def test_partition_functions_match_the_truncation(kind_and_table, potential, beta):
    _check_partition_functions(*kind_and_table, potential, beta)


def test_words_and_cycles_match_the_truncation(kind_and_table):
    _check_words_and_cycles(*kind_and_table)


def test_pointwise_partition_functions_match_the_truncation(kind_and_table):
    # the truncation has no boundary, so a stemmed point of the kind is set
    # beside the truncation's eventually periodic point with the same stem
    A, T = kind_and_table
    for stem, root, period in POINTS[A.kind]:
        points = bounded(A, stem, root), UnboundedConfig(A, stem, period)
        periodic = UnboundedConfig(T, stem, period)
        for n in range(1, 11):
            assert max(map(max, backward_words(A, n, A.predecessors(stem[0])))) <= N, n
            for F, beta in POTENTIALS:
                want = pointwise_z(T, F, beta, periodic, n)
                assert all(pointwise_z(A, F, beta, x, n) == want for x in points), (stem, n)


def test_predecessors_are_the_table_columns(kind_and_table):
    _check_predecessors(*kind_and_table)


def test_descent_stops_are_read_off_the_table_rows(kind_and_table):
    _check_descent_stops(*kind_and_table)


@given(residue_kinds())
@settings(max_examples=12, deadline=None)
def test_drawn_residue_kinds_match_their_truncations(description):
    with residue_matrix(*description) as A:
        T = _table(A)
        for potential, beta in POTENTIALS:
            _check_partition_functions(A, T, potential, beta)
        _check_words_and_cycles(A, T)
        _check_predecessors(A, T)
        _check_descent_stops(A, T)
