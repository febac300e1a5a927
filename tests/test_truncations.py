"""Each rule kind against its own finite truncation, stored as a table.

A rule kind answers ``entry``, ``predecessors`` and ``descent_stop`` from
its rules; the truncation ``explicit([[A.entry(i, j) for j <= N] for i <=
N])`` answers them from a table, through the stored kind's separate code
path.  Every question that touches only letters <= N must get the same
answer from both (Gurevich 1969: the pressure of a countable chain is the
limit over its finite truncations).
"""

import pytest

from gcms.matrices import by_kind, explicit
from gcms.thermo import LOG_POTENTIAL, UNIT_POTENTIAL, z_n, z_n_star

N = 40
KINDS = ("renewal", "pair_renewal", "prime_renewal", "alternating_renewal")


@pytest.fixture(scope="module", params=KINDS)
def kind_and_table(request):
    A = by_kind(request.param)
    letters = range(1, N + 1)
    return A, explicit([[A.entry(i, j) for j in letters] for i in letters])


@pytest.mark.parametrize("potential, beta", [(UNIT_POTENTIAL, 0.7), (LOG_POTENTIAL, 1.3)],
                         ids=["unit", "log"])
def test_partition_functions_match_the_truncation(kind_and_table, potential, beta):
    # a cycle of length n <= 12 through 1 climbs at most to letter n + 1
    # before it descends, far below N
    A, T = kind_and_table
    for n in range(1, 13):
        assert z_n(A, potential, beta, 1, n) == z_n(T, potential, beta, 1, n), n
        assert z_n_star(A, potential, beta, 1, n) == z_n_star(T, potential, beta, 1, n), n


def test_predecessors_are_the_table_columns(kind_and_table):
    A, T = kind_and_table
    for j in range(1, N + 1):
        assert tuple(i for i in A.predecessors(j) if i <= N) == T.predecessors(j), j


def test_descent_stops_are_read_off_the_table_rows(kind_and_table):
    # a letter whose row is the one letter below it does not branch, so the
    # descent from s walks down to the first letter whose row branches
    A, T = kind_and_table
    rows = {i: [j for j in range(1, N + 1) if T.entry(i, j)] for i in range(1, N + 1)}
    for s in range(1, N + 1):
        stop = s
        while stop > 1 and rows[stop] == [stop - 1]:
            stop -= 1
        assert A.spec.descent_stop(s) == stop, s
