import pytest

from gcms import cylinders, matrices
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
    each remembers of ``member`` (``SetExpr._held``): a test that patches
    the membership rule builds its own normal forms.
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
