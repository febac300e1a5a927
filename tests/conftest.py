import pytest

from gcms import matrices
from gcms import measures as ms


@pytest.fixture(autouse=True)
def fresh_shift_images():
    """Each test builds its own shift images: the memo is module-level state,
    and a test that patches the cylinder algebra must not read an image an
    earlier test built."""
    ms.shift_image_of_cylinder.cache_clear()


@pytest.fixture(scope="session")
def renewal():
    return matrices.renewal()


@pytest.fixture(scope="session")
def pair():
    return matrices.pair_renewal()


@pytest.fixture(scope="session")
def prime():
    return matrices.prime_renewal()


@pytest.fixture(scope="session")
def alternating():
    return matrices.alternating_renewal()
