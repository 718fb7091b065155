import numpy as np
import pytest
from hypothesis import settings

from maphom import coefficients

# property tests draw the same examples on every run and keep no example
# database, so a run's outcome depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def sine_coeff():
    return coefficients.sine_product()


@pytest.fixture(scope="session")
def laminate_coeff():
    return coefficients.laminate()


@pytest.fixture(scope="session")
def identity_coeff():
    return coefficients.identity()


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
