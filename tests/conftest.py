import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from maphom import coefficients
from maphom.numerics import GAUSS_WEIGHTS, q1_tables

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


@pytest.fixture(scope="session")
def coo_stiffness():
    """Reference Q1 assembly over all nodes of a grid, by COO triplets.

    Returns ``stiffness(grid, D)`` for an (n_elements, nq, 2, 2)
    coefficient array at the Gauss points, or
    ``stiffness(grid, Ke=...)`` for given (n_elements, 4, 4) element
    matrices; duplicates are summed by scipy.
    """

    def stiffness(grid, D=None, Ke=None):
        if Ke is None:
            G = q1_tables()[1] / np.array([grid.hx, grid.hy])
            Ke = np.einsum("qai,eqik,qbk,q->eab", G, D, G, GAUSS_WEIGHTS)
            Ke = Ke * grid.hx * grid.hy
        conn = grid.connectivity
        rows = np.repeat(conn, 4, axis=1).ravel()
        cols = np.tile(conn, (1, 4)).ravel()
        n = grid.n_nodes
        return sp.coo_matrix((np.ravel(Ke), (rows, cols)), shape=(n, n)).tocsr()

    return stiffness
