import numpy as np
import pytest

from recycg import SparseSpdMatrix


def random_spd(n, rng, condition=100.0):
    """Dense random SPD matrix with prescribed condition number."""
    lam = np.geomspace(1.0, condition, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def random_spd_matrix(n, rng, condition=100.0):
    """SparseSpdMatrix wrapper around :func:`random_spd`."""
    return SparseSpdMatrix.from_dense(random_spd(n, rng, condition),
                                      keep_zeros=True)


def residual_history(A, b, x0, trace):
    """Residuals r_0 .. r_{m-1} of a reorthogonalized solve from ``x0``, as
    columns, rebuilt with the solver's recurrence r_{j+1} = r_j - alpha_j A w_j
    over the trace's search directions."""
    r = b - A @ x0
    R = []
    for alpha, w in zip(trace.alphas, trace.directions):
        R.append(r)
        r = r - alpha * (A @ w)
    return np.column_stack(R)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(1234))
