import numpy as np
import pytest
from hypothesis import settings

from recycg import (ContractViolation, EigDecomposition, Preconditioner, SolveConfig,
                    SparseSpdMatrix, apcg_solve, benchmark_spec, build_deflation,
                    generate_diffusion_sequence)

# the property tests draw the same examples on every run, so a failure
# reproduces and the suite does not flake
settings.register_profile("recycg", derandomize=True)
settings.load_profile("recycg")


def random_spd(n, rng, condition=100.0):
    """Dense random SPD matrix with prescribed condition number."""
    lam = np.geomspace(1.0, condition, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def random_spd_matrix(n, rng, condition=100.0):
    """SparseSpdMatrix wrapper around :func:`random_spd`."""
    return SparseSpdMatrix.from_dense(random_spd(n, rng, condition))


def dense_sym_eig(G):
    """The brute-force oracle: the eigendecomposition of a dense symmetric
    matrix (symmetrized first) by ``numpy.linalg.eigh``, sorted descending."""
    G = np.asarray(G, dtype=np.float64)
    values, vectors = np.linalg.eigh(0.5 * (G + G.T))
    order = np.argsort(values)[::-1]
    return EigDecomposition(values[order], vectors[:, order])


def tridiag_dense(T):
    """The dense array of the TridiagSym ``T``."""
    dense = np.diag(T.diag)
    idx = np.arange(T.m - 1)
    dense[idx, idx + 1] = T.offdiag
    dense[idx + 1, idx] = T.offdiag
    return dense


def generate_prescribed_spectrum(eigenvalues, seed=0):
    """A = Q diag(eigenvalues) Q^T with a seeded random orthogonal Q: a dense
    oracle with an exactly known spectrum, so n is limited to 500."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or len(lam) == 0 or not np.all(lam > 0.0):
        raise ContractViolation("eigenvalues must be a nonempty list of positive values")
    n = len(lam)
    if n > 500:
        raise ContractViolation("dense-pattern generation limited to n <= 500")
    rng = np.random.Generator(np.random.Philox(seed))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SparseSpdMatrix.from_dense((Q * lam) @ Q.T)


def residual_history(A, b, x0, trace):
    """Residuals r_0 .. r_{m-1} of a solve from ``x0`` that stored its
    directions, as columns, rebuilt with the solver's recurrence
    r_{j+1} = r_j - alpha_j A w_j over the trace's search directions."""
    r = b - A @ x0
    R = []
    for alpha, w in zip(trace.alphas, trace.directions):
        R.append(r)
        r = r - alpha * (A @ w)
    return np.column_stack(R)


def preconditioned_residuals(A, b, M, D, trace):
    """The exact z_j = P M^{-1} r_j of a solve that stored its directions,
    with preconditioner ``M`` and deflation operator ``D``, as columns,
    computed as the solver computes them from :func:`residual_history`."""
    R = residual_history(A, b, D.initial_guess(b), trace)
    return np.column_stack([D.project(M.apply(r)) for r in np.ascontiguousarray(R.T)])


def benchmark_solve(store="swept"):
    """``(A, b, M, D, trace)`` of a plain Jacobi-preconditioned solve with
    direction store ``store`` at tol 1e-6 of the first system of the 16x16
    benchmark sequence."""
    (A, b), = generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 1)
    M = Preconditioner.jacobi(A)
    D = build_deflation(A, np.zeros((A.n, 0)))
    _, trace = apcg_solve(A, M, D, b, SolveConfig(tol=1e-6, max_iters=500, store=store))
    return A, b, M, D, trace


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(1234))
