"""Deflated conjugate gradient solvers with Krylov subspace recycling."""

from .core import (ContractViolation, EigDecomposition, NumericalFailure,
                   RankDeficient, SparseSpdMatrix, TridiagSym, dense_cholesky,
                   tridiag_eig)
from .solver import (DeflationOperator, Preconditioner, SolveConfig,
                     SolveTrace, apcg_solve, build_deflation)
from .ritz import (LanczosView, RatePrediction, RitzSpectrum, cluster_filter,
                   lanczos_from_trace, lanczos_tridiag, predict_iterations,
                   ritz_pairs, select_converged)
from .recycle import (AugmentationState, RecycleStrategy, Recycler,
                      SequenceReport, run_sequence, subspace_overlap,
                      update_basis_srks, update_basis_trks)
from .problems import (InclusionGridSpec, benchmark_spec, generate_diffusion_sequence,
                       read_matrix_market, write_matrix_market)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
