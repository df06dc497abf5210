"""Linear/nonlinear solver substrate (the PETSc-equivalent layer)."""

from types import MappingProxyType

from .condest import cond_dense, cond_spd_extremes, condest_1norm
from .krylov import KrylovResult, bicgstab, cg
from .multigrid import MultigridPoisson, prolongation
from .newton import NewtonResult, newton_ls
from .precond import BlockJacobi, JacobiPreconditioner, jacobi

#: ``scipy.sparse.linalg.splu`` keywords for every SBM (and direct
#: Poisson) factorization.  The SBM matrix is the SPD stiffness matrix
#: plus a small unsymmetric boundary term, so SuperLU runs in symmetric
#: mode: minimum degree on Aᵀ+A, diagonal pivots kept unless smaller
#: than 0.1 of the column maximum.  On levels-4/7 spheres this factors
#: ~1.8x faster and cuts fill from 18x to 12x against the COLAMD default
#: (``benchmarks/bench_sbm_factor.py``); ``diag_pivot_thresh=0`` is
#: faster still but loses three digits of residual.
SBM_SPLU = MappingProxyType({
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.1,
    "options": MappingProxyType({"SymmetricMode": True}),
})

__all__ = [
    "SBM_SPLU",
    "cg",
    "bicgstab",
    "KrylovResult",
    "jacobi",
    "JacobiPreconditioner",
    "BlockJacobi",
    "newton_ls",
    "MultigridPoisson",
    "prolongation",
    "NewtonResult",
    "cond_dense",
    "condest_1norm",
    "cond_spd_extremes",
]
