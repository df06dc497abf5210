"""Poisson problems on incomplete-octree meshes.

Supports both strong (nodal) Dirichlet conditions — the "naive"
first-order treatment of the voxelated boundary — and the Shifted
Boundary Method (:mod:`repro.fem.sbm`) that restores optimal
convergence (Fig. 6 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..core.assembly import assemble
from ..core.matvec import MapBasedMatVec
from ..core.mesh import IncompleteMesh
from ..core.plan import operator_context
from ..solvers import SBM_SPLU
from ..solvers.krylov import cg
from ..solvers.precond import jacobi

__all__ = ["PoissonProblem", "load_vector", "l2_error", "linf_error", "quad_points"]


def quad_points(mesh: IncompleteMesh, nquad: int | None = None):
    """Physical quadrature points and weights over all elements.

    Returns ``(x, w, ref)`` with ``x`` of shape ``(n_elem, nq, dim)``
    and ``w`` of shape ``(n_elem, nq)`` (already scaled by h^dim).
    """
    ctx = operator_context(mesh)
    ref = ctx.ref(nquad)
    h = ctx.h
    lo, _ = mesh.leaves.physical_bounds(mesh.domain.scale)
    x = lo[:, None, :] + ref.qpts[None, :, :] * h[:, None, None]
    w = ref.qwts[None, :] * (h**mesh.dim)[:, None]
    return x, w, ref


def load_vector(mesh: IncompleteMesh, f: Callable | float, nquad=None) -> np.ndarray:
    """Consistent load vector b_i = ∫ f φ_i over the retained domain."""
    x, w, ref = quad_points(mesh, nquad)
    fv = np.full(x.shape[:2], float(f)) if np.isscalar(f) else f(
        x.reshape(-1, mesh.dim)
    ).reshape(x.shape[:2])
    b_loc = np.einsum("eq,qi,eq->ei", fv, ref.N, w)
    return operator_context(mesh).scatter @ b_loc.reshape(-1)


def l2_error(mesh: IncompleteMesh, u_h: np.ndarray, exact: Callable, nquad=None) -> float:
    """‖u_h − u‖_L2 over the retained (voxelated) domain."""
    x, w, ref = quad_points(mesh, nquad or mesh.p + 2)
    u_loc = (operator_context(mesh).gather @ u_h).reshape(mesh.n_elem, mesh.npe)
    uh_q = u_loc @ ref.N.T
    ue_q = exact(x.reshape(-1, mesh.dim)).reshape(uh_q.shape)
    return float(np.sqrt(np.sum(w * (uh_q - ue_q) ** 2)))


def linf_error(mesh: IncompleteMesh, u_h: np.ndarray, exact: Callable) -> float:
    """max-norm error sampled at the global nodes."""
    pts = mesh.node_coords()
    return float(np.max(np.abs(u_h - exact(pts))))


@dataclass
class PoissonProblem:
    """−Δu = f on the retained subdomain with Dirichlet data.

    ``dirichlet`` is the boundary data g; with ``method='nodal'`` it is
    imposed strongly at every node of :attr:`IncompleteMesh.dirichlet_mask`
    (the voxelated boundary — first-order accurate); with
    ``method='sbm'`` the Shifted Boundary Method weak terms are added on
    the surrogate boundary faces instead (second order).
    """

    mesh: IncompleteMesh
    f: Callable | float = 0.0
    dirichlet: Callable | float = 0.0
    method: str = "nodal"
    # penalty: large enough for stability yet gentle on cells touching
    # the boundary only at a corner (where |d| approaches the cell
    # diagonal); 2.0 gives clean optimal rates for p=1 and p=2
    sbm_alpha: float = 2.0

    def _g_at(self, pts: np.ndarray) -> np.ndarray:
        if np.isscalar(self.dirichlet):
            return np.full(len(pts), float(self.dirichlet))
        return self.dirichlet(pts)

    def system(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Assembled system (A, b, fixed_mask) before elimination."""
        A = assemble(self.mesh, kind="stiffness")
        b = load_vector(self.mesh, self.f)
        if self.method == "nodal":
            fixed = self.mesh.dirichlet_mask.copy()
        elif self.method == "sbm":
            from .sbm import sbm_terms

            A_s, b_s = sbm_terms(self.mesh, self._g_at, alpha=self.sbm_alpha)
            A = (A + A_s).tocsr()
            b = b + b_s
            # only the true cube boundary stays strongly imposed
            fixed = self.mesh.nodes.domain_boundary & ~self.mesh.nodes.carved_node
        else:
            raise ValueError(f"unknown method {self.method!r}")
        return A, b, fixed

    def solve(
        self,
        rtol: float = 1e-10,
        solver: str = "auto",
        x0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the problem.

        ``solver``: ``"auto"`` (direct for SBM, CG otherwise),
        ``"direct"``, ``"cg"`` (assembled + Jacobi-CG), or
        ``"matrix-free"`` — never assembles the global matrix: the
        operator action is the gather → elemental kernel → scatter
        MATVEC with boundary rows folded in, exactly the workflow the
        paper's traversal MATVEC enables.

        ``x0`` (length ``n_nodes``) warm-starts the CG iteration — the
        AMR loop passes the previous mesh's solution transferred to the
        current mesh, cutting iteration counts on later cycles.  Ignored
        by the direct solver.
        """
        if solver == "matrix-free":
            return self._solve_matrix_free(rtol)
        A, b, fixed = self.system()
        n = self.mesh.n_nodes
        u = np.zeros(n)
        if fixed.any():
            u[fixed] = self._g_at(self.mesh.node_coords()[fixed])
        free = np.flatnonzero(~fixed)
        if len(free) == 0:
            return u
        Aff = A[np.ix_(free, free)].tocsr()
        rhs = b[free] - A[np.ix_(free, np.flatnonzero(fixed))] @ u[fixed]
        if solver == "direct" or (solver == "auto" and self.method == "sbm"):
            import scipy.sparse.linalg as spla

            u[free] = spla.splu(Aff.tocsc(), **SBM_SPLU).solve(rhs)
        else:
            start = None if x0 is None else np.asarray(x0, float)[free]
            res = cg(
                Aff,
                rhs,
                x0=start,
                M=jacobi(Aff),
                rtol=rtol,
                maxiter=20 * len(free),
            )
            if not res.converged:
                raise RuntimeError(
                    f"CG failed to converge: residual {res.residual:.3e}"
                )
            u[free] = res.x
        return u

    def _solve_matrix_free(self, rtol: float) -> np.ndarray:
        """Matrix-free CG: no global matrix is ever formed."""
        if self.method != "nodal":
            raise ValueError("matrix-free solve supports the nodal method")
        mesh = self.mesh
        fixed = mesh.dirichlet_mask
        free = ~fixed
        mv = MapBasedMatVec(mesh, kind="stiffness")
        u_fix = np.where(fixed, self._g_at(mesh.node_coords()), 0.0)
        b = load_vector(mesh, self.f) - mv(u_fix)
        b = np.where(free, b, 0.0)

        def op(v):
            w = mv(np.where(free, v, 0.0))
            return np.where(free, w, v)

        # Jacobi preconditioner from the elemental diagonal, gathered
        # without assembly: diag(A) = gatherT diag(blocks) over slots
        ctx = operator_context(mesh)
        ref = ctx.ref()
        h = ctx.h
        dloc = (
            np.diag(ref.K_ref)[None, :] * (h ** (mesh.dim - 2))[:, None]
        ).reshape(-1)
        g = ctx.gather
        diag = g.T.multiply(g.T) @ dloc  # sum of w_ig^2 * K_ii per node
        diag = np.asarray(diag).ravel()
        diag = np.where(free & (diag > 0), diag, 1.0)
        M = lambda r: r / diag
        res = cg(op, b, M=M, rtol=rtol, maxiter=20 * mesh.n_nodes)
        if not res.converged:
            raise RuntimeError(
                f"matrix-free CG failed: residual {res.residual:.3e}"
            )
        return np.where(free, res.x, u_fix)

    def matrix_free_operator(self) -> MapBasedMatVec:
        """The unconstrained stiffness action (for scaling studies)."""
        return MapBasedMatVec(self.mesh, kind="stiffness")
