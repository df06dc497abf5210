"""Reference solves for the correctness check.

The served solution of a watched request is compared against a solve
the benchmark does itself: the request's mesh is rebuilt, the system is
assembled with ``repro.core.assembly.assemble`` (plus the SBM boundary
terms for ``sbm``) and solved with a sparse direct factorization.  Two
bounds, both derived from the request ``tol``:

* **residual** — the served solution must satisfy the reference system
  to the solver's own contract, ``||b - A u|| <= tol * ||b||`` (CG stops
  on exactly this unpreconditioned relative residual; a direct solve is
  far inside it).  The slack only absorbs rounding.
* **error** — ``||u - u_ref|| / ||u_ref|| <= kappa * tol``: a residual of
  relative size tol can move the solution by at most the condition
  number times tol.  ``kappa`` is the 1-norm condition estimate of the
  reference matrix (``onenormest`` on the reference factorization),
  taken times ``KAPPA_SLACK`` because it is an estimate.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

RESIDUAL_SLACK = 1.01
RESIDUAL_FLOOR = 1e-12
KAPPA_SLACK = 10.0
#: the SBM penalty the serving layer uses (repro.serve.batcher._SbmFactor)
SBM_ALPHA = 2.0


class ReferenceSystem:
    """One discretization's reference operator for one PDE kind."""

    def __init__(self, mesh, pde: str):
        from repro.core.assembly import assemble
        from repro.fem.poisson import load_vector
        from repro.fem.sbm import sbm_terms

        A = assemble(mesh, kind="stiffness")
        self.b_unit = load_vector(mesh, 1.0)
        self.bs_unit = np.zeros_like(self.b_unit)
        if pde == "poisson":
            fixed = mesh.dirichlet_mask
        elif pde == "sbm":
            A_s, self.bs_unit = sbm_terms(
                mesh, lambda pts: np.ones(len(pts)), alpha=SBM_ALPHA)
            A = (A + A_s).tocsr()
            fixed = mesh.nodes.domain_boundary & ~mesh.nodes.carved_node
        else:
            raise ValueError(f"no reference solve for pde={pde!r}")
        self.fixed = np.asarray(fixed)
        self.free = np.flatnonzero(~self.fixed)
        A = A.tocsr()
        self.Aff = A[self.free][:, self.free].tocsc()
        self.lift = np.asarray(
            A[self.free][:, np.flatnonzero(self.fixed)]
            @ np.ones(int(self.fixed.sum()))).ravel()
        self.lu = spla.splu(self.Aff)
        n = self.Aff.shape[0]
        inv = spla.LinearOperator(
            (n, n), matvec=self.lu.solve,
            rmatvec=lambda x: self.lu.solve(x, trans="T"), dtype=float)
        self.kappa = float(spla.onenormest(self.Aff) * spla.onenormest(inv))

    def rhs(self, f: float, g: float) -> np.ndarray:
        b = f * self.b_unit + g * self.bs_unit
        return b[self.free] - g * self.lift

    def solve(self, f: float, g: float) -> np.ndarray:
        u = np.full(len(self.fixed), float(g))
        u[self.free] = self.lu.solve(self.rhs(f, g))
        return u


def compare(ref: ReferenceSystem, request, served: np.ndarray) -> dict:
    """Check one served solution; returns the measured quantities and
    ``ok``."""
    b = ref.rhs(request.f, request.g)
    u_ref = ref.solve(request.f, request.g)
    served = np.asarray(served, dtype=float)
    finite = bool(np.all(np.isfinite(served))) and served.shape == u_ref.shape
    if not finite:
        return {"ok": False, "reason": "non-finite or misshapen solution"}
    res = float(np.linalg.norm(b - ref.Aff @ served[ref.free])
                / max(np.linalg.norm(b), 1e-300))
    err = float(np.linalg.norm(served - u_ref)
                / max(np.linalg.norm(u_ref), 1e-300))
    res_bound = RESIDUAL_SLACK * request.tol + RESIDUAL_FLOOR
    err_bound = KAPPA_SLACK * ref.kappa * request.tol
    fixed_ok = bool(np.all(served[ref.fixed] == request.g))
    ok = res <= res_bound and err <= err_bound and fixed_ok
    return {"ok": ok, "pde": request.pde, "geometry": request.geometry,
            "f": request.f, "g": request.g, "rel_residual": res,
            "residual_bound": res_bound, "rel_error": err,
            "error_bound": err_bound, "kappa_est": ref.kappa,
            "boundary_exact": fixed_ok}


def check_watched(capture) -> list[dict]:
    """Compare every watched request's captured solution with its
    reference (one reference system per mesh and PDE kind)."""
    refs: dict[tuple, ReferenceSystem] = {}
    results = []
    for rid, req in capture.watch.items():
        served = capture.solutions.get(rid)
        if served is None:
            results.append({"ok": False, "pde": req.pde,
                            "geometry": req.geometry,
                            "reason": "watched request was never solved"})
            continue
        key = (req.mesh_digest, req.pde)
        if key not in refs:
            refs[key] = ReferenceSystem(req.build_mesh(), req.pde)
        results.append(compare(refs[key], req, served))
    return results
