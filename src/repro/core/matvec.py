"""Matrix-free MATVEC on incomplete octrees (§3.5).

Two implementations, verified against each other:

* :class:`MapBasedMatVec` — the conventional element-to-node-map
  approach the paper argues against: gather local vectors through the
  (sparse) element-to-node interpolation map, apply batched elemental
  kernels, scatter-add back.  In numpy this is the *fast* path (sparse
  gather + one dense matmul), so it serves as the production operator.

* :func:`traversal_matvec` — the paper's traversal-based algorithm:
  a top-down pass buckets nodal values to child subtrees (duplicating
  nodes incident on several children) until each leaf holds its
  elemental nodes contiguously; hanging slots are interpolated from the
  coarser-level nodes present in the leaf's bucket (delivered by the
  same top-down pass); after the elemental apply, a bottom-up pass
  accumulates duplicated node instances back to a single value.  The
  traversal gracefully handles incomplete trees because its path is
  restricted to the existing octants.  When tracing is on (see
  :mod:`repro.obs`), merge spans ``matvec.top_down`` / ``matvec.leaf``
  / ``matvec.bottom_up`` accumulate the phase breakdown used in the
  scaling figures.

Both obtain their per-mesh artifacts — gather/scatter CSR, element
sizes, the flattened traversal slot table — from the shared
:class:`repro.core.plan.OperatorContext`, so repeated operator
construction on the same mesh re-derives nothing.  The traversal leaf
phase is vectorized: maximal SFC-contiguous blocks of elements with
identity slot rows (no hanging slots — the common case away from level
transitions) are applied as one batched matmul instead of per-element
Python calls.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..obs import span
from .mesh import IncompleteMesh
from .octant import max_level
from .plan import OperatorContext, TraversalPlan, operator_context

__all__ = ["MapBasedMatVec", "traversal_matvec", "TraversalPlan"]


class MapBasedMatVec:
    """Element-to-node-map matrix-free operator for a scalar PDE term.

    ``kind`` selects the elemental kernel: ``"stiffness"`` (Poisson),
    ``"mass"``, or a callable ``f(u_loc, h) -> w_loc`` for custom
    operators (e.g. the Navier–Stokes blocks).
    """

    def __init__(
        self,
        mesh: IncompleteMesh,
        kind="stiffness",
        nquad=None,
        ctx: OperatorContext | None = None,
    ):
        self.mesh = mesh
        self.ctx = ctx if ctx is not None else operator_context(mesh)
        self.ref = self.ctx.ref(nquad)
        self.h = self.ctx.h
        if callable(kind):
            self._apply_loc = kind
        elif kind == "stiffness":
            self._apply_loc = lambda u, h: self.ref.apply_stiffness(u, h)
        elif kind == "mass":
            self._apply_loc = lambda u, h: self.ref.apply_mass(u, h)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self._gather = self.ctx.gather
        self._scatter = self.ctx.scatter
        # FLOPs of the path as executed: CSR gather (2·nnz) + batched
        # dense elemental apply + CSR scatter (2·nnz) — not the
        # historical per-element-only count, so roofline attribution
        # matches the identity-block batched code that actually runs
        self._flops = (
            4 * self._gather.nnz
            + mesh.n_elem * self.ref.matvec_flops_per_element()
        )

    def __call__(self, u: np.ndarray) -> np.ndarray:
        npe = self.mesh.npe
        with span("matvec.apply", merge=True) as sp:
            u_loc = kernels.gather(self._gather, u).reshape(
                self.mesh.n_elem, npe
            )
            w_loc = self._apply_loc(u_loc, self.h)
            out = kernels.scatter(self._scatter, w_loc.reshape(-1))
            sp.add("elements", self.mesh.n_elem)
            sp.add("flops", self._flops)
        return out

    @property
    def shape(self):
        n = self.mesh.n_nodes
        return (n, n)

    @property
    def dtype(self):
        return np.float64

    def flops(self) -> int:
        """Double-precision FLOPs of one full MATVEC as executed:
        sparse gather + batched elemental apply + sparse scatter."""
        return self._flops

    def traffic_bytes(self) -> int:
        """Modelled bytes moved by one MATVEC as executed: the
        gather/scatter CSR arrays (data + indices + indptr, read once
        each) plus the vector traffic (global input/output, the
        element-local temporaries, and the per-element h scale)."""
        g = self._gather
        csr = 2 * (g.data.nbytes + g.indices.nbytes + g.indptr.nbytes)
        vec = 8 * (
            2 * self.mesh.n_nodes
            + 2 * self.mesh.n_elem * self.ref.npe
            + self.mesh.n_elem
        )
        return csr + vec


def traversal_matvec(
    mesh: IncompleteMesh,
    u: np.ndarray,
    kind: str = "stiffness",
    plan: TraversalPlan | None = None,
    owned_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Traversal-based matrix-free MATVEC (§3.5).

    ``owned_range=(lo, hi)`` restricts the traversal to subtrees
    containing the owned elements (the distributed-memory augmentation);
    contributions involving only non-owned elements are skipped.

    The top-down / leaf / bottom-up phase breakdown is published as
    merge spans under a ``matvec.traversal`` span when tracing is on.
    """
    ctx = operator_context(mesh)
    if plan is None:
        plan = ctx.traversal
    ref = ctx.ref()
    if kind == "stiffness":
        ker, pw = ref.K_ref, mesh.dim - 2
    elif kind == "mass":
        ker, pw = ref.M_ref, mesh.dim
    else:
        raise ValueError(f"unknown kind {kind!r}")

    dim = mesh.dim
    m = max_level(dim)
    p = mesh.p
    e_lo, e_hi = owned_range if owned_range is not None else (0, mesh.n_elem)

    out = np.zeros_like(u)
    two_p = 2 * p

    coords = plan.coords
    keys, levels, h = plan.keys, plan.levels, plan.h

    # the traversal carries a stack of (ids, vals, out_vals) bucket
    # frames, one per tree level on the current path; hanging-slot
    # donors missing from a leaf's own bucket are interpolated from the
    # nearest ancestor bucket that holds them ("interpolated from the
    # immediate parent" in the paper — ancestors, for hanging chains)
    frames: list[list] = []

    def _leaf_apply(e: int) -> None:
        with span("matvec.leaf", merge=True) as lsp:
            sidx, gid, sw = plan.rows(e)
            # locate each needed node in the deepest frame that carries it
            val_in = np.empty(len(gid))
            frame_of = np.empty(len(gid), np.int64)
            pos_of = np.empty(len(gid), np.int64)
            todo = np.arange(len(gid))
            for fi in range(len(frames) - 1, -1, -1):
                if len(todo) == 0:
                    break
                ids_f = frames[fi][0]
                pos = np.searchsorted(ids_f, gid[todo])
                posc = np.clip(pos, 0, max(len(ids_f) - 1, 0))
                hit = (
                    (pos < len(ids_f)) & (ids_f[posc] == gid[todo])
                    if len(ids_f)
                    else np.zeros(len(todo), bool)
                )
                sel = todo[hit]
                frame_of[sel] = fi
                pos_of[sel] = posc[hit]
                val_in[sel] = frames[fi][1][posc[hit]]
                todo = todo[~hit]
            if len(todo):
                raise RuntimeError("traversal path missing elemental nodes")
            u_loc = np.zeros(ref.npe)
            np.add.at(u_loc, sidx, sw * val_in)
            w_loc = (h[e] ** pw) * (ker @ u_loc)
            contrib = sw * w_loc[sidx]
            for fi in np.unique(frame_of):
                sel = frame_of == fi
                np.add.at(frames[fi][2], pos_of[sel], contrib[sel])
            lsp.add("elements", 1)

    def _leaf_apply_batch(a: int, b: int) -> None:
        """Apply an SFC-contiguous block of identity (non-hanging)
        elements as one batched matmul against the current bucket."""
        with span("matvec.leaf", merge=True) as lsp:
            ids_f, vals_f, out_f = frames[-1]
            gid = plan.identity_gids(a, b)
            pos = np.searchsorted(ids_f, gid)
            posc = np.clip(pos, 0, max(len(ids_f) - 1, 0))
            if len(ids_f) == 0 or not np.all(ids_f[posc] == gid):
                raise RuntimeError("traversal path missing elemental nodes")
            u_loc = vals_f[posc]
            w_loc = (h[a:b] ** pw)[:, None] * (u_loc @ ker.T)
            np.add.at(out_f, posc, w_loc)
            lsp.add("elements", b - a)

    def recurse(lo: int, hi: int, box_lo: np.ndarray, level: int) -> None:
        a_own, b_own = max(lo, e_lo), min(hi, e_hi)
        if a_own < b_own and plan.all_identity(a_own, b_own):
            _leaf_apply_batch(a_own, b_own)
            return
        if hi - lo == 1 and levels[lo] == level:
            _leaf_apply(lo)
            return
        half = np.int64(1) << np.int64(m - level - 1)
        for c in range(1 << dim):
            empty = False
            with span("matvec.top_down", merge=True) as tsp:
                off = np.array([(c >> j) & 1 for j in range(dim)], np.int64)
                c_lo = box_lo + off * half
                ck = plan.oracle.keys_from_coords(
                    c_lo.astype(np.uint32)[None, :], dim
                )[0]
                kspan = np.uint64(1) << np.uint64(dim * (m - level - 1))
                a = int(np.searchsorted(keys, ck, side="left"))
                b = int(np.searchsorted(keys, ck + kspan, side="left"))
                a, b = max(a, lo), min(b, hi)
                if a >= b or b <= e_lo or a >= e_hi:
                    empty = True
                else:
                    # bucket: nodes incident on the closed child box
                    # (2p units)
                    ids, vals, out_vals = frames[-1]
                    nlo = two_p * c_lo
                    nhi = two_p * (c_lo + half)
                    pts = coords[ids]
                    sel = np.flatnonzero(
                        np.all((pts >= nlo) & (pts <= nhi), axis=1)
                    )
                    frames.append([ids[sel], vals[sel], np.zeros(len(sel))])
                    tsp.add("bucketed_nodes", len(sel))
            if empty:
                continue
            recurse(a, b, c_lo, level + 1)
            with span("matvec.bottom_up", merge=True) as bsp:
                child = frames.pop()
                np.add.at(out_vals, sel, child[2])
                bsp.add("merged_nodes", len(sel))

    ids0 = np.arange(mesh.n_nodes, dtype=np.int64)
    with span("matvec.traversal"):
        frames.append([ids0, np.asarray(u, float), np.zeros(mesh.n_nodes)])
        recurse(0, mesh.n_elem, np.zeros(dim, np.int64), 0)
    out[:] = frames[0][2]
    return out
