"""Unified operator-plan layer: the per-mesh :class:`OperatorContext`.

The paper's carved incomplete octrees make the *operator* cheap enough
to rebuild and apply at scale — but only if the per-mesh artifacts the
operator needs (gather/scatter CSR, element sizes, reference-element
handles, traversal slot tables, level-grouped element batches) are
derived **once** per mesh rather than once per consumer or, worse, once
per apply.  This module is the single mesh ↔ operator contract shared
by every discretization in the stack:

* :func:`operator_context` returns the mesh's :class:`OperatorContext`,
  computing it on first request and caching it on the mesh behind a
  **content fingerprint** (SFC octant keys + levels + p + curve).  Any
  change of the leaf set — e.g. :mod:`repro.core.adapt` refinement or
  coarsening producing a new mesh — yields a new fingerprint, so stale
  plans are never reused.
* :class:`TraversalPlan` holds the flattened CSR-style traversal slot
  table (``slot_ptr`` / ``slot_idx`` / ``slot_gid`` / ``slot_w`` arrays
  instead of per-element Python lists) plus the SFC key/level arrays the
  §3.5 traversal walks, and the ``identity_elem`` mask that lets the
  leaf phase batch non-hanging elements into one matmul.

Consumers (:class:`repro.core.matvec.MapBasedMatVec`,
:func:`repro.core.matvec.traversal_matvec`,
:func:`repro.core.assembly.assemble`, the Poisson/SBM/transport/NS
operators, multigrid prolongation, and — via
:class:`repro.parallel.ghost.ExchangePlan` — the distributed MATVEC)
all obtain these artifacts here instead of re-deriving them.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..fem.elemental import ReferenceElement, reference_element
from ..obs import span
from .sfc import get_curve
from .treesort import block_ends

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .mesh import IncompleteMesh

__all__ = [
    "OperatorContext",
    "TraversalPlan",
    "operator_context",
    "mesh_fingerprint",
]


def mesh_fingerprint(mesh: IncompleteMesh) -> str:
    """Content fingerprint of the mesh's operator-relevant state.

    Hashes the SFC octant keys, the leaf levels, the element order p and
    the curve name — exactly the inputs every operator artifact is a
    function of.  Refining or coarsening the leaf set (or changing p /
    the curve) changes the fingerprint; relabelling or re-wrapping the
    same leaves does not.
    """
    oracle = get_curve(mesh.curve)
    keys = oracle.keys(mesh.leaves)
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(keys).tobytes())
    h.update(np.ascontiguousarray(mesh.leaves.levels).tobytes())
    h.update(f"|dim={mesh.dim}|p={mesh.p}|curve={mesh.curve}".encode())
    return h.hexdigest()


class TraversalPlan:
    """Flattened slot tables for the traversal MATVEC / assembly (§3.5–3.6).

    For each element, the (slot, gid, weight) triples of its local
    interpolation rows — identity entries for ordinary slots, coarse
    donor weights for hanging slots — extracted once from the gather
    operator and stored CSR-style:

    ``slot_ptr``
        ``(n_elem + 1,)`` int64; element ``e`` owns the triple range
        ``slot_ptr[e]:slot_ptr[e+1]``.
    ``slot_idx`` / ``slot_gid`` / ``slot_w``
        flat local-slot index, global node id, interpolation weight.
    ``identity_elem``
        ``(n_elem,)`` bool; True where the element's rows are the pure
        identity (no hanging slots) — these batch into one matmul in the
        traversal leaf phase.
    """

    def __init__(self, mesh: IncompleteMesh, ctx: OperatorContext | None = None):
        self.mesh = mesh
        g = ctx.gather if ctx is not None else mesh.nodes.gather.tocsr()
        npe = mesh.npe
        n_elem = mesh.n_elem
        indptr, indices, data = g.indptr, g.indices, g.data
        counts = np.diff(indptr)
        self.slot_ptr = indptr[::npe].astype(np.int64)
        self.slot_idx = np.repeat(
            np.arange(n_elem * npe, dtype=np.int64) % npe, counts
        )
        self.slot_gid = indices.astype(np.int64)
        self.slot_w = np.asarray(data, np.float64)
        # identity elements: one unit-weight entry per slot row
        simple_rows = (counts == 1).reshape(n_elem, npe).all(axis=1)
        wdev = np.abs(self.slot_w - 1.0)
        dev_per_elem = np.add.reduceat(wdev, self.slot_ptr[:-1])
        self.identity_elem = simple_rows & (dev_per_elem == 0.0)
        # prefix sums make "is the block [a, b) all-identity?" O(1)
        self._ident_cum = np.concatenate(
            [[0], np.cumsum(self.identity_elem, dtype=np.int64)]
        )
        oracle = get_curve(mesh.curve)
        self.keys = oracle.keys(mesh.leaves)
        self.ends = block_ends(self.keys, mesh.leaves.levels, mesh.dim)
        self.coords = mesh.nodes.coords  # 2p-scaled units
        self.levels = mesh.leaves.levels.astype(np.int64)
        self.h = ctx.h if ctx is not None else mesh.element_sizes()
        self.oracle = oracle

    def rows(self, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slot, gid, weight) triples of element ``e``."""
        lo, hi = self.slot_ptr[e], self.slot_ptr[e + 1]
        return self.slot_idx[lo:hi], self.slot_gid[lo:hi], self.slot_w[lo:hi]

    def all_identity(self, a: int, b: int) -> bool:
        """True when every element in ``[a, b)`` has identity slot rows."""
        return bool(self._ident_cum[b] - self._ident_cum[a] == b - a)

    def identity_gids(self, a: int, b: int) -> np.ndarray:
        """Global node ids of the identity block ``[a, b)``, ``(b-a, npe)``.

        Valid only when :meth:`all_identity` holds for the block (each
        element then owns exactly ``npe`` slot triples in slot order).
        """
        return self.slot_gid[self.slot_ptr[a] : self.slot_ptr[b]].reshape(
            b - a, self.mesh.npe
        )


class OperatorContext:
    """Per-mesh bundle of operator artifacts, computed once per fingerprint.

    Eagerly holds the cheap, universally needed pieces (gather CSR,
    element sizes, levels); derives the rest lazily on first use
    (scatter CSR, traversal plan, level batches, multi-field gathers)
    and keeps them for the lifetime of the mesh.
    """

    def __init__(self, mesh: IncompleteMesh, fingerprint: str | None = None):
        self.mesh = mesh
        #: the exact MeshNodes the context was derived from — checked by
        #: identity in :func:`operator_context` so an in-place swap of
        #: ``mesh.nodes`` (same leaves, hence same fingerprint) rebuilds
        #: instead of silently aliasing stale gather/scatter arrays
        self.nodes = mesh.nodes
        self.fingerprint = (
            fingerprint if fingerprint is not None else mesh_fingerprint(mesh)
        )
        #: element → local-node interpolation operator, CSR
        self.gather: sp.csr_matrix = mesh.nodes.gather.tocsr()
        #: physical element side lengths, (n_elem,)
        self.h: np.ndarray = mesh.element_sizes()
        #: leaf refinement levels, (n_elem,) int64
        self.levels: np.ndarray = mesh.leaves.levels.astype(np.int64)
        self._scatter: sp.csr_matrix | None = None
        self._traversal: TraversalPlan | None = None
        self._level_batches: list[tuple[int, np.ndarray]] | None = None
        self._big_gathers: dict[int, sp.csr_matrix] = {}

    # -- quadrature / reference-element handles -------------------------

    def ref(self, nquad: int | None = None) -> ReferenceElement:
        """The mesh's reference element (shared lru cache per (p, dim))."""
        return reference_element(self.mesh.p, self.mesh.dim, nquad)

    # -- lazily derived artifacts ---------------------------------------

    @property
    def scatter(self) -> sp.csr_matrix:
        """gatherᵀ in CSR — the bottom-up accumulation operator."""
        if self._scatter is None:
            self._scatter = self.gather.T.tocsr()
        return self._scatter

    @property
    def traversal(self) -> TraversalPlan:
        """Flattened traversal slot table (built once per mesh)."""
        if self._traversal is None:
            with span("plan.traversal_build") as sp_:
                self._traversal = TraversalPlan(self.mesh, ctx=self)
                sp_.add("elements", self.mesh.n_elem)
        return self._traversal

    @property
    def level_batches(self) -> list[tuple[int, np.ndarray]]:
        """Element index batches grouped by refinement level.

        Returns ``[(level, indices), ...]`` sorted by level; the union
        of the index arrays is ``arange(n_elem)``.  Uniform-kernel
        consumers use these to apply per-level scalings without
        per-element broadcasting.
        """
        if self._level_batches is None:
            lv = self.levels
            self._level_batches = [
                (int(level), np.flatnonzero(lv == level))
                for level in np.unique(lv)
            ]
        return self._level_batches

    def big_gather(self, nfields: int) -> sp.csr_matrix:
        """Multi-field gather: global ``[f0 | f1 | ...]`` vectors to
        element-local field-major slot vectors (hanging-aware)."""
        got = self._big_gathers.get(nfields)
        if got is not None:
            return got
        g = self.gather.tocoo()
        npe = self.mesh.npe
        n = self.mesh.n_nodes
        ndof = nfields * npe
        e = g.row // npe
        i = g.row % npe
        rows, cols, data = [], [], []
        for f in range(nfields):
            rows.append(e * ndof + f * npe + i)
            cols.append(g.col + f * n)
            data.append(g.data)
        big = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.mesh.n_elem * ndof, nfields * n),
        )
        self._big_gathers[nfields] = big
        return big


def operator_context(mesh: IncompleteMesh) -> OperatorContext:
    """The mesh's cached :class:`OperatorContext`.

    The context is stored on the mesh object; it is rebuilt whenever the
    stored fingerprint no longer matches the mesh content (e.g. after
    the leaf set was swapped by refinement/coarsening), so operator
    consumers can never observe a stale plan.
    """
    fp = mesh_fingerprint(mesh)
    ctx = getattr(mesh, "_operator_context", None)
    if (
        ctx is not None
        and ctx.fingerprint == fp
        and ctx.mesh is mesh
        and ctx.nodes is mesh.nodes
    ):
        return ctx
    with span("plan.context_build") as sp_:
        ctx = OperatorContext(mesh, fingerprint=fp)
        sp_.add("elements", mesh.n_elem)
        sp_.add("nodes", mesh.n_nodes)
    mesh._operator_context = ctx
    return ctx
