"""Instrumented hot-path kernels.

The numerical inner loops of the stack — the hanging-aware element
gather and scatter, the batched elemental apply, global assembly and
the Krylov ``dot``/``axpy`` — run through these functions instead of
being inlined at the call sites (:mod:`repro.core.matvec`,
:mod:`repro.core.assembly`, :mod:`repro.fem.elemental`,
:mod:`repro.parallel.ghost`, :mod:`repro.solvers.krylov`).  Each is a
single numpy/scipy expression.

When :mod:`repro.obs` tracing is on, every call publishes its
achieved work::

    kernels.calls{kernel="elem_apply"}
    kernels.flops{...}     # modelled double-precision FLOPs executed
    kernels.bytes{...}     # modelled bytes moved
    kernels.seconds{...}   # measured wall time

:func:`repro.analysis.roofline.measured_kernel_points` turns these four
counters into measured arithmetic intensity and fraction-of-peak per
kernel (Fig. 12), from a live registry or any ``run.v1``/``bench.v1``
artifact.  With tracing off a call costs one attribute check on top of
the expression itself.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

from .obs.counters import REGISTRY
from .obs.trace import TRACER

__all__ = ["gather", "scatter", "elem_apply", "dot", "axpy", "assemble"]


def _publish(kernel: str, flops: float, nbytes: float, seconds: float) -> None:
    REGISTRY.add("kernels.calls", 1, kernel=kernel)
    REGISTRY.add("kernels.flops", float(flops), kernel=kernel)
    REGISTRY.add("kernels.bytes", float(nbytes), kernel=kernel)
    REGISTRY.add("kernels.seconds", float(seconds), kernel=kernel)


def _csr_product(kernel: str, A: sp.spmatrix, x: np.ndarray):
    """``A @ x`` with CSR cost accounting: matrix arrays + both vectors."""
    if not TRACER.enabled:
        return A @ x
    t0 = perf_counter()
    out = A @ x
    dt = perf_counter() - t0
    ncols = x.shape[1] if np.ndim(x) == 2 else 1
    nbytes = (
        A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        + 8.0 * (A.shape[1] + A.shape[0]) * ncols
    )
    _publish(kernel, 2.0 * A.nnz * ncols, nbytes, dt)
    return out


def gather(G: sp.spmatrix, u: np.ndarray) -> np.ndarray:
    """Hanging-aware element gather ``G @ u``."""
    return _csr_product("gather", G, u)


def scatter(S: sp.spmatrix, w: np.ndarray) -> np.ndarray:
    """Bottom-up accumulation ``S @ w`` (S is gatherᵀ)."""
    return _csr_product("scatter", S, w)


def elem_apply(u_loc: np.ndarray, M: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Batched elemental apply ``(u_loc @ M.T) * scale[:, None]``."""
    if not TRACER.enabled:
        return (u_loc @ M.T) * scale[:, None]
    t0 = perf_counter()
    out = (u_loc @ M.T) * scale[:, None]
    dt = perf_counter() - t0
    ne, npe_in = u_loc.shape
    npe_out = M.shape[0]
    _publish(
        "elem_apply",
        2.0 * ne * npe_out * npe_in + ne * npe_out,
        u_loc.nbytes + scale.nbytes + 8.0 * ne * npe_out, dt,
    )
    return out


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Krylov inner product ⟨x, y⟩."""
    if not TRACER.enabled:
        return float(x @ y)
    t0 = perf_counter()
    out = float(x @ y)
    _publish("dot", 2.0 * len(x), 16.0 * len(x), perf_counter() - t0)
    return out


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-place ``y += alpha * x``; returns ``y``."""
    if not TRACER.enabled:
        y += alpha * x
        return y
    t0 = perf_counter()
    y += alpha * x
    _publish("axpy", 2.0 * len(x), 24.0 * len(x), perf_counter() - t0)
    return y


def _assemble(ctx, blocks: np.ndarray) -> sp.csr_matrix:
    n_elem, npe, _ = blocks.shape
    B = sp.bsr_matrix(
        (blocks, np.arange(n_elem), np.arange(n_elem + 1)),
        shape=(n_elem * npe, n_elem * npe),
    )
    g = ctx.gather
    A = (g.T @ (B @ g)).tocsr()
    A.sum_duplicates()
    return A


def assemble(ctx, blocks: np.ndarray) -> sp.csr_matrix:
    """Global sparse assembly ``Σ_e P_eᵀ K_e P_e`` as one BSR triple
    product ``gatherᵀ · blockdiag(K_e) · gather``."""
    if not TRACER.enabled:
        return _assemble(ctx, blocks)
    t0 = perf_counter()
    A = _assemble(ctx, blocks)
    dt = perf_counter() - t0
    ne, npe, _ = blocks.shape
    g = ctx.gather
    _publish(
        "assemble", 2.0 * ne * npe * npe,
        blocks.nbytes + g.data.nbytes + g.indices.nbytes + 12.0 * A.nnz, dt,
    )
    return A
