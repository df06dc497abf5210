"""Cold path — SBM factor ordering: COLAMD vs symmetric-mode minimum degree.

A cold SBM request factorizes the free-DOF block of the Shifted Boundary
Method system once (``repro.serve.batcher._SbmFactor``).  That matrix is
the SPD stiffness matrix plus a small unsymmetric boundary term, so
``repro.solvers.SBM_SPLU`` runs SuperLU in symmetric mode: minimum
degree on Aᵀ+A, diagonal pivots kept down to 0.1 of the column maximum.

This bench builds the production factor's matrix for levels-4/7 spheres
(scale 10): the ROADMAP's centred sphere plus seeded off-centre ones
drawn like the cold-request benchmark's (centre ±0.25, radius
0.45–0.55).  Alternating the two settings within every repeat, it times

* the factorization (``splu``) and its fill ``lu.nnz / A.nnz``;
* a k-column triangular solve for k = 1, 2, 4, 8 (the batch widths the
  server sees);

and reports median and IQR over the repeats per sphere and pooled over
all spheres, plus the worst relative residual of the 8-column solve.  It
asserts what is deterministic — the chosen setting fills less than
COLAMD on every sphere — and that every residual stays far inside the
serving tolerance; the time ratios are reported, not gated.
"""

import time

import numpy as np
import scipy.sparse.linalg as spla

from repro.serve import SolveRequest, build_entry, ensure_factor
from repro.solvers import SBM_SPLU

from _util import ResultTable

SETTINGS = {
    "COLAMD": {"permc_spec": "COLAMD"},
    "SBM_SPLU": SBM_SPLU,
}
COLUMNS = (1, 2, 4, 8)
#: timed series per setting: the factorization, then each solve width
SERIES = ("factor",) + tuple(f"solve{k}" for k in COLUMNS)
LEVELS = (4, 7)
N_SPHERES = 6
REPEATS = 15


def spheres(n):
    """The ROADMAP's centred sphere, then ``n - 1`` seeded off-centre ones."""
    out = [{"shape": "sphere", "center": [5.0, 5.0, 5.0], "radius": 0.5,
            "scale": 10.0}]
    rng = np.random.default_rng(2024)
    while len(out) < n:
        out.append({
            "shape": "sphere",
            "center": [round(float(5.0 + rng.uniform(-0.25, 0.25)), 6)
                       for _ in range(3)],
            "radius": round(float(rng.uniform(0.45, 0.55)), 6),
            "scale": 10.0,
        })
    return out


def _median_iqr(xs):
    q1, med, q3 = np.percentile(np.asarray(xs) * 1e3, [25, 50, 75])
    return float(med), float(q3 - q1)


def time_settings(A, repeats):
    """Factor/solve times (s) of both settings on one matrix."""
    B = np.random.default_rng(0).standard_normal((A.shape[0], max(COLUMNS)))
    out = {name: {key: [] for key in SERIES} for name in SETTINGS}
    for _ in range(repeats):
        for name, kw in SETTINGS.items():
            t0 = time.perf_counter()
            lu = spla.splu(A, **kw)
            out[name]["factor"].append(time.perf_counter() - t0)
            for k in COLUMNS:
                t0 = time.perf_counter()
                X = lu.solve(B[:, :k])
                out[name][f"solve{k}"].append(time.perf_counter() - t0)
            res = np.linalg.norm(A @ X - B, axis=0) / np.linalg.norm(B, axis=0)
            out[name].update(lu_nnz=int(lu.nnz), residual=float(res.max()))
    return out


def run_sbm_factor(levels, n_spheres, repeats):
    """One entry per sphere: its matrix size and both settings' times."""
    rows = []
    for geometry in spheres(n_spheres):
        req = SolveRequest(geometry=geometry, pde="sbm", base_level=levels[0],
                           boundary_level=levels[1])
        factor, _ = ensure_factor(build_entry(req), req)
        A = factor.Aff.tocsc()
        rows.append({"n": A.shape[0], "nnz": int(A.nnz),
                     "times": time_settings(A, repeats)})
    return rows


def test_sbm_factor(benchmark):
    rows = benchmark.pedantic(
        lambda: run_sbm_factor(LEVELS, N_SPHERES, REPEATS),
        rounds=1, iterations=1)
    t = ResultTable(
        "sbm_factor",
        f"Cold SBM factor, COLAMD vs SBM_SPLU: {len(rows)} levels-"
        f"{LEVELS[0]}/{LEVELS[1]} spheres, median (IQR) over {REPEATS} "
        "repeats, ms",
    )
    t.row(f"{'sphere':>6} {'n':>6} {'nnz':>7} | {'COLAMD':>13} {'fill':>5} "
          f"| {'SBM_SPLU':>13} {'fill':>5} | {'speed-up':>8}")
    for i, r in enumerate(rows):
        cells = []
        for name in SETTINGS:
            tm = r["times"][name]
            med, iqr = _median_iqr(tm["factor"])
            fill = tm["lu_nnz"] / r["nnz"]
            cells.append((med, iqr, fill))
            t.record(sphere=i, setting=name, n=r["n"], nnz=r["nnz"],
                     lu_nnz=tm["lu_nnz"], fill=fill, factor_ms=med,
                     factor_iqr_ms=iqr, residual=tm["residual"])
        (m0, q0, f0), (m1, q1, f1) = cells
        t.row(f"{i:>6} {r['n']:>6} {r['nnz']:>7} | {m0:6.1f} ({q0:4.1f}) "
              f"{f0:5.2f} | {m1:6.1f} ({q1:4.1f}) {f1:5.2f} | "
              f"{m0 / m1:7.2f}x")

    t.row("pooled over all spheres and repeats:")
    t.row(f"{'setting':>9} {'factor':>13} "
          + " ".join(f"{f'solve k={k}':>13}" for k in COLUMNS)
          + f" {'fill':>5} {'max res':>8}")
    pooled = {}
    for name in SETTINGS:
        pooled[name] = {
            key: _median_iqr(sum((r["times"][name][key] for r in rows), []))
            for key in SERIES}
        fill = np.median([r["times"][name]["lu_nnz"] / r["nnz"] for r in rows])
        worst = max(r["times"][name]["residual"] for r in rows)
        t.row(f"{name:>9} "
              + " ".join(f"{m:6.1f} ({q:4.1f})"
                         for m, q in pooled[name].values())
              + f" {fill:5.2f} {worst:8.1e}")
        t.record(sphere="pooled", setting=name, median_fill=float(fill),
                 max_residual=worst,
                 **{f"{key}_ms": m for key, (m, _) in pooled[name].items()},
                 **{f"{key}_iqr_ms": q for key, (_, q) in pooled[name].items()})
    old, new = pooled["COLAMD"], pooled["SBM_SPLU"]
    t.row(f"pooled speed-up: factor {old['factor'][0] / new['factor'][0]:.2f}x, "
          f"8-column solve {old['solve8'][0] / new['solve8'][0]:.2f}x")
    t.save()
    for r in rows:
        tm = r["times"]
        assert tm["SBM_SPLU"]["lu_nnz"] < tm["COLAMD"]["lu_nnz"]
        assert tm["SBM_SPLU"]["residual"] < 1e-10
        assert tm["COLAMD"]["residual"] < 1e-10
