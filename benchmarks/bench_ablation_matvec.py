"""Ablation — traversal-based vs element-to-node-map MATVEC.

The paper's design choice (§3.5): traverse the tree so elemental nodes
become contiguous, instead of indirect gathers through an
element-to-node map.  In C the traversal wins on memory locality; in
numpy the map-based path is a single sparse gather + batched matmul, so
it is the production operator here.  This bench quantifies both (and
pytest-benchmark times the map-based one), records the traversal's
phase breakdown, and asserts the two agree to machine precision — the
correctness half of the claim that matters for the reproduction.
"""

import time

import numpy as np
import pytest

from repro import Domain, build_mesh, obs
from repro.core.matvec import MapBasedMatVec, TraversalPlan, traversal_matvec
from repro.geometry import SphereCarve
from repro.parallel import (
    SimComm,
    analyze_partition,
    distributed_matvec,
    partition_mesh,
)
from repro.parallel.ghost import ExchangePlan, exchange_plan

from _util import ResultTable


@pytest.fixture(scope="module")
def mesh():
    dom = Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0)
    return build_mesh(dom, 4, 7, p=1)


def test_map_based_matvec_speed(benchmark, mesh):
    mv = MapBasedMatVec(mesh)
    u = np.linspace(0, 1, mesh.n_nodes)
    benchmark(mv, u)


def test_traversal_vs_map_ablation(benchmark, mesh):
    mv = MapBasedMatVec(mesh)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_nodes)
    plan = TraversalPlan(mesh)

    obs.reset()
    obs.enable()
    try:
        y_tr = benchmark.pedantic(
            lambda: traversal_matvec(mesh, u, plan=plan),
            rounds=1, iterations=1,
        )
    finally:
        obs.disable()
    phases = {
        p.split("/")[-1]: s
        for p, s in obs.summary()["spans"].items()
        if p.startswith("matvec.traversal/")
    }
    y_map = mv(u)
    t = ResultTable(
        "ablation_matvec",
        f"Ablation: traversal vs map-based MATVEC "
        f"({mesh.n_elem} elements, {mesh.n_nodes} DOFs)",
    )
    t.row(f"max |traversal - map| = {np.abs(y_tr - y_map).max():.3e}")
    t.row("traversal phases: " + ", ".join(
        f"{name.removeprefix('matvec.')} {phases[name]['duration']:.3f}s"
        for name in ("matvec.top_down", "matvec.leaf", "matvec.bottom_up")
    ))
    t.row("(in numpy the map-based gather is the fast path; the traversal "
          "is the faithful reference of §3.5)")
    for name, s in phases.items():
        t.record(phase=name, seconds=s["duration"], count=s["count"],
                 **s["counters"])
    t.save()
    assert np.allclose(y_tr, y_map, atol=1e-10)
    assert phases["matvec.top_down"]["duration"] > 0
    assert phases["matvec.leaf"]["duration"] > 0


def test_plan_reuse_vs_rebuild(mesh):
    """Operator-plan ablation: 50 repeated distributed MATVEC applies
    with the cached :class:`ExchangePlan` vs rebuilding the plan on
    every call (the pre-plan-layer behaviour, which re-derived exchange
    dicts and re-CSR'd the gather per apply)."""
    nranks, repeats = 8, 50
    layout = analyze_partition(mesh, partition_mesh(mesh, nranks))
    comm = SimComm(nranks)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(mesh.n_nodes)

    plan = exchange_plan(mesh, layout)  # built once, cached on the layout
    y_cached = distributed_matvec(mesh, layout, u, comm, plan=plan)  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        y_cached = distributed_matvec(mesh, layout, u, comm, plan=plan)
    t_cached = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(repeats):
        y_rebuilt = distributed_matvec(
            mesh, layout, u, comm, plan=ExchangePlan(mesh, layout)
        )
    t_rebuild = time.perf_counter() - t0

    speedup = t_rebuild / t_cached
    t = ResultTable(
        "plan_reuse_matvec",
        f"Operator-plan reuse: {repeats} distributed MATVEC applies "
        f"({mesh.n_elem} elements, {nranks} ranks)",
    )
    t.row(f"cached plan   : {t_cached / repeats * 1e3:8.3f} ms/apply")
    t.row(f"rebuild/call  : {t_rebuild / repeats * 1e3:8.3f} ms/apply")
    t.row(f"speedup       : {speedup:.2f}x")
    t.record(
        column="plan_reuse_vs_rebuild",
        nranks=nranks,
        repeats=repeats,
        n_elem=mesh.n_elem,
        cached_seconds=t_cached,
        rebuild_seconds=t_rebuild,
        speedup=speedup,
    )
    t.save()
    assert np.array_equal(y_cached, y_rebuilt)
    assert speedup >= 3.0, f"plan reuse speedup {speedup:.2f}x < 3x"
