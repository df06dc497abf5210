"""Tests for repro.serve: typed requests, artifact caching, fingerprint
batching, deterministic scheduling and the service facade."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import obs
from repro.serve import (
    Rejected,
    SolverClient,
    SolverService,
    SolveRequest,
    build_entry,
    demo_workload,
    ensure_factor,
    solve_batch,
)

pytestmark = pytest.mark.serve

DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
SMALL_DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.2}
TINY_DISK = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.15}


def _req(**kw):
    kw.setdefault("geometry", DISK)
    kw.setdefault("base_level", 2)
    kw.setdefault("boundary_level", 3)
    return SolveRequest(**kw)


# -- api: canonical digests and validation -----------------------------


def test_request_digest_canonical_across_spellings():
    a = _req(geometry={"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3})
    # ints where floats are meant, list instead of tuple, reordered keys
    b = _req(geometry={"radius": 0.3, "center": [0.5, 0.5], "shape": "sphere"})
    assert a.digest == b.digest
    assert a.mesh_digest == b.mesh_digest
    assert a.batch_key == b.batch_key
    # RHS data changes the request identity but not the mesh/batch keys
    c = _req(f=2.0)
    assert c.digest != a.digest
    assert c.mesh_digest == a.mesh_digest
    assert c.batch_key == a.batch_key
    # tolerance is part of the batch key but not the mesh key
    d = _req(tol=1e-8)
    assert d.mesh_digest == a.mesh_digest
    assert d.batch_key != a.batch_key


def test_request_validation():
    with pytest.raises(ValueError, match="pde"):
        _req(pde="heat").validate()
    with pytest.raises(ValueError, match="shape"):
        _req(geometry={"shape": "torus"}).validate()
    with pytest.raises(ValueError, match="base_level"):
        _req(base_level=5, boundary_level=3).validate()
    with pytest.raises(ValueError, match="radius"):
        _req(geometry={"shape": "sphere", "center": (0.5, 0.5),
                       "radius": -1.0}).validate()
    _req().validate()  # the default request is valid


@pytest.mark.parametrize("kw", [
    {"tol": float("nan")},
    {"f": float("inf")},
    {"geometry": {"shape": "sphere", "center": (float("nan"), 0.5),
                  "radius": 0.3}},
], ids=["tol-nan", "f-inf", "center-nan"])
def test_request_rejects_non_finite_inputs(kw):
    with pytest.raises(ValueError, match="must be finite"):
        _req(**kw).validate()
    with pytest.raises(ValueError, match="must be finite"):
        SolverService().submit(_req(**kw))


_SPHERE_3D = {"shape": "sphere", "center": (0.5, 0.5, 0.5), "radius": 0.3}


@pytest.mark.parametrize("field,kw", [
    ("boundary_level", {"geometry": _SPHERE_3D, "boundary_level": 40}),
    ("base_level", {"geometry": _SPHERE_3D, "base_level": 30,
                    "boundary_level": 30}),
], ids=["boundary_level-40", "base_level-30"])
def test_request_rejects_levels_beyond_max_level(field, kw):
    """Levels the octree cannot represent (3-D caps at 21) are refused
    at submit instead of silently building a level-21 tree."""
    with pytest.raises(ValueError, match=f"^{field} must be <= 21"):
        _req(**kw).validate()
    with pytest.raises(ValueError, match=f"^{field} must be <= 21"):
        SolverService().submit(_req(**kw))
    _req(geometry=_SPHERE_3D, base_level=21, boundary_level=21).validate()


# -- admission control and deadlines -----------------------------------


def test_queue_full_typed_rejection():
    svc = SolverService(max_pending=2)
    assert svc.submit(_req(f=1.0)) is None
    assert svc.submit(_req(f=2.0)) is None
    rej = svc.submit(_req(f=3.0))
    assert isinstance(rej, Rejected)
    assert rej.status == "rejected" and rej.reason == "queue_full"
    # the rejection is part of the response stream
    assert svc.responses[0] is rej
    done = svc.drain()
    assert len(done) == 2 and all(r.ok for r in done)
    assert svc.stats()["status"] == {"ok": 2, "rejected": 1}


def test_deadline_exceeded():
    svc = SolverService(max_batch=4)
    # priority 0 dispatches first and its (cold) batch advances the
    # virtual clock well past the second request's deadline
    svc.submit(_req(priority=0))
    svc.submit(_req(geometry=SMALL_DISK, priority=5, deadline=10))
    done = svc.drain()
    by_reason = {r.reason: r for r in done}
    assert "deadline_exceeded" in by_reason
    rej = by_reason["deadline_exceeded"]
    assert rej.status == "rejected" and rej.t_done > 10


# -- caching ------------------------------------------------------------


@pytest.fixture
def traced():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _walk(spans):
    for sp in spans:
        yield sp
        yield from _walk(sp.children)
        yield from _walk(list(sp._merged.values()))


def _span_names(spans):
    return [sp.name for sp in _walk(spans)]


def test_cache_hot_request_skips_all_build_work(traced):
    svc = SolverService()
    svc.submit(_req(f=1.0))
    svc.drain()
    cold = _span_names(obs.TRACER.roots)
    assert "build_mesh" in cold and "plan.context_build" in cold
    assert "serve.factor_build" in cold

    obs.reset()
    svc.submit(_req(f=2.0))  # same mesh + batch key, different RHS
    done = svc.drain()
    assert done[0].ok and done[0].cache_hit
    hot = _span_names(obs.TRACER.roots)
    assert "serve.batch" in hot and "serve.solve" in hot
    assert "build_mesh" not in hot
    assert "plan.context_build" not in hot
    assert "serve.factor_build" not in hot
    assert obs.get_value("serve.cache.hits") == 1
    assert svc.cache.hits == 1 and svc.cache.misses == 1


def test_eviction_and_interleaving_determinism():
    # size the budget from a measured entry so exactly ~1 entry fits
    probe = build_entry(_req())
    budget = int(probe.nbytes * 1.5)
    reqs = [
        _req(geometry=g, f=float(f), priority=pr)
        for g, f, pr in [
            (DISK, 1.0, 0), (SMALL_DISK, 1.5, 1), (TINY_DISK, 2.0, 2),
            (DISK, 2.5, 0), (SMALL_DISK, 3.0, 1),
        ]
    ]

    def run(stream):
        svc = SolverService(cache_bytes=budget, max_batch=4)
        for r in stream:
            assert svc.submit(r) is None
        svc.drain()
        return svc

    a = run(reqs)
    b = run(reversed(reqs))
    assert len(a.cache.eviction_log) > 0
    assert a.cache.eviction_log == b.cache.eviction_log
    assert a.stream_digest == b.stream_digest
    da = {r.request_digest: r.digest for r in a.responses}
    db = {r.request_digest: r.digest for r in b.responses}
    assert da == db


def test_stream_replay_bit_identical():
    def run():
        svc = SolverService(max_batch=8)
        for r in demo_workload(18, seed=1):
            svc.submit(r)
        svc.drain()
        return svc

    a, b = run(), run()
    assert a.stream_digest == b.stream_digest
    assert [r.digest for r in a.responses] == [r.digest for r in b.responses]


# -- batching ------------------------------------------------------------


def test_batch_solution_matches_single_request_solves():
    reqs = [_req(f=float(f), g=float(g))
            for f, g in [(1.0, 0.0), (2.5, 0.0), (0.5, 1.0), (3.0, -2.0)]]
    entry = build_entry(reqs[0])
    factor, built = ensure_factor(entry, reqs[0])
    assert built
    block = solve_batch(factor, reqs)
    assert block.solutions.shape[1] == len(reqs)
    for j, r in enumerate(reqs):
        single = solve_batch(factor, [r])
        scale = max(np.linalg.norm(single.solutions[:, 0]), 1.0)
        err = np.linalg.norm(block.solutions[:, j] - single.solutions[:, 0])
        assert err <= 1e-12 * scale


def test_service_batches_shared_fingerprints():
    svc = SolverService(max_batch=8)
    for f in (1.0, 2.0, 3.0, 4.0):
        svc.submit(_req(f=f))
    svc.submit(_req(geometry=SMALL_DISK, f=5.0))
    done = svc.drain()
    sizes = {r.request_digest: r.batch_size for r in done}
    assert sorted(sizes.values()) == [1, 4, 4, 4, 4]
    assert svc.stats()["batches"] == 2


def test_sbm_factor_uses_each_geometry_of_a_shared_mesh():
    # both radii carve the same leaves, so the second request is served
    # from the first one's cache entry; its SBM terms must still follow
    # its own boundary
    geos = [{"shape": "sphere", "center": (0.5, 0.5), "radius": r}
            for r in (0.21, 0.195)]
    reqs = [_req(pde="sbm", geometry=g) for g in geos]
    assert reqs[0].mesh_digest != reqs[1].mesh_digest
    assert build_entry(reqs[0]).fingerprint == build_entry(reqs[1]).fingerprint
    svc = SolverService()
    for r in reqs:
        svc.submit(r)
    shared = {r.request_digest: r.solution_digest for r in svc.drain()}
    for r in reqs:
        fresh = SolverService()
        fresh.submit(r)
        (alone,) = fresh.drain()
        assert alone.ok
        assert shared[r.digest] == alone.solution_digest


def test_transport_batch_matches_transport_problem_run():
    from repro.fem.transport import TransportProblem

    req = SolveRequest(
        geometry=DISK, pde="transport", base_level=2, boundary_level=3,
        velocity=(1.0, 0.5), kappa=0.05, dt=0.2, steps=3, f=1.7,
    )
    entry = build_entry(req)
    factor, _ = ensure_factor(entry, req)
    out = solve_batch(factor, [req, req])
    mesh = entry.mesh
    prob = TransportProblem(
        mesh, np.tile([1.0, 0.5], (mesh.n_nodes, 1)), kappa=0.05, dt=0.2,
        dirichlet_mask=mesh.dirichlet_mask, dirichlet_value=0.0,
    )
    ref = prob.run(np.zeros(mesh.n_nodes), 3, source=1.7)
    for j in range(2):
        assert np.linalg.norm(out.solutions[:, j] - ref) <= 1e-12 * max(
            np.linalg.norm(ref), 1.0
        )


def test_client_solves_all_pde_kinds():
    svc = SolverService()
    client = SolverClient(svc)
    r1 = client.solve(_req(pde="poisson", f=2.0))
    r2 = client.solve(_req(pde="sbm", f=2.0))
    r3 = client.solve(SolveRequest(
        geometry=DISK, pde="transport", base_level=2, boundary_level=3,
        velocity=(1.0, 0.0), steps=2,
    ))
    assert r1.ok and r1.reason == "converged"
    assert r2.ok and r2.reason == "direct"
    assert r3.ok and r3.reason == "direct"
    # sbm shares the poisson request's mesh entry
    assert r2.cache_hit and r3.cache_hit
    assert len({r1.solution_digest, r2.solution_digest,
                r3.solution_digest}) == 3


# -- retry with backoff --------------------------------------------------


class _FlakyOnce:
    """Raise SolverBreakdown on each request's first attempt only."""

    def __init__(self):
        self.calls = 0

    def __call__(self, request, retries):
        from repro.resilience.faults import SolverBreakdown

        self.calls += 1
        if retries == 0:
            raise SolverBreakdown("injected", "breakdown", "first try fails")


def test_retry_with_backoff_recovers():
    svc = SolverService(fault_injector=_FlakyOnce(), backoff=500)
    svc.submit(_req(f=1.0))
    done = svc.drain()
    assert len(done) == 1
    (r,) = done
    assert r.ok and r.retries == 1
    assert r.t_done >= 500  # the backoff window actually elapsed


def test_retries_exhausted_is_typed_failure():
    def always_fail(request, retries):
        from repro.resilience.faults import SolverBreakdown

        raise SolverBreakdown("injected", "breakdown", "never succeeds")

    svc = SolverService(fault_injector=always_fail, max_retries=1)
    svc.submit(_req())
    done = svc.drain()
    (r,) = done
    assert r.status == "failed" and r.reason == "retries_exhausted"
    assert r.retries == 1
    assert svc.stats()["status"] == {"failed": 1}


# -- deadline edge case (regression) -------------------------------------


def test_deadline_equal_to_current_tick_is_expired():
    """A request whose deadline equals the current tick is already
    missed: the solve takes at least one tick, so dispatching it could
    never finish in time (regression: the old check used a strict
    inequality and dispatched it anyway)."""
    from repro.serve import PendingItem

    item = PendingItem(request=_req(deadline=10), digest="d",
                       t_submit=100, seq=1)
    assert not item.expired(109)
    assert item.expired(110)  # deadline == now: reject, don't dispatch
    assert item.expired(111)


def test_deadline_equal_tick_rejected_through_service():
    svc = SolverService()
    svc.submit(_req(priority=0, deadline=0))
    done = svc.drain()
    (r,) = done
    assert r.status == "rejected" and r.reason == "deadline_exceeded"


# -- per-cache gauges and the step loop ----------------------------------


def test_named_caches_publish_labeled_gauges(traced):
    """Two services with named caches must not overwrite each other's
    byte/entry gauges — fleet-stats reads per-shard cache pressure from
    the ``cache=<name>`` label."""
    a = SolverService(name="shardA")
    b = SolverService(name="shardB")
    a.submit(_req(f=1.0))
    a.drain()
    b.submit(_req(geometry=SMALL_DISK, f=1.0))
    b.drain()
    bytes_a = obs.get_value("serve.cache.bytes", cache="shardA")
    bytes_b = obs.get_value("serve.cache.bytes", cache="shardB")
    assert bytes_a and bytes_b and bytes_a != bytes_b
    assert obs.get_value("serve.cache.entries", cache="shardA") == 1
    assert obs.get_value("serve.cache.misses", cache="shardB") == 1
    # unnamed services keep the label-free series
    c = SolverService()
    c.submit(_req(f=2.0))
    c.drain()
    assert obs.get_value("serve.cache.entries") == 1
    assert a.cache.stats()["name"] == "shardA"


def test_step_loop_equivalent_to_drain():
    def run(stepwise):
        svc = SolverService(max_batch=4)
        for r in demo_workload(10, seed=3):
            svc.submit(r)
        if stepwise:
            done = []
            while svc.scheduler.depth:
                done.extend(svc.step())
        else:
            done = svc.drain()
        return svc, done

    a, da = run(stepwise=True)
    b, db = run(stepwise=False)
    assert [r.digest for r in da] == [r.digest for r in db]
    assert a.stream_digest == b.stream_digest


# -- demo workload -------------------------------------------------------


def test_demo_workload_deterministic_and_mixed():
    a = demo_workload(30, seed=0)
    b = demo_workload(30, seed=0)
    assert [r.digest for r in a] == [r.digest for r in b]
    kinds = {r.pde for r in a}
    assert kinds == {"poisson", "sbm", "transport"}
    assert [r.digest for r in demo_workload(30, seed=1)] != [
        r.digest for r in a
    ]


# -- SBM direct factor ---------------------------------------------------

# the cold SBM request pinned in tests/test_mesh_digests.py
PINNED_SPHERE = {"shape": "sphere", "center": [0.52, 0.47, 0.5], "radius": 0.28}
# the ROADMAP's levels-4/7 sphere (6760 elements)
SPHERE_4_7 = {"shape": "sphere", "center": [5.0, 5.0, 5.0], "radius": 0.5,
              "scale": 10.0}


def _sbm_factor(geometry, base_level, boundary_level, p=1):
    req = SolveRequest(geometry=geometry, pde="sbm", base_level=base_level,
                       boundary_level=boundary_level, p=p)
    factor, built = ensure_factor(build_entry(req), req)
    assert built
    return factor


@pytest.mark.parametrize("geometry,levels", [
    (PINNED_SPHERE, (3, 5)),
    (DISK, (3, 5)),
], ids=["3d-sphere-3-5", "2d-disk-3-5"])
def test_sbm_served_solution_matches_colamd_and_library(geometry, levels):
    """The symmetric-mode factor changes the pivot order, not the
    answer: the served solution agrees with a COLAMD factor of the same
    system and with the library's SBM solve to 1e-10 relative, and it
    meets the request tolerance on the residual."""
    from repro.fem import PoissonProblem

    req = SolveRequest(geometry=geometry, pde="sbm", base_level=levels[0],
                       boundary_level=levels[1], f=1.25, g=0.5)
    entry = build_entry(req)
    factor, _ = ensure_factor(entry, req)
    out = solve_batch(factor, [req])
    served = out.solutions[:, 0]
    # the array under test is the one the service answers with
    resp = SolverClient(SolverService()).solve(req)
    assert resp.ok and resp.solution_digest == out.digest(0)

    b = (req.f * factor.b_unit + req.g * factor.bs_unit)[factor.free]
    b = b - req.g * factor.lift
    u_colamd = spla.splu(factor.Aff.tocsc(), permc_spec="COLAMD").solve(b)
    u = served[factor.free]
    assert np.linalg.norm(u - u_colamd) <= 1e-10 * np.linalg.norm(u_colamd)
    assert np.linalg.norm(b - factor.Aff @ u) <= req.tol * np.linalg.norm(b)

    lib = PoissonProblem(entry.mesh, f=req.f, dirichlet=req.g,
                         method="sbm").solve()
    assert np.linalg.norm(served - lib) <= 1e-10 * np.linalg.norm(lib)


def test_sbm_factor_fill_below_colamd():
    factor = _sbm_factor(SPHERE_4_7, 4, 7)
    colamd = spla.splu(factor.Aff.tocsc(), permc_spec="COLAMD")
    assert factor.Aff.shape[0] > 5000
    assert factor.lu.nnz < colamd.nnz


@pytest.mark.parametrize("geometry,levels,p", [
    (DISK, (3, 5), 1),
    (DISK, (2, 4), 2),
    (PINNED_SPHERE, (3, 5), 1),
    (PINNED_SPHERE, (2, 4), 2),
], ids=["2d-p1", "2d-p2", "3d-p1", "3d-p2"])
def test_sbm_factor_multi_column_residual(geometry, levels, p):
    """Eight random columns through one symmetric-mode factor.  The
    normwise backward error is at rounding level on every system; the
    relative residual also carries the conditioning (the 3-D p=2 system
    reads 1.4e-12, against 2.0e-13 with COLAMD)."""
    factor = _sbm_factor(geometry, *levels, p=p)
    A = factor.Aff
    B = np.random.default_rng(7).standard_normal((len(factor.free), 8))
    X = factor.lu.solve(B)
    R = A @ X - B
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(B, axis=0)
    eta = np.abs(R).max(axis=0) / (
        spla.norm(A, np.inf) * np.abs(X).max(axis=0) + np.abs(B).max(axis=0))
    assert np.all(eta <= 1e-15)
    assert np.all(res <= 1e-11)


def test_sbm_factor_fill_on_span_and_factor_event(traced):
    from repro.obs import EventLog

    rec = EventLog()
    svc = SolverService(recorder=rec)
    svc.submit(_req(pde="poisson"))
    svc.submit(_req(pde="sbm"))
    done = svc.drain()
    assert all(r.ok for r in done)
    spans = {sp.attrs["pde"]: sp for sp in _walk(obs.TRACER.roots)
             if sp.name == "serve.factor_build"}
    factor = _sbm_factor(DISK, 2, 3)
    fill = {"nnz": factor.Aff.nnz, "lu_nnz": factor.lu.nnz}
    assert factor.lu.nnz > factor.Aff.nnz
    for name, value in fill.items():
        assert spans["sbm"].counters[name] == value
        assert name not in spans["poisson"].counters
    events = [ev for ev in rec.events if ev.kind == "factor"]
    assert len(events) == 2
    assert [{k: ev.get(k) for k in fill} for ev in events] == [
        {"nnz": None, "lu_nnz": None}, fill]
