"""Estimator-driven AMR: estimators, marking, the loop, and serving."""

import numpy as np
import pytest

from repro import Domain
from repro.amr import (
    amr_solve,
    dorfler_mark,
    maximum_mark,
    poisson_estimator,
)
from repro.core import construct_adaptive
from repro.core.mesh import mesh_from_leaves
from repro.fem.poisson import PoissonProblem
from repro.geometry import BoxCarve, SphereCarve

pytestmark = pytest.mark.amr


def lshape_domain():
    return Domain(BoxCarve([0.5, 0.5], [1.0, 1.0]), dim=2, scale=1.0)


def lshape_exact(pts):
    x = pts[:, 0] - 0.5
    y = pts[:, 1] - 0.5
    r = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x) - np.pi / 2, 2 * np.pi)
    return np.where(r > 0, r ** (2.0 / 3.0), 0.0) * np.sin(2.0 * theta / 3.0)


# -- estimators ---------------------------------------------------------


def test_estimator_zero_for_linear_field():
    # a globally linear FE function has no jumps and no residual: the
    # estimator must vanish identically (up to roundoff)
    dom = Domain(SphereCarve([0.5, 0.5], 0.27), dim=2, scale=1.0)
    mesh = mesh_from_leaves(dom, construct_adaptive(dom, 4, 6), p=1)
    pts = mesh.node_coords()
    u = 2.0 + 3.0 * pts[:, 0] - pts[:, 1]
    eta2 = poisson_estimator(mesh, u, f=0.0)
    assert eta2.shape == (mesh.n_elem,)
    assert np.abs(eta2).max() < 1e-18


def test_estimator_concentrates_at_singularity():
    dom = lshape_domain()
    mesh = mesh_from_leaves(dom, construct_adaptive(dom, 4, 4), p=1)
    u = PoissonProblem(mesh, f=0.0, dirichlet=lshape_exact).solve()
    eta2 = poisson_estimator(mesh, u, f=0.0)
    centers = mesh.element_centers()
    d = np.linalg.norm(centers - [0.5, 0.5], axis=1)
    # the largest indicator sits adjacent to the re-entrant corner
    assert d[np.argmax(eta2)] < 0.15
    # and indicators near the corner dominate the far field
    near = eta2[d < 0.2].max()
    far = eta2[d > 0.4].max()
    assert near > 10 * far


def test_estimator_sbm_mismatch_term():
    dom = Domain(SphereCarve([0.5, 0.5], 0.27), dim=2, scale=1.0)
    mesh = mesh_from_leaves(dom, construct_adaptive(dom, 4, 6), p=1)
    u = np.zeros(mesh.n_nodes)
    # u = 0 but g = 1: the mismatch term must charge exactly the
    # surrogate-boundary elements
    eta2 = poisson_estimator(mesh, u, f=0.0, method="sbm", dirichlet=1.0)
    boundary = np.zeros(mesh.n_elem, bool)
    boundary[mesh.boundary_elements] = True
    assert (eta2[boundary] > 0).any()
    assert np.abs(eta2[~boundary]).max() < 1e-18


# -- marking ------------------------------------------------------------


def test_dorfler_bulk_and_minimality():
    eta2 = np.array([8.0, 4.0, 2.0, 1.0, 1.0])
    marks = dorfler_mark(eta2, theta=0.5)
    assert marks.tolist() == [True, False, False, False, False]
    marks = dorfler_mark(eta2, theta=0.8)
    assert marks.tolist() == [True, True, True, False, False]
    assert eta2[marks].sum() >= 0.8 * eta2.sum()


def test_marking_scale_invariance():
    rng = np.random.default_rng(7)
    eta2 = rng.random(100)
    for fn in (dorfler_mark, maximum_mark):
        base = fn(eta2, 0.6)
        assert np.array_equal(base, fn(1e6 * eta2, 0.6))
        assert np.array_equal(base, fn(1e-6 * eta2, 0.6))


def test_maximum_mark():
    eta2 = np.array([1.0, 0.3, 0.26, 0.2])
    # threshold theta^2 * max = 0.25
    assert maximum_mark(eta2, 0.5).tolist() == [True, True, True, False]


def test_marking_degenerate_inputs():
    assert not dorfler_mark(np.zeros(4)).any()
    assert not maximum_mark(np.zeros(4)).any()
    assert dorfler_mark(np.array([], dtype=float)).shape == (0,)
    with pytest.raises(ValueError):
        dorfler_mark(np.ones(3), theta=0.0)


# -- the loop -----------------------------------------------------------


def test_amr_loop_reduces_error_and_eta():
    res = amr_solve(
        lshape_domain(), f=0.0, dirichlet=lshape_exact, base_level=3,
        max_cycles=5, theta=0.5, exact=lshape_exact,
    )
    errs = [r["error_l2"] for r in res.history]
    etas = [r["eta"] for r in res.history]
    assert len(res.history) == 6
    assert errs[-1] < 0.5 * errs[0]
    assert etas[-1] < etas[0]
    assert res.history[-1]["n_dofs"] > res.history[0]["n_dofs"]


def test_amr_loop_deterministic_digest():
    kw = dict(f=0.0, dirichlet=lshape_exact, base_level=3, max_cycles=3,
              theta=0.5)
    d1 = amr_solve(lshape_domain(), **kw).digest()
    d2 = amr_solve(lshape_domain(), **kw).digest()
    assert d1 == d2


def test_amr_loop_target_dofs_stop():
    res = amr_solve(
        lshape_domain(), f=0.0, dirichlet=lshape_exact, base_level=3,
        max_cycles=20, theta=0.5, target_dofs=150,
    )
    assert res.n_dofs >= 150
    assert len(res.history) < 21


def test_amr_loop_rejects_unknown_marking():
    with pytest.raises(ValueError, match="unknown marking"):
        amr_solve(lshape_domain(), marking="random")


# -- serving ------------------------------------------------------------


@pytest.mark.serve
def test_serve_amr_batch_scaling():
    from repro.serve.api import SolveRequest
    from repro.serve.batcher import build_entry, ensure_factor, solve_batch

    geo = {"shape": "sphere", "center": (0.62, 0.38), "radius": 0.2}
    reqs = [
        SolveRequest(geometry=geo, pde="amr", base_level=3, boundary_level=4,
                     amr_cycles=2, amr_theta=0.4, f=amp)
        for amp in (1.0, -2.0, 0.5)
    ]
    for r in reqs:
        r.validate()
    assert len({r.batch_key for r in reqs}) == 1
    entry = build_entry(reqs[0])
    factor, built = ensure_factor(entry, reqs[0])
    assert built and factor.kind == "amr"
    out = solve_batch(factor, reqs)
    assert out.solutions.shape == (factor.n_nodes, 3)
    assert np.allclose(out.solutions[:, 1], -2.0 * out.solutions[:, 0])
    assert np.allclose(out.solutions[:, 2], 0.5 * out.solutions[:, 0])
    # cached on second request
    f2, built2 = ensure_factor(entry, reqs[1])
    assert f2 is factor and not built2


@pytest.mark.serve
def test_serve_amr_request_validation():
    from repro.serve.api import SolveRequest

    geo = {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
    with pytest.raises(ValueError, match="g == 0"):
        SolveRequest(geometry=geo, pde="amr", g=1.0).validate()
    with pytest.raises(ValueError, match="amr_theta"):
        SolveRequest(geometry=geo, pde="amr", amr_theta=0.0).validate()
    # amr params are in the batch key: different trajectories never batch
    a = SolveRequest(geometry=geo, pde="amr", amr_cycles=2)
    b = SolveRequest(geometry=geo, pde="amr", amr_cycles=3)
    assert a.batch_key != b.batch_key
    # round trip through the canonical document keeps the digest
    assert SolveRequest.from_doc(a.to_doc()).digest == a.digest


@pytest.mark.serve
def test_serve_amr_end_to_end():
    from repro.serve import SolverService
    from repro.serve.api import SolveRequest

    geo = {"shape": "sphere", "center": (0.62, 0.38), "radius": 0.2}
    svc = SolverService()
    for amp in (1.0, 3.0):
        svc.submit(SolveRequest(geometry=geo, pde="amr", base_level=3,
                                boundary_level=4, amr_cycles=2,
                                amr_theta=0.4, f=amp))
    svc.drain()
    assert len(svc.responses) == 2
    assert all(r.ok for r in svc.responses)
    assert {r.pde for r in svc.responses} == {"amr"}
