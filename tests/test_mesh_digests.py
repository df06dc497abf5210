"""Pinned bit-identity of the cold mesh build, cold solves and AMR.

The mesh and cold Poisson values were computed before the sort-once
balance and packed-key node grouping landed.  The cold SBM value was
re-pinned when the SBM factor moved to SuperLU symmetric mode
(``repro.solvers.SBM_SPLU``): the pivot order changed the last bits, and
``tests/test_serve.py`` checks the new solution against a COLAMD solve
of the same system to 1e-10.  The AMR trajectories were
computed while each adapted mesh could still be spliced incrementally
from its parent instead of rebuilt.  A change to the cold path
(construction, balance, nodes, assembly, the serving solve) or to the
adaptive loop must leave them unchanged; a change that alters numerics
on purpose must say so and re-pin them explicitly.
"""

import hashlib

import numpy as np
import pytest

from repro import Domain, build_mesh
from repro.amr import amr_solve
from repro.geometry import BoxCarve, BoxRetain, SphereCarve
from repro.serve import SolverClient, SolverService, SolveRequest
from repro.serve.api import build_domain


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def mesh_digest(mesh) -> str:
    n = mesh.nodes
    g = n.gather
    return _digest(
        mesh.leaves.anchors, mesh.leaves.levels, n.coords, n.elem_nodes,
        g.indptr, g.indices, g.data, n.carved_node, n.hang_donor, n.hang_W,
    )


MESHES = {
    "2d-sphere-p1-morton": (
        lambda: Domain(SphereCarve([0.5, 0.5], 0.3), dim=2), 3, 7, 1, "morton",
        908, "28dcbb6e0810327a"),
    "2d-sphere-p2-hilbert": (
        lambda: Domain(SphereCarve([0.62, 0.38], 0.2), dim=2), 2, 6, 2, "hilbert",
        338, "5c1a6e96545f0851"),
    "2d-box-p1-hilbert": (
        lambda: Domain(BoxRetain([0.1, 0.2], [0.9, 0.55],
                                 domain=([0, 0], [1, 1])), dim=2),
        3, 6, 1, "hilbert", 408, "13e3a361773c7d16"),
    "3d-sphere-p1-morton-4-7": (
        lambda: Domain(SphereCarve([5.0, 5.0, 5.0], 0.5), scale=10.0),
        4, 7, 1, "morton", 6760, "2c6b895cc9021ad1"),
    "3d-sphere-p2-morton": (
        lambda: Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 2, 4, 2, "morton",
        1184, "dd7fea74135cb6ed"),
    "3d-sphere-p1-hilbert": (
        lambda: Domain(SphereCarve([0.4, 0.55, 0.5], 0.25)), 3, 5, 1, "hilbert",
        3218, "6a84cdc63e8941a3"),
    "3d-sphere-p2-hilbert": (
        lambda: Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 2, 4, 2, "hilbert",
        1184, "28555a9ce696d913"),
}


@pytest.mark.parametrize("name", list(MESHES))
def test_mesh_arrays_pinned(name):
    make_domain, base, boundary, p, curve, n_elem, want = MESHES[name]
    mesh = build_mesh(make_domain(), base, boundary, p=p, curve=curve)
    assert mesh.n_elem == n_elem
    assert mesh_digest(mesh) == want


@pytest.mark.parametrize("pde,want", [
    ("poisson", "ba80d60a31bb535b"),
    ("sbm", "eef9845e471bfeb9"),
])
def test_cold_solution_digest_pinned(pde, want):
    geometry = {"shape": "sphere", "center": [0.52, 0.47, 0.5], "radius": 0.28}
    resp = SolverClient(SolverService()).solve(SolveRequest(
        geometry=geometry, pde=pde, base_level=3, boundary_level=5,
        f=1.25, g=0.5,
    ))
    assert resp.ok
    assert resp.solution_digest[:16] == want


# -- adaptive trajectories ----------------------------------------------


def _lshape_exact(pts):
    x = pts[:, 0] - 0.5
    y = pts[:, 1] - 0.5
    r = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x) - np.pi / 2, 2 * np.pi)
    return np.where(r > 0, r ** (2.0 / 3.0), 0.0) * np.sin(2.0 * theta / 3.0)


def _gaussian_source(pts):
    d2 = ((pts - np.array([0.3, 0.7])) ** 2).sum(axis=1)
    return 100.0 * np.exp(-d2 / (2 * 0.02**2))


def _amr_source():
    # `amr-demo --case source --cycles 3 --base-level 4 --boundary-level 5
    # --theta 0.4`, the CI smoke run
    dom = Domain(SphereCarve([0.62, 0.38], 0.2), dim=2, scale=1.0)
    return amr_solve(dom, _gaussian_source, 0.0, base_level=4,
                     boundary_level=5, max_cycles=3, theta=0.4)


def _amr_lshape():
    # `amr-demo` defaults: L-shape, 6 cycles, theta 0.5, base level 3
    dom = Domain(BoxCarve([0.5, 0.5], [1.0, 1.0]), dim=2, scale=1.0)
    return amr_solve(dom, 0.0, _lshape_exact, base_level=3, boundary_level=3,
                     max_cycles=6, theta=0.5, exact=_lshape_exact)


_SERVED_AMR = SolveRequest(pde="amr", f=1.5)


def _amr_served():
    # the unit trajectory the serving layer runs for _SERVED_AMR
    req = _SERVED_AMR
    return amr_solve(build_domain(req.geometry), f=1.0, dirichlet=0.0, p=req.p,
                     base_level=req.base_level,
                     boundary_level=req.boundary_level,
                     max_cycles=req.amr_cycles, theta=req.amr_theta,
                     rtol=req.tol)


AMR_RUNS = {
    "source-ci-smoke": (
        _amr_source,
        "0afc6714b4183bb182810e0e0a2cdc37578f681c49cb1c7fe8cfcce6649d86dc",
        [(296, 336, 0.1897721093957096, 1), (299, 337, 0.1313097345231397, 1),
         (311, 345, 0.09832198513195496, 4),
         (335, 363, 0.07760754520419126, 0)]),
    "lshape-demo-defaults": (
        _amr_lshape,
        "83789c64cff8eaf4429e9ce06d1fcc01c405539f83d21bb09365a80b07bd1473",
        [(48, 65, 0.1532389586671595, 2), (54, 69, 0.1326983986164919, 3),
         (63, 76, 0.11075055335456543, 6), (84, 92, 0.09016005553628595, 13),
         (126, 128, 0.07132236122895842, 22),
         (195, 190, 0.05612219917894688, 36),
         (306, 295, 0.04399879680270456, 0)]),
    "served-default": (
        _amr_served,
        "472c7f93d4d71192f8c5ba60a163fe50c188eb804999adfe30e3391fcc498c57",
        [(40, 56, 0.163404863076698, 4), (52, 76, 0.12579335685781481, 24),
         (124, 140, 0.10018589376842058, 18),
         (178, 208, 0.079042996298087, 33),
         (266, 296, 0.06300129495388315, 0)]),
}


@pytest.mark.amr
@pytest.mark.parametrize("name", list(AMR_RUNS))
def test_amr_trajectory_pinned(name):
    run, want_digest, want_history = AMR_RUNS[name]
    res = run()
    got = [(r["n_elem"], r["n_dofs"], r["eta"], r["marked"])
           for r in res.history]
    assert got == want_history
    assert res.digest() == want_digest


@pytest.mark.amr
@pytest.mark.serve
def test_served_amr_solution_digest_pinned():
    resp = SolverClient(SolverService()).solve(_SERVED_AMR)
    assert resp.ok
    assert resp.solution_digest == (
        "b045c0778157af4184b59bbf3516b71d19501910e4721ea7818c273d054b6a62")
