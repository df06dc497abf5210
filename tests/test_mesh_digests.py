"""Pinned bit-identity of the cold mesh build and cold solves.

Every expected value below was computed before the sort-once balance
and packed-key node grouping landed.  A change to the cold path
(construction, balance, nodes, assembly, the serving solve) must leave
them unchanged; a change that alters numerics on purpose must say so and
re-pin them explicitly.
"""

import hashlib

import numpy as np
import pytest

from repro import Domain, build_mesh
from repro.geometry import BoxRetain, SphereCarve
from repro.serve import SolverClient, SolverService, SolveRequest


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
    ("sbm", "16d5c6ba8b783a20"),
])
def test_cold_solution_digest_pinned(pde, want):
    geometry = {"shape": "sphere", "center": [0.52, 0.47, 0.5], "radius": 0.28}
    resp = SolverClient(SolverService()).solve(SolveRequest(
        geometry=geometry, pde=pde, base_level=3, boundary_level=5,
        f=1.25, g=0.5,
    ))
    assert resp.ok
    assert resp.solution_digest[:16] == want
