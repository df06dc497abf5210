"""Tests for repro.kernels: the instrumented hot-path kernels.

Covers bit-identity of the matvec/assembly paths that run through the
kernels, the measured roofline counters they publish, and the request
documents left after the per-request kernel selection was removed.
"""

import json

import numpy as np
import pytest

from repro import Domain, build_mesh, obs
from repro.analysis import measured_kernel_points
from repro.core.assembly import assemble
from repro.core.matvec import MapBasedMatVec, traversal_matvec
from repro.geometry import SphereCarve
from repro.serve import SolveRequest

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def sphere_mesh():
    return build_mesh(Domain(SphereCarve([0.62, 0.38], 0.2)), 3, 5, p=1)


# -- bit-identity ----------------------------------------------------------


def test_numpy_backend_is_bit_stable(sphere_mesh):
    mesh = sphere_mesh
    u = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    mv = MapBasedMatVec(mesh)
    assert mv(u).tobytes() == mv(u).tobytes()
    y1 = traversal_matvec(mesh, u)
    y2 = traversal_matvec(mesh, u)
    assert y1.tobytes() == y2.tobytes()
    A1, A2 = assemble(mesh), assemble(mesh)
    assert A1.data.tobytes() == A2.data.tobytes()
    assert A1.indices.tobytes() == A2.indices.tobytes()


# -- request documents -------------------------------------------------------

# digest and batch key of ``SolveRequest()``, computed while the request
# still had an (unset, hence omitted) ``backend`` field: removing the
# field must not move them
DEFAULT_DIGEST = "9bfed230a4c35672f7513b84ae0bec24be12b199b8d523c593599392fc36831d"
DEFAULT_BATCH_KEY = (
    "7eee8fcab009099afdd62bc14292c6b5f4637f0403bd7fbdd33228edcaaa1a18"
)


def test_request_backend_digest_stability():
    r = SolveRequest()
    assert r.digest == DEFAULT_DIGEST
    assert r.batch_key == DEFAULT_BATCH_KEY
    assert SolveRequest.from_doc(r.to_doc()).digest == DEFAULT_DIGEST


def test_request_backend_validation():
    doc = SolveRequest().to_doc()
    doc["backend"] = "einsum"
    with pytest.raises(ValueError, match="unknown request fields.*backend"):
        SolveRequest.from_doc(doc)


# -- measured roofline counters -------------------------------------------


def test_counters_published_and_parsed(sphere_mesh, tmp_path):
    mesh = sphere_mesh
    u = np.linspace(0.0, 1.0, mesh.n_nodes)
    obs.reset()
    obs.enable()
    try:
        MapBasedMatVec(mesh)(u)
        assemble(mesh)
        live = measured_kernel_points()
        path = tmp_path / "kernels_artifact.json"
        obs.write_artifact(str(path), "kernels-test")
    finally:
        obs.disable()
    assert [m.kernel for m in live] == [
        "assemble", "elem_apply", "gather", "scatter"
    ]
    for m in live:
        assert m.calls >= 1 and m.flops > 0 and m.bytes > 0
        assert m.arithmetic_intensity > 0
        assert 0.0 <= m.fraction_of_peak
    # the same points reconstruct from the written run artifact ...
    from_path = measured_kernel_points(str(path))
    assert [m.to_doc() for m in from_path] == [m.to_doc() for m in live]
    # ... and from the loaded document
    doc = json.loads(path.read_text())
    from_doc = measured_kernel_points(doc)
    assert [m.to_doc() for m in from_doc] == [m.to_doc() for m in live]


def test_counters_silent_when_tracing_off(sphere_mesh):
    obs.reset()
    u = np.linspace(0.0, 1.0, sphere_mesh.n_nodes)
    MapBasedMatVec(sphere_mesh)(u)
    assert measured_kernel_points() == []


def test_flops_and_traffic_model_as_executed(sphere_mesh):
    """The cost model matches the batched gather→apply→scatter path as
    executed (the historical model ignored the gather/scatter flops)."""
    mv = MapBasedMatVec(sphere_mesh)
    npe = 2**sphere_mesh.dim
    expected = 4 * mv._gather.nnz + sphere_mesh.n_elem * (2 * npe**2 + npe)
    assert mv.flops() == expected
    g = mv._gather
    csr = 2 * (g.data.nbytes + g.indices.nbytes + g.indptr.nbytes)
    vec = 8 * (
        2 * sphere_mesh.n_nodes
        + 2 * sphere_mesh.n_elem * npe
        + sphere_mesh.n_elem
    )
    assert mv.traffic_bytes() == csr + vec
