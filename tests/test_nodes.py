"""Tests for nodal enumeration & hanging-node handling (§3.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain
from repro.core.mesh import build_mesh, build_uniform_mesh
from repro.core.nodes import _group_coords, cancellation_offsets
from repro.fem.basis import local_node_offsets
from repro.geometry.primitives import BoxRetain, SphereCarve, SphereRetain


def _local_coords(mesh):
    """Physical coordinates of every element-local node slot."""
    p, dim = mesh.p, mesh.dim
    off = local_node_offsets(p, dim)
    a = mesh.leaves.anchors.astype(np.int64)
    s = mesh.leaves.sizes.astype(np.int64)
    X = 2 * p * a[:, None, :] + 2 * off[None] * s[:, None, None]
    return X.reshape(-1, dim) * mesh.nodes.h_node


def _check_polynomial_reproduction(mesh, func):
    pts = mesh.nodes.physical_coords()
    loc = mesh.nodes.gather @ func(pts)
    expect = func(_local_coords(mesh))
    assert np.abs(loc - expect).max() < 1e-9


def test_cancellation_offsets_p1_2d():
    k = cancellation_offsets(1, 2)
    # the 4 edge midpoints of the quad
    assert len(k) == 4
    assert {tuple(x) for x in k} == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_cancellation_offsets_p1_3d():
    k = cancellation_offsets(1, 3)
    # 12 edge midpoints + 6 face centres
    assert len(k) == 18


def test_cancellation_offsets_p2_2d():
    k = cancellation_offsets(2, 2)
    # boundary points of the 5x5 grid with an odd index: 2 per edge
    # (even positions coincide with ordinary coarse nodes)
    assert len(k) == 8


def test_uniform_node_count_2d():
    dom = Domain(dim=2)
    for p, expect in [(1, 17 * 17), (2, 33 * 33)]:
        mesh = build_uniform_mesh(dom, 4, p=p)
        assert mesh.n_nodes == expect
        assert mesh.nodes.n_hanging_slots == 0


def test_uniform_node_count_3d():
    mesh = build_uniform_mesh(Domain(dim=3), 2, p=1)
    assert mesh.n_nodes == 5**3


def test_no_duplicate_node_coords():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 5, p=1)
    coords = mesh.nodes.coords
    assert len(np.unique(coords, axis=0)) == len(coords)


def test_hanging_slots_appear_on_graded_mesh():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    mesh = build_mesh(dom, 2, 5, p=1)
    assert mesh.nodes.n_hanging_slots > 0
    assert (mesh.nodes.elem_nodes >= 0).any()


def test_gather_rows_partition_of_unity():
    dom = Domain(SphereCarve([0.5, 0.5], 0.3))
    for p in (1, 2):
        mesh = build_mesh(dom, 2, 4, p=p)
        rs = np.asarray(mesh.nodes.gather.sum(axis=1)).ravel()
        assert np.allclose(rs, 1.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_polynomial_reproduction(dim, p):
    """Order-p interpolation reproduces degree-p polynomials exactly
    across hanging interfaces — the conformity property."""
    center = [0.5] * dim
    dom = Domain(SphereCarve(center, 0.3))
    mesh = build_mesh(dom, 2, 4, p=p)
    assert mesh.nodes.n_hanging_slots > 0

    def func(pts):
        out = 1.0 + pts @ np.arange(1, dim + 1, dtype=float)
        if p >= 2:
            out = out + 0.5 * pts[:, 0] ** 2 - 0.25 * pts[:, 0] * pts[:, dim - 1]
        return out

    _check_polynomial_reproduction(mesh, func)


def test_carved_nodes_marked_on_disk():
    dom = Domain(SphereRetain([0.5, 0.5], 0.25))
    mesh = build_uniform_mesh(dom, 5, p=1)
    pts = mesh.nodes.physical_coords()
    r = np.linalg.norm(pts - 0.5, axis=1)
    carved = mesh.nodes.carved_node
    # all marked nodes lie on/outside the circle, all unmarked inside
    assert np.all(r[carved] >= 0.25 - 1e-12)
    assert np.all(r[~carved] < 0.25)
    assert carved.any() and (~carved).any()


def test_domain_boundary_nodes_on_cube():
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=1)
    pts = mesh.nodes.physical_coords()
    onb = (
        np.isclose(pts, 0.0).any(axis=1) | np.isclose(pts, 1.0).any(axis=1)
    )
    assert np.array_equal(onb, mesh.nodes.domain_boundary)


def test_channel_nodes_inside_channel():
    dom = Domain(BoxRetain([0, 0], [4, 1], domain=([0, 0], [4, 4])), scale=4.0)
    mesh = build_uniform_mesh(dom, 4, p=1)
    pts = mesh.nodes.physical_coords()
    assert pts[:, 1].max() <= 1.0 + 1e-12
    assert mesh.n_nodes == 17 * 5


def test_empty_mesh_raises():
    from repro.core.nodes import build_nodes
    from repro.core.octant import OctantSet

    with pytest.raises(ValueError):
        build_nodes(Domain(dim=2), OctantSet.empty(2), p=1)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_random_carving_linear_reproduction(seed):
    """Linear fields reproduce on randomly carved, graded meshes."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.3, 0.7, 2)
    r = rng.uniform(0.1, 0.3)
    dom = Domain(SphereCarve(c, r))
    mesh = build_mesh(dom, 2, 5, p=1)
    coef = rng.standard_normal(2)

    def func(pts):
        return pts @ coef + 1.0

    _check_polynomial_reproduction(mesh, func)


# -- packed-key node grouping vs the lexsort reference -------------------


def _reference_group_coords(all_coords):
    order = np.lexsort(all_coords.T)
    sc = all_coords[order]
    new = np.ones(len(sc), bool)
    new[1:] = np.any(sc[1:] != sc[:-1], axis=1)
    gid_sorted = np.cumsum(new) - 1
    grp = np.empty(len(all_coords), np.int64)
    grp[order] = gid_sorted
    return grp, int(gid_sorted[-1]) + 1 if len(sc) else 0


@st.composite
def _coord_arrays(draw):
    """Non-negative int64 rows sharing a power-of-two factor, with repeats;
    ``bits`` up to 62 drives the packed key past 63 bits (lexsort path)."""
    dim = draw(st.sampled_from([2, 3]))
    bits = draw(st.integers(0, 62))
    shift = draw(st.integers(0, 62 - bits))
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pool = rng.integers(0, 1 << bits, (max(n // 3, 1), dim), dtype=np.int64)
    rows = pool[rng.integers(0, len(pool), n)] << shift
    return rows.reshape(n, dim)


def _check_group_coords(all_coords):
    grp, n_grp, first = _group_coords(all_coords)
    ref_grp, ref_n = _reference_group_coords(all_coords)
    np.testing.assert_array_equal(grp, ref_grp)
    assert n_grp == ref_n
    assert len(first) == n_grp
    np.testing.assert_array_equal(grp[first], np.arange(n_grp))


@settings(max_examples=80, deadline=None)
@given(all_coords=_coord_arrays())
def test_group_coords_matches_lexsort(all_coords):
    _check_group_coords(all_coords)


def _uses_lexsort(all_coords, monkeypatch) -> bool:
    calls = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: calls.append(1) or real(k))
    _group_coords(all_coords)
    monkeypatch.setattr(np, "lexsort", real)
    return bool(calls)


@pytest.mark.parametrize("dim,top,fallback", [
    (3, 1 << 21, False), (3, 1 << 22, True),
    (2, 1 << 31, False), (2, 1 << 32, True),
])
def test_group_coords_packed_key_boundary(dim, top, fallback, monkeypatch):
    """Keys of up to 63 bits pack; one more bit takes the lexsort path."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, top, (50, dim), dtype=np.int64)
    rows[::5] = rows[1::5]
    rows[0] = top - 1
    assert _uses_lexsort(rows, monkeypatch) == fallback
    _check_group_coords(rows)


@pytest.mark.parametrize("p,finest,fallback", [
    (1, 19, False), (1, 20, True), (2, 18, False), (2, 19, True),
])
def test_group_coords_on_deep_3d_leaves(p, finest, fallback, monkeypatch):
    """Node rows of 3-D leaves spanning the cube down to ``finest``: the
    packed key outgrows 63 bits from level 20 (p=1) / 19 (p=2) on."""
    from repro.core.nodes import _element_node_coords
    from repro.core.octant import OctantSet, children

    corner = OctantSet(np.full((1, 3), 1 << 20, np.uint32), np.array([1], np.uint8))
    deep = OctantSet(np.zeros((1, 3), np.uint32), np.array([finest - 1], np.uint8))
    leaves = OctantSet.concatenate([children(deep), corner])
    xyz = np.concatenate([
        _element_node_coords(leaves, 2 * local_node_offsets(p, 3), p),
        _element_node_coords(leaves, cancellation_offsets(p, 3), p),
    ], axis=1).reshape(-1, 3)
    assert _uses_lexsort(xyz, monkeypatch) == fallback
    _check_group_coords(xyz)
