"""2:1 balancing of incomplete octrees (Algorithms 4 and 5).

Bottom-up local block balancing in the style of Sundar et al.: seed
octants are processed finest level first; for every seed the neighbours
of its *parent* are added as next-coarser seeds.  Crucially (per §3.3)
carved-region octants generated this way are **not** discarded — two
leaves of ≥4:1 size ratio could otherwise meet across a carved region.
The final constrained construction (Algorithm 2) then rebuilds a linear
octree that is no coarser than any seed, which enforces the 2:1
constraint over all shared boundaries (faces, edges and corners).
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from .domain import Domain
from .construct import construct_constrained
from .octant import OctantSet, _neighbor_offsets, max_level, neighbors
from .sfc import SFCOracle, get_curve
from .treesort import block_ends, remove_duplicates

__all__ = [
    "bottom_up_constrain_neighbors",
    "balance_2to1",
    "find_balance_violations",
    "is_balanced",
]


def bottom_up_constrain_neighbors(
    seeds: OctantSet, curve: "str | SFCOracle" = "morton"
) -> OctantSet:
    """Algorithm 5: propagate balance constraints coarse-ward.

    Returns the union of the input seeds and all generated auxiliary
    seeds, duplicate-free and sorted along ``curve``.  No subdomain
    predicate is applied.

    Each level works on integer cell coordinates at that level (the
    anchor shifted right by ``m - lv``), so its tier and the tier's
    parents are deduplicated by one packed ``dim*lv``-bit key; only the
    final union is SFC-sorted.
    """
    dim = seeds.dim
    if len(seeds) == 0:
        return seeds
    with span("balance.constrain") as sp:
        m = max_level(dim)
        offs = _neighbor_offsets(dim)
        levels = seeds.levels.astype(np.int64)
        by_level: dict[int, list[np.ndarray]] = {}
        for lv in np.unique(levels).tolist():
            cells = seeds.anchors[levels == lv].astype(np.int64) >> (m - lv)
            by_level[lv] = [cells]
        tiers: list[OctantSet] = []
        for lv in range(int(levels.max()), -1, -1):
            if lv not in by_level:
                continue
            tier = _unique_cells(np.concatenate(by_level.pop(lv)), lv)
            tiers.append(OctantSet(
                tier << (m - lv), np.full(len(tier), lv, np.uint8), dim
            ))
            if lv == 0:
                break
            # parents (shared by up to 2**dim siblings), then their
            # same-level neighbours clipped to the domain
            par = _unique_cells(tier >> 1, lv - 1)
            cand = (par[:, None, :] + offs[None, :, :]).reshape(-1, dim)
            ok = np.all((cand >= 0) & (cand < (1 << (lv - 1))), axis=1)
            if ok.any():
                by_level.setdefault(lv - 1, []).append(cand[ok])
        sp.add("tiers", len(tiers))
        return remove_duplicates(OctantSet.concatenate(tiers), curve)


def _unique_cells(cells: np.ndarray, lv: int) -> np.ndarray:
    """Distinct rows of level-``lv`` integer cell coordinates.

    Each coordinate has ``lv`` bits, so a row packs into one
    ``dim*lv <= 63``-bit int64 key.
    """
    dim = cells.shape[1]
    key = cells[:, 0].copy()
    for j in range(1, dim):
        key |= cells[:, j] << (j * lv)
    key = np.unique(key)
    mask = (1 << lv) - 1
    return np.stack([(key >> (j * lv)) & mask for j in range(dim)], axis=1)


def balance_2to1(
    domain: Domain, seeds: OctantSet, curve: "str | SFCOracle" = "morton"
) -> OctantSet:
    """Algorithm 4: 2:1-balanced linear octree covering the subdomain.

    ``seeds`` is typically the unbalanced leaf set from construction.
    """
    with span("balance") as sp:
        aux = bottom_up_constrain_neighbors(seeds, curve)
        out = construct_constrained(domain, aux, curve)
        sp.add("seeds", len(seeds))
        sp.add("aux_seeds", len(aux))
        sp.add("leaves", len(out))
    return out


def find_balance_violations(
    leaves: OctantSet, curve: "str | SFCOracle" = "morton"
) -> np.ndarray:
    """Indices of leaves with a neighbour coarser by 2+ levels.

    ``leaves`` must be an SFC-sorted linear octree (as produced by the
    construction routines).  For every leaf we form its same-level
    neighbour regions and look up the leaf containing each region's
    anchor; if that containing leaf is coarser by more than one level,
    the pair violates 2:1 balance.
    """
    oracle = get_curve(curve)
    dim = leaves.dim
    n = len(leaves)
    if n == 0:
        return np.zeros(0, np.int64)
    keys = oracle.keys(leaves)
    ends = block_ends(keys, leaves.levels, dim)
    nbrs = neighbors(leaves)
    # neighbors() drops out-of-domain candidates; rebuild source indices
    counts = _neighbor_counts(leaves)
    src = np.repeat(np.arange(n), counts)
    nkeys = oracle.keys(nbrs)
    pos = np.searchsorted(keys, nkeys, side="right") - 1
    valid = pos >= 0
    pos_c = np.clip(pos, 0, n - 1)
    containing = valid & (nkeys >= keys[pos_c]) & (nkeys < ends[pos_c])
    too_coarse = containing & (
        leaves.levels[pos_c].astype(np.int64)
        < nbrs.levels.astype(np.int64) - 1
    )
    return np.unique(src[too_coarse])


def is_balanced(leaves: OctantSet, curve: "str | SFCOracle" = "morton") -> bool:
    """True if the linear octree satisfies the 2:1 constraint."""
    return len(find_balance_violations(leaves, curve)) == 0


def _neighbor_counts(oset: OctantSet) -> np.ndarray:
    """How many in-domain same-level neighbours each octant has."""
    dim = oset.dim
    m = max_level(dim)
    offs = _neighbor_offsets(dim)
    sizes = oset.sizes.astype(np.int64)
    cand = (
        oset.anchors.astype(np.int64)[:, None, :]
        + offs[None, :, :] * sizes[:, None, None]
    )
    extent = np.int64(1) << m
    ok = np.all((cand >= 0) & (cand < extent), axis=2)
    return ok.sum(axis=1)
