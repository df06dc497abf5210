"""Fast self-test of the benchmark itself (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, traced and untraced, and checks that
each result names exactly the metrics of ``BENCHMARK.json`` with their
units, that no check fails on the workloads ``BENCHMARK.json`` lists,
and that ``fleet_zipf`` (not listed) fails only on the library's known
SBM cache aliasing (see :func:`aliased_sbm_geometries`); then corrupts a
served solution and checks that the reference check fires, both on its
own and inside a full run.
"""

from __future__ import annotations

import functools
import json
import sys

import run


def check_metric_names(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layers == run.PER_LAYER, (layers, run.PER_LAYER)


def tiny_workloads(seed: int = 0):
    from workloads import WORKLOADS, ColdSphere, FleetZipf, HotMix

    tiny = [ColdSphere(seed, levels=(3, 5)), HotMix(seed, levels=(3, 5)),
            FleetZipf(seed, n_requests=60, segments=2)]
    assert sorted(w.name for w in tiny) == sorted(WORKLOADS)
    return tiny


def _geometry_key(geometry) -> str:
    from repro.serve.api import canonical_geometry

    return json.dumps(canonical_geometry(geometry), sort_keys=True)


def aliased_sbm_geometries(pool: int) -> set:
    """SBM templates of the fleet catalog whose carved mesh (operator-plan
    fingerprint) another geometry of the catalog shares.

    The serving cache keeps one entry per fingerprint, and an SBM factor
    built on it uses the first geometry's boundary, so these requests
    are served another geometry's solution: a known defect of the
    library, which the reference check reports."""
    from repro.fleet import mesh_catalog
    from repro.serve import SolveRequest

    by_fp: dict[str, list] = {}
    for tmpl in mesh_catalog(pool):
        req = SolveRequest(**tmpl)
        fp = req.build_mesh().operator_context().fingerprint
        by_fp.setdefault(fp, []).append(req)
    return {_geometry_key(r.geometry) for reqs in by_fp.values()
            if len({_geometry_key(r.geometry) for r in reqs}) > 1
            for r in reqs if r.pde == "sbm"}


def check_runs(bench: dict) -> None:
    from workloads import WORKLOADS

    listed = {w["name"] for w in bench["workloads"]}
    assert listed <= set(WORKLOADS), listed - set(WORKLOADS)
    for w in tiny_workloads():
        # a listed workload may not fail a single check
        known = (aliased_sbm_geometries(w.pool) if w.name not in listed
                 else set())
        for trace, units in ((False, run.END_TO_END),
                             (True, run.layer_units(w.name))):
            doc = run.run(w, seconds=1.0, trace=trace, import_s=0.0)
            # every failure must be a wrong answer of the known defect
            bad = doc["checks"]["failed"]
            assert doc["failed"] == len(bad), (w.name, doc["failed"])
            for c in bad:
                assert c["pde"] == "sbm", c
                assert _geometry_key(c["geometry"]) in known, c
            if bad:
                print(f"    {w.name}: {len(bad)} wrong sbm answers on "
                      "geometries sharing a carved mesh (known defect)")
            assert doc["attempted"] >= 1
            got = {k: m["unit"] for k, m in doc["metrics"].items()}
            assert got == units, (w.name, trace, got)
            for k, m in doc["metrics"].items():
                assert isinstance(m["value"], float), (w.name, k, m)
            print(f"ok  {w.name:<12} trace={int(trace)} "
                  f"attempted={doc['attempted']}")


def check_corruption_detected() -> None:
    import numpy as np

    import repro.serve.service as service
    from check import ReferenceSystem, compare
    from tracer import Patches

    w = tiny_workloads()[0]
    for pde in ("poisson", "sbm"):
        req = w.request(0, pde)
        ref = ReferenceSystem(req.build_mesh(), pde)
        u = ref.solve(req.f, req.g)
        assert compare(ref, req, u)["ok"]
        bad = u.copy()
        bad[ref.free[len(ref.free) // 2]] += 1e-4 * np.abs(u).max()
        assert not compare(ref, req, bad)["ok"], pde
    print("ok  check rejects a corrupted solution")

    def corrupting(fn):
        @functools.wraps(fn)
        def solve_batch(*args, **kwargs):
            out = fn(*args, **kwargs)
            out.solutions[out.solutions.shape[0] // 2, :] += 1e-3
            return out
        return solve_batch

    with Patches() as patches:
        patches.replace(service, "solve_batch", corrupting)
        doc = run.run(w, seconds=1.0, trace=False, import_s=0.0)
    assert not doc["correct"] and doc["failed"] >= 1, doc
    print("ok  a run serving corrupted solutions reports correct=false")


def main() -> int:
    run.pin_thread_pools()
    sys.path.insert(0, str(run.ROOT / "src"))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metric_names(bench)
    print("ok  metric names and units match BENCHMARK.json")
    check_runs(bench)
    check_corruption_detected()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
