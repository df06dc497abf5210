"""Wall-clock benchmark of the repro serving stack.

    python3 perfbench/run.py --workload cold_sphere --seed 0 \
        --seconds 30 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs the same work twice — untraced, then traced —
and reports the per-layer metrics, the tracing overhead, and whether
both runs produced identical results.  Every answer is checked; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when any check fails.  A copy of the full result, with the
environment it was measured in, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: set-ups (and fresh-interpreter imports) per run; ``setup_s`` is the
#: median import time plus the median set-up time
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "poisson_p50_ms": "ms",
    "sbm_p50_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

#: per-layer time metrics: inclusive span time per completed request
LAYER_TIMES = {
    "core.construct.s": "core.construct",
    "core.balance.s": "core.balance",
    "core.nodes.s": "core.nodes",
    "core.plan.s": "core.plan",
    "core.assembly.s": "core.assembly",
    "fem.sbm.s": "fem.sbm",
    "serve.batcher.factor_s": "serve.batcher.ensure_factor",
    "serve.batcher.lu_factor_s": "serve.batcher.splu",
    "solvers.krylov.cg_s": "solvers.krylov.cg",
    "serve.cache.lookup_s": "serve.cache.lookup",
    "serve.api.digest_s": "serve.api.digest",
    "obs.events.emit_s": "obs.events.emit",
    "fleet.router.route_s": "fleet.router.route",
    "fleet.steal.plan_s": "fleet.steal.plan",
}

#: layers only the fleet reaches (the flight recorder is attached only
#: there); reported on ``fleet_zipf`` alone, which BENCHMARK.json does
#: not list because the library serves it wrong answers (see
#: ``workloads.FleetZipf``)
FLEET_LAYER = {
    "obs.events.emit_s": "s/req",
    "fleet.router.route_s": "s/req",
    "fleet.steal.plan_s": "s/req",
    "obs.events.emit_count": "count/req",
    "fleet.steal.steals": "count",
    "fleet.tiercache.l2_hit_ratio": "ratio",
    "fleet.builds": "count",
    "fleet.defense.hedge_win_ratio": "ratio",
    "fleet.service.self_s": "s/req",
    "fleet.makespan_ticks": "ticks",
    "fleet.latency_p99_ticks": "ticks",
}

#: the per-layer metrics of the workloads BENCHMARK.json lists
PER_LAYER = {
    **{name: "s/req" for name in LAYER_TIMES if name not in FLEET_LAYER},
    "core.assembly.nnz": "count",
    "serve.batcher.lu_fill": "ratio",
    "serve.batcher.solve_s.poisson": "s/column",
    "serve.batcher.solve_s.sbm": "s/column",
    "serve.batcher.batch_columns": "count",
    "solvers.krylov.iterations": "count",
    "solvers.krylov.matvecs": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.scheduler.queue_wait_ms": "ms",
    "serve.api.digest_calls_per_req": "count/req",
    "serve.model.cost_build_ticks": "ticks/req",
    "serve.model.cost_factor_ticks": "ticks/req",
    "serve.model.cost_solve_ticks": "ticks/req",
    "trace.overhead.throughput_share": "share",
    "trace.overhead.latency_p50_share": "share",
}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def pin_thread_pools() -> int:
    """Cap every BLAS/OpenMP pool at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over the library sources, so results from checkouts that
    are not git repositories can still be matched to code."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "src_digest": source_digest(ROOT),
    }


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the library.

    Timed in child interpreters because a module imports only once per
    process, and one import reads 0.6-1.0 s on a shared host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import numpy, repro.fleet, repro.serve"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics -------------------------------------------------------------


def end_to_end(phase, workload, setup_s: float, failed: int,
               rss_mb: float) -> tuple:
    from stats import summary

    lat_ms = [x * 1e3 for x in phase.latency]
    lat = summary(lat_ms, workload.tail_q)
    per_kind = {}
    for kind in ("poisson", "sbm"):
        xs = [x for x, k in zip(lat_ms, phase.kinds) if k == kind]
        if not xs:
            raise RuntimeError(f"{workload.name}: no completed {kind} "
                               "request to measure")
        per_kind[kind] = summary(xs, workload.tail_q)
    values = {
        "setup_s": setup_s,
        "throughput_rps": phase.throughput(failed),
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "poisson_p50_ms": per_kind["poisson"]["p50"],
        "sbm_p50_ms": per_kind["sbm"]["p50"],
        "ok_share": (phase.ok - failed) / phase.attempted,
        "peak_rss_mb": rss_mb,
    }
    return values, {"latency_ms": lat, **{f"{k}_ms": v
                                          for k, v in per_kind.items()}}


def layer_units(workload: str) -> dict:
    """The per-layer metrics a traced run of ``workload`` reports."""
    if workload == "fleet_zipf":
        return {**PER_LAYER, **FLEET_LAYER}
    return PER_LAYER


def per_layer(tracer, phase, untraced) -> dict:
    from stats import quantile

    n = max(phase.ok, 1)
    reps = phase.extra.get("reps", 0)
    out = {m: tracer.total.get(span, 0.0) / n
           for m, span in LAYER_TIMES.items()}
    for key in ("core.assembly.nnz", "serve.batcher.lu_fill",
                "serve.batcher.batch_columns", "solvers.krylov.iterations",
                "solvers.krylov.matvecs"):
        out[key] = tracer.mean(key)
    for kind in ("poisson", "sbm"):
        out[f"serve.batcher.solve_s.{kind}"] = tracer.mean(
            f"serve.batcher.solve_s.{kind}")
    out["serve.cache.hit_ratio"] = tracer.mean("serve.cache.hit")
    waits = tracer.samples.get("serve.scheduler.queue_wait_ms")
    out["serve.scheduler.queue_wait_ms"] = (quantile(waits, 0.5)
                                            if waits else 0.0)
    out["serve.api.digest_calls_per_req"] = (
        tracer.count["serve.api.digest"] / n)
    out["obs.events.emit_count"] = tracer.count["obs.events.emit"] / n
    out["fleet.steal.steals"] = phase.extra.get("steals", 0) / max(reps, 1)
    out["fleet.tiercache.l2_hit_ratio"] = tracer.mean("fleet.tiercache.hit")
    out["fleet.builds"] = (tracer.count["serve.batcher.build_entry"] / reps
                           if reps else 0.0)
    hedges = phase.extra.get("hedges", 0)
    out["fleet.defense.hedge_win_ratio"] = (
        phase.extra["hedge_wins"] / hedges if hedges else 0.0)
    out["fleet.service.self_s"] = tracer.self_time.get(
        "fleet.service.run", 0.0) / n
    makespans = phase.extra.get("makespans")
    out["fleet.makespan_ticks"] = (quantile(makespans, 0.5)
                                   if makespans else 0.0)
    ticks = phase.extra.get("tick_latency")
    out["fleet.latency_p99_ticks"] = quantile(ticks, 0.99) if ticks else 0.0
    for stage in ("build", "factor", "solve"):
        out[f"serve.model.cost_{stage}_ticks"] = (
            tracer.sums[f"model.{stage}"][1] / n)
    thr_a, thr_b = untraced.throughput(), phase.throughput()
    out["trace.overhead.throughput_share"] = (thr_a - thr_b) / thr_a
    p50 = [quantile(untraced.latency, 0.5), quantile(phase.latency, 0.5)]
    out["trace.overhead.latency_p50_share"] = (p50[1] - p50[0]) / p50[0]
    return out


def stage_report(phase) -> list[str]:
    """cold_sphere: modelled ticks next to measured wall time for each
    stage, and whether the two rank the stages (and the kinds) alike.
    A report for cost-model calibration; nothing is gated on it."""
    from stats import quantile

    lines = ["stage       kind      wall_ms(p50)  modelled_ticks(p50)"]
    stages = ("build", "factor", "solve")
    totals = {}
    agree = True
    cover = []
    for kind in ("poisson", "sbm"):
        rows = [r for r in phase.stages if r[0] == kind]
        if not rows:
            continue
        wall = [quantile([r[2 + j] * 1e3 for r in rows], 0.5)
                for j in range(3)]
        model = [quantile([r[5 + j] for r in rows], 0.5) for j in range(3)]
        totals[kind] = (sum(wall), sum(model))
        for j, stage in enumerate(stages):
            lines.append(f"{stage:<11} {kind:<9} {wall[j]:>12.2f}  "
                         f"{model[j]:>19.0f}")
        same = (sorted(range(3), key=wall.__getitem__)
                == sorted(range(3), key=model.__getitem__))
        agree &= same
        lines.append(f"  {kind}: stage ranking by model "
                     f"{'matches' if same else 'DIFFERS FROM'} wall clock")
        cover.extend(rows)
    if len(totals) == 2:
        by_wall = totals["poisson"][0] > totals["sbm"][0]
        by_model = totals["poisson"][1] > totals["sbm"][1]
        lines.append(
            "  kinds: model ranks "
            f"{'poisson' if by_model else 'sbm'} costlier, wall clock ranks "
            f"{'poisson' if by_wall else 'sbm'} costlier"
            f" -> {'same' if by_wall == by_model else 'DIFFERENT'} ranking")
        agree &= by_wall == by_model
    if cover:
        layers = quantile([sum(r[2:5]) for r in cover], 0.5)
        latency = quantile([r[1] for r in cover], 0.5)
        lines.append(
            f"  build_entry+ensure_factor+solve_batch p50 {layers * 1e3:.1f} "
            f"ms = {100 * layers / latency:.1f}% of p50 latency "
            f"{latency * 1e3:.1f} ms")
    lines.append(f"  model and wall clock rank alike: "
                 f"{'yes' if agree else 'no'}")
    return lines


# -- one run -------------------------------------------------------------


def _measure(workload, state, *, seconds=None, count=None, tracer=None):
    from check import check_watched
    from tracer import Capture, Patches, install_tracing

    capture = Capture()
    with Patches() as patches:
        if tracer is not None:
            install_tracing(patches, tracer)
        capture.install(patches)
        phase = workload.measure(state, capture=capture, seconds=seconds,
                                 count=count, tracer=tracer)
    rss = peak_rss_mb()
    return phase, check_watched(capture), rss


def _repeats_differ(phase) -> bool:
    """A workload that repeats identical runs must repeat its results."""
    return any(len(d) > 1 for d in phase.repeats.values())


def run(workload, seconds: float, trace: bool, import_s: float) -> dict:
    """Set up, measure and check one workload; returns the result doc."""
    from stats import MIN_BEYOND

    report: list[str] = []
    if not trace:
        times = []
        for _ in range(SETUP_REPEATS):
            # one set-up alive at a time, so peak_rss_mb sees one service
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup()
            times.append(time.perf_counter() - t0)
        setup_s = import_s + sorted(times)[len(times) // 2]
        phase, checks, rss_mb = _measure(workload, state, seconds=seconds)
        bad_checks = sum(not c["ok"] for c in checks)
        failed = phase.attempted - phase.ok + bad_checks
        metrics, detail = end_to_end(phase, workload, setup_s, bad_checks,
                                     rss_mb)
        if detail["latency_ms"]["tail_beyond"] < MIN_BEYOND:
            report.append(
                f"warning: only {detail['latency_ms']['tail_beyond']} "
                f"samples beyond p{100 * workload.tail_q:g}")
        detail["setup_repeats_s"] = times
        detail["import_s"] = import_s
        mismatch = _repeats_differ(phase)
        failed += mismatch
        units = END_TO_END
    else:
        from tracer import Tracer

        untraced, checks_a, _ = _measure(workload, workload.setup(),
                                         seconds=seconds / 2)
        tracer = Tracer()
        phase, checks, _ = _measure(workload, workload.setup(),
                                    count=untraced.count, tracer=tracer)
        checks += checks_a
        bad_checks = sum(not c["ok"] for c in checks)
        mismatch = (phase.digests != untraced.digests
                    or _repeats_differ(phase))
        failed = (phase.attempted - phase.ok + untraced.attempted
                  - untraced.ok + bad_checks + mismatch)
        metrics = per_layer(tracer, phase, untraced)
        detail = {"spans": tracer.to_doc(),
                  "traced": {"requests": phase.ok,
                             "throughput_rps": phase.throughput()},
                  "untraced": {"requests": untraced.ok,
                               "throughput_rps": untraced.throughput()}}
        report.append("per-layer metrics read 0 where this workload never "
                      "reaches the layer")
        if workload.name == "cold_sphere":
            report += stage_report(phase)
        phase.attempted += untraced.attempted
        units = layer_units(workload.name)
    if trace or phase.repeats:
        across = "traced and untraced runs" if trace else "repetitions"
        report.append(f"results identical across {across}: "
                      f"{'no' if mismatch else 'yes'}")
    correct = failed == 0
    return {
        "correct": correct,
        "attempted": phase.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
        "checks": {"passed": len(checks) - bad_checks,
                   "failed": [c for c in checks if not c["ok"]]},
        "detail": detail,
        "report": report,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}: run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    nproc = pin_thread_pools()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.serve  # noqa: F401

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    import_s = 0.0 if args.trace else import_seconds()
    doc = run(workload, args.seconds, bool(args.trace), import_s)
    doc["env"] = environment(nproc)
    doc.update(workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(doc, indent=1, default=float))
    print_report(doc)
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0 if doc["correct"] else 1


def print_report(doc: dict) -> None:
    print(f"# {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"seconds={doc['seconds']}")
    print("# env " + json.dumps(doc["env"], sort_keys=True))
    for name, m in doc["metrics"].items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    for line in doc["report"]:
        print(line)
    bad = doc["checks"]["failed"]
    passed = doc["checks"]["passed"]
    print(f"reference checks: {passed}/{passed + len(bad)} passed")
    for c in bad[:5]:
        print("  FAILED " + json.dumps(c, default=float))
    if len(bad) > 5:
        print(f"  ... and {len(bad) - 5} more failed checks")


if __name__ == "__main__":
    sys.exit(main())
