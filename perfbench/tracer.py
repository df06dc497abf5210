"""Span tracing around the library's layer boundaries, from outside.

The benchmark does not change the library: it replaces the attributes
through which each layer is looked up (module globals, class methods
and properties) with wrappers that record a span, and restores them
afterwards.  A span knows its parent (the innermost open span), so a
layer's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory as they close — per name (calls,
inclusive time, self time) and per parent→child edge — so a
100k-span fleet run costs no more memory than a 10-span one.

:class:`Capture` is the one wrapper the untraced runs also install: it
keeps the solution columns of the requests chosen for the reference
check.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    """In-memory span and counter aggregation."""

    def __init__(self):
        self._stack: list[list] = []      # open spans: [name, child_time]
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        #: free-form accumulators: key -> [calls, sum]
        self.sums: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: raw per-event samples for exact order statistics
        self.samples: dict[str, list] = defaultdict(list)
        #: wall time each admitted PendingItem entered its queue
        self.enqueued: dict[int, float] = {}

    def add(self, key: str, value: float) -> None:
        acc = self.sums[key]
        acc[0] += 1
        acc[1] += value

    def mean(self, key: str) -> float:
        n, s = self.sums.get(key, (0, 0.0))
        return s / n if n else 0.0

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records one ``name`` span; after a
        successful call ``observe(tracer, result, args, dt)`` may add
        counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                tracer.count[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
                edge = tracer.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
            if observe is not None:
                observe(tracer, result, args, dt)
            return result

        return wrapper

    def snapshot(self, names) -> tuple:
        """Inclusive totals of the named spans/accumulators, for
        per-request deltas."""
        return tuple(
            self.total[n] if n in self.total
            else self.sums.get(n, (0, 0.0))[1]
            for n in names
        )

    def to_doc(self) -> dict:
        return {
            "spans": {
                n: {"calls": self.count[n], "total_s": self.total[n],
                    "self_s": self.self_time[n]}
                for n in sorted(self.count)
            },
            "edges": [
                {"parent": p, "child": c, "calls": v[0], "total_s": v[1]}
                for (p, c), v in sorted(self.edges.items(),
                                        key=lambda kv: (str(kv[0][0]),
                                                        kv[0][1]))
            ],
            "sums": {k: {"calls": v[0], "sum": v[1]}
                     for k, v in sorted(self.sums.items())},
        }


class Patches:
    """Attribute replacements restored in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple] = []

    def replace(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original)``.  Properties
        are rewrapped around their getter."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if isinstance(original, property):
            new = property(make(original.fget))
        else:
            new = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _resolve(path: str):
    """``"pkg.mod"`` -> module, ``"pkg.mod:Class"`` -> class; a last
    component that is not a module (``"repro.serve.batcher.spla"``) is
    an attribute of its parent."""
    mod, _, cls = path.partition(":")
    try:
        obj = importlib.import_module(mod)
    except ModuleNotFoundError:
        parent, _, attr = mod.rpartition(".")
        obj = getattr(importlib.import_module(parent), attr)
    return getattr(obj, cls) if cls else obj


# -- observers: counters taken where the work happens ---------------------


def _obs_assembly(tr, A, args, dt):
    tr.add("core.assembly.nnz", A.nnz)


def _obs_splu(tr, lu, args, dt):
    tr.add("serve.batcher.lu_fill", lu.nnz / max(args[0].nnz, 1))


def _obs_cg(tr, res, args, dt):
    its = res.col_iterations
    tr.add("solvers.krylov.iterations",
           float(its.mean()) if its is not None else res.iterations)
    tr.add("solvers.krylov.matvecs", res.matvecs)


def _obs_build(tr, entry, args, dt):
    from repro.serve.scheduler import cost_build

    tr.add("model.build", cost_build(entry.mesh.n_elem))


def _obs_factor(tr, result, args, dt):
    from repro.serve.scheduler import cost_factor

    factor, built = result
    if built:
        tr.add("model.factor", cost_factor(factor.n_nodes))


def _obs_solve(tr, out, args, dt):
    from repro.serve.scheduler import cost_solve

    factor, requests = args[0], args[1]
    cols = len(requests)
    tr.add("serve.batcher.batch_columns", cols)
    tr.sums[f"serve.batcher.solve_s.{factor.kind}"][0] += cols
    tr.sums[f"serve.batcher.solve_s.{factor.kind}"][1] += dt
    tr.add("model.solve", cost_solve(factor.n_nodes, out.matvecs, cols))


def _obs_hit(key):
    def observe(tr, entry, args, dt):
        tr.add(key, entry is not None)
    return observe


def _obs_submit(tr, item, args, dt):
    if item is not None:
        tr.enqueued[id(item)] = perf_counter()


def _obs_next_batch(tr, result, args, dt):
    now = perf_counter()
    for it in result[0]:
        t = tr.enqueued.pop(id(it), None)
        if t is not None:
            tr.samples["serve.scheduler.queue_wait_ms"].append(
                (now - t) * 1e3)


#: (owner, attribute, span name, observer).  Each attribute is the one
#: the caller looks up at call time, so the wrapper sees every call.
LAYERS = (
    ("repro.core.mesh", "construct_adaptive", "core.construct", None),
    ("repro.core.mesh", "balance_2to1", "core.balance", None),
    ("repro.core.mesh", "build_nodes", "core.nodes", None),
    ("repro.serve.batcher", "operator_context", "core.plan", None),
    ("repro.serve.batcher", "assemble", "core.assembly", _obs_assembly),
    ("repro.serve.batcher", "cg", "solvers.krylov.cg", _obs_cg),
    ("repro.serve.batcher.spla", "splu", "serve.batcher.splu", _obs_splu),
    ("repro.fem.sbm", "sbm_terms", "fem.sbm", None),
    ("repro.serve.service", "build_entry", "serve.batcher.build_entry",
     _obs_build),
    ("repro.fleet.service", "build_entry", "serve.batcher.build_entry",
     _obs_build),
    ("repro.serve.service", "ensure_factor", "serve.batcher.ensure_factor",
     _obs_factor),
    ("repro.serve.service", "solve_batch", "serve.batcher.solve_batch",
     _obs_solve),
    ("repro.serve.cache:ArtifactCache", "lookup", "serve.cache.lookup",
     _obs_hit("serve.cache.hit")),
    ("repro.serve.scheduler:Scheduler", "submit", "serve.scheduler.submit",
     _obs_submit),
    ("repro.serve.scheduler:Scheduler", "next_batch",
     "serve.scheduler.next_batch", _obs_next_batch),
    ("repro.serve.api:SolveRequest", "digest", "serve.api.digest", None),
    ("repro.serve.api:SolveRequest", "mesh_digest", "serve.api.digest", None),
    ("repro.serve.api:SolveRequest", "batch_key", "serve.api.digest", None),
    ("repro.obs.events:EventLog", "emit", "obs.events.emit", None),
    ("repro.fleet.router:HashRing", "route", "fleet.router.route", None),
    ("repro.fleet.service", "plan_steals", "fleet.steal.plan", None),
    ("repro.fleet.tiercache:TierCache", "fetch", "fleet.tiercache.fetch",
     _obs_hit("fleet.tiercache.hit")),
    ("repro.fleet.service:FleetService", "run", "fleet.service.run", None),
)


def install_tracing(patches: Patches, tracer: Tracer) -> None:
    for owner, attr, name, observe in LAYERS:
        patches.replace(_resolve(owner), attr,
                        lambda fn, n=name, o=observe: tracer.span(n, fn, o))


class Capture:
    """Keeps the served solution column of every watched request.

    Requests are watched by object identity, so the benchmark never
    computes a request digest of its own inside a measured phase.
    """

    def __init__(self):
        self.watch: dict[int, object] = {}
        self.solutions: dict[int, object] = {}

    def install(self, patches: Patches) -> None:
        import repro.serve.service as service

        def make(fn):
            @functools.wraps(fn)
            def solve_batch(factor, requests, *args, **kwargs):
                out = fn(factor, requests, *args, **kwargs)
                for j, req in enumerate(requests):
                    if id(req) in self.watch:
                        self.solutions[id(req)] = out.solutions[:, j].copy()
                return out
            return solve_batch

        patches.replace(service, "solve_batch", make)
