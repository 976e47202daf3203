"""In-memory span tracer and the hooks that time each phaserx layer from outside.

Every hook replaces a name in the module namespace where that layer's callers
look it up (``setattr(module, name, wrapper)``), so the program itself is not
changed.  A span records its name, start, end, parent span and one integer
(a node count, a trial count, a matrix dimension ...).  Self time is a span's
duration minus the time covered by its direct child spans.  The hooks are
removed again by :meth:`Hooks.remove`.

If a hooked name no longer exists in the program, the hook is skipped, the
name is listed in :attr:`Hooks.missing`, and every per-layer metric that
depends on it is reported as ``None``.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Spans kept in flat arrays: name id, parent id, start, end, count."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack: list[int] = []
        self.active: Counter = Counter()
        self.counters: defaultdict = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.active[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.count[idx] = count
        self._stack.pop()
        self.active[self.names[self.name[idx]]] -= 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.int64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, sum and max of counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        self_s = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
                "count": int(a["count"][sel].sum()),
                "max_count": int(a["count"][sel].max(initial=0)),
            }
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _span(tr: Tracer, name: str, fn, count=None, after=None):
    """Wrap ``fn`` in a span; ``count(args, result)`` fills the span's count
    and ``after(args, result, seconds)`` updates counters once it has ended."""

    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tr.close(idx)
            raise
        tr.close(idx)
        if count is not None:
            tr.count[idx] = count(args, out)
        if after is not None:
            after(args, out, tr.end[idx] - tr.start[idx])
        return out

    return wrapper


def _average_hook(tr: Tracer, fn):
    """``phasenoise.average`` seen from ``receivers``: each integrand batch is a
    child span counting its nodes; the average's own count is the node count
    of the order it returned (0 when it raised)."""

    def wrapper(noise, f, *args, **kwargs):
        last = [0]

        def integrand(phases):
            idx = tr.open("receivers.integrand")
            try:
                return f(phases)
            finally:
                tr.close(idx, int(np.size(phases)))
                last[0] = int(np.size(phases))

        if tr.active["receivers.photocount_distribution"]:
            tr.counters["receivers.photocount_distribution.averages"] += 1
        idx = tr.open("phasenoise.average")
        try:
            out = fn(noise, integrand, *args, **kwargs)
        except BaseException:
            tr.close(idx)
            tr.counters["phasenoise.average.failed"] += 1
            raise
        tr.close(idx, last[0])
        return out

    return wrapper


def _kennedy_hook(tr: Tracer, fn):
    inner = _span(tr, "receivers.kennedy", fn)

    def wrapper(*args, **kwargs):
        if tr.active["optimizer.refine"]:
            tr.counters["optimizer.refine.evals"] += 1
        return inner(*args, **kwargs)

    return wrapper


def _golden_hook(tr: Tracer, fn):
    def counted(f):
        def g(x):
            tr.counters["golden.evals"] += 1
            return f(x)
        return g

    inner = _span(tr, "golden", fn)

    def wrapper(f, *args, **kwargs):
        return inner(counted(f), *args, **kwargs)

    return wrapper


class Hooks:
    """Installs every layer hook on the imported ``phaserx`` package."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _module(self, name):
        return importlib.import_module(f"phaserx.{name}")

    def _const(self, module: str, name: str):
        value = getattr(self._module(module), name, None)
        if value is None:
            self.missing.append(f"phaserx.{module}.{name}")
        return value

    def _hook(self, module: str, name: str, make) -> None:
        mod = self._module(module)
        fn = getattr(mod, name, None)
        if fn is None:
            self.missing.append(f"phaserx.{module}.{name}")
            return
        self._saved.append((mod, name, fn))
        setattr(mod, name, make(fn))

    def install(self) -> "Hooks":
        tr = self.tr
        span = lambda name, **kw: (lambda fn: _span(tr, name, fn, **kw))  # noqa: E731
        max_rounds = self._const("optimizer", "MAX_REFINE_ROUNDS")
        grid_order = self._const("optimizer", "GRID_QUAD_ORDER")
        build_rule = self._const("phasenoise", "build_rule")

        def grid_points(args, out):
            problem, perr = args[0], out[2]
            return int(perr.size) * build_rule(problem.noise, grid_order).nodes.size

        def refine_done(args, out, seconds):
            last = out[3][-1][0]
            tr.counters["optimizer.refine.rounds"] += last
            tr.counters["optimizer.refine.capped"] += int(last >= max_rounds)

        def block_done(args, out, seconds):
            scheme = "kennedy" if args[5] == "generalized-kennedy" else args[5]
            tr.counters[f"montecarlo.{scheme}.trials"] += args[4]
            tr.counters[f"montecarlo.{scheme}.s"] += seconds

        self._hook("receivers", "average", lambda fn: _average_hook(tr, fn))
        for module in ("receivers", "optimizer"):
            self._hook(module, "generalized_kennedy_detail", lambda fn: _kennedy_hook(tr, fn))
        self._hook("receivers", "photocount_distribution",
                   span("receivers.photocount_distribution"))
        self._hook("optimizer", "optimize", span("optimizer.optimize"))
        if grid_order is not None and build_rule is not None:
            self._hook("optimizer", "_grid_scan", span("optimizer.grid_scan", count=grid_points))
        if max_rounds is not None:
            self._hook("optimizer", "_refine", span("optimizer.refine", after=refine_done))
        for module in ("optimizer", "helstrom"):
            self._hook(module, "golden_minimize", lambda fn: _golden_hook(tr, fn))
        for module in ("helstrom", "optimizer", "cli"):
            self._hook(module, "perr_helstrom", span("helstrom.perr"))
        self._hook("helstrom", "phase_diffused_state",
                   span("helstrom.build", count=lambda args, out: out.dim))
        self._hook("helstrom", "trace_distance", span("helstrom.eigensolve"))
        self._hook("cli", "optimize_helstrom", span("helstrom.optimize"))
        self._hook("montecarlo", "_run_block", span("montecarlo.block", after=block_done))
        self._hook("montecarlo", "poisson_inverse", span("montecarlo.poisson_inverse"))
        self._hook("cli", "main", span("cli.main"))
        self._hook("cli", "sweep_sigma", span("optimizer.sweep_sigma"))
        return self

    def remove(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()


# Per-layer metric -> the hooked names it needs.  A metric whose names are
# missing from the program is reported as None.
_NEEDS = {
    "phasenoise.": ["receivers.average"],
    "phasenoise.wide_sigma.": [],
    "receivers.integrand.": ["receivers.average"],
    "receivers.kennedy.": ["receivers.generalized_kennedy_detail"],
    "receivers.photocount_distribution.s": ["receivers.photocount_distribution"],
    "receivers.photocount_distribution.averages_per_call": [
        "receivers.photocount_distribution", "receivers.average"],
    "optimizer.optimize.": ["optimizer.optimize"],
    "optimizer.grid_scan.": ["optimizer._grid_scan", "optimizer.GRID_QUAD_ORDER",
                             "phasenoise.build_rule"],
    "optimizer.refine.": ["optimizer._refine", "optimizer.MAX_REFINE_ROUNDS"],
    "optimizer.refine.evals": ["optimizer._refine", "optimizer.MAX_REFINE_ROUNDS",
                               "optimizer.generalized_kennedy_detail"],
    "golden.": ["optimizer.golden_minimize"],
    "helstrom.perr.": ["helstrom.perr_helstrom"],
    "helstrom.build.": ["helstrom.phase_diffused_state"],
    "helstrom.max_dim": ["helstrom.phase_diffused_state"],
    "helstrom.eigensolve.": ["helstrom.trace_distance"],
    "helstrom.optimize.": ["cli.optimize_helstrom"],
    "montecarlo.": ["montecarlo._run_block"],
    "montecarlo.poisson_inverse.": ["montecarlo._run_block", "montecarlo.poisson_inverse"],
    "cli.": ["cli.main", "cli.sweep_sigma", "cli.optimize_helstrom"],
}


def _needs(metric: str) -> list[str]:
    best = ""
    for prefix in _NEEDS:
        if metric.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return [f"phaserx.{n}" for n in _NEEDS.get(best, [])]


def _ratio(num: float, den: float) -> float:
    # A layer that did no work reads 0 rather than an undefined ratio.
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, missing: list[str], extra: dict[str, float]) -> dict:
    """Per-layer metrics from the spans and counters of one traced pass."""
    t = tr.totals()
    c = tr.counters
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "max_count": 0}
    get = lambda name: t.get(name, zero)  # noqa: E731
    avg, integ = get("phasenoise.average"), get("receivers.integrand")
    ken, pd = get("receivers.kennedy"), get("receivers.photocount_distribution")
    refine, golden, block = get("optimizer.refine"), get("golden"), get("montecarlo.block")
    pinv = get("montecarlo.poisson_inverse")
    m = {
        "phasenoise.average.calls": avg["calls"],
        "phasenoise.average.nodes": integ["count"],
        "phasenoise.average.max_order": integ["max_count"],
        "phasenoise.average.self_s": avg["self_s"],
        "phasenoise.average.useful_node_share": _ratio(avg["count"], integ["count"]),
        "phasenoise.average.failed": int(c["phasenoise.average.failed"]),
        "receivers.integrand.s": integ["s"],
        "receivers.kennedy.calls": ken["calls"],
        "receivers.kennedy.us_per_call": 1e6 * _ratio(ken["s"], ken["calls"]),
        "receivers.photocount_distribution.s": pd["s"],
        "receivers.photocount_distribution.averages_per_call": _ratio(
            c["receivers.photocount_distribution.averages"], pd["calls"]),
        "optimizer.optimize.s": get("optimizer.optimize")["s"],
        "optimizer.grid_scan.s": get("optimizer.grid_scan")["s"],
        "optimizer.grid_scan.points": get("optimizer.grid_scan")["count"],
        "optimizer.refine.s": refine["s"],
        "optimizer.refine.evals": int(c["optimizer.refine.evals"]),
        "optimizer.refine.seeds": refine["calls"],
        "optimizer.refine.rounds": int(c["optimizer.refine.rounds"]),
        "optimizer.refine.capped": int(c["optimizer.refine.capped"]),
        "golden.calls": golden["calls"],
        "golden.evals_per_call": _ratio(c["golden.evals"], golden["calls"]),
        "helstrom.perr.calls": get("helstrom.perr")["calls"],
        "helstrom.build.s": get("helstrom.build")["s"],
        "helstrom.eigensolve.s": get("helstrom.eigensolve")["s"],
        "helstrom.max_dim": get("helstrom.build")["max_count"],
        "helstrom.optimize.s": get("helstrom.optimize")["s"],
        "montecarlo.trials": int(
            c["montecarlo.kennedy.trials"] + c["montecarlo.homodyne.trials"]),
        "montecarlo.block.s": block["s"],
        "montecarlo.poisson_inverse.s": pinv["s"],
        "montecarlo.poisson_inverse.block_share": _ratio(pinv["s"], block["s"]),
        "montecarlo.kennedy.trials_per_s": _ratio(
            c["montecarlo.kennedy.trials"], c["montecarlo.kennedy.s"]),
        "montecarlo.homodyne.trials_per_s": _ratio(
            c["montecarlo.homodyne.trials"], c["montecarlo.homodyne.s"]),
        "cli.self_s": get("cli.main")["self_s"],
        # Measured by the eval workload only, outside the hooks.
        "phasenoise.wide_sigma.fail_share": 0.0,
    }
    m.update(extra)
    gone = set(missing)
    for name in m:
        if gone.intersection(_needs(name)):
            m[name] = None
    return m
