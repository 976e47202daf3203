"""The three benchmark workloads and their correctness checks.

Each workload turns a seeded generator into program inputs, calls phaserx
through its public entry points, times every request, and checks the
outputs.  Calls go through module attributes (``receivers.perr_...``) so
that the hooks in :mod:`tracing` see them in a traced pass.

An untraced run is split into rounds of equal nominal work.  On a shared
machine the speed of a core swings by up to 2x over seconds to minutes, and
a slow spell can outlast a whole run.  So a fixed probe computation, which
does not depend on the inputs or on phaserx (:class:`Probe`), is timed just
before and just after each round (each ``optimize`` call of a sweep), and
every time measured in the round is scaled by the probe's reference time
over its mean time: the timing metrics are times on a machine on which the
probe takes its reference time.  When every
round repeats the same requests (``sweep``, ``mc``), each request then
takes its median scaled time over the repeats; when every round holds
fresh requests (``eval``), all rounds are pooled.
"""

from __future__ import annotations

import csv
import math
import os
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from phaserx import cli, constellation, helstrom, montecarlo, optimizer, phasenoise, receivers

import tracing


@dataclass
class Round:
    """One round of requests: their total time, latencies and completed work.

    ``parts`` holds the seconds of each request of a round that repeats the
    same requests as every other round, in a fixed order.  ``scale`` turns
    the round's times into reference-machine times (:meth:`Probe.scale` of
    the probes around it); ``part_scales``, when given, does so per part."""

    seconds: float
    latencies_ms: list[float]
    work: float
    parts: list[float] = field(default_factory=list)
    scale: float = 1.0
    part_scales: list[float] = field(default_factory=list)

    def scaled_parts(self) -> list[float]:
        return [p * s for p, s in zip(self.parts, self.part_scales or [self.scale] * len(self.parts))]


@dataclass
class Outcome:
    """What a workload did: its rounds, operation counts and failed checks."""

    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    report: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    tracer: tracing.Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.check_failures

    def fail_check(self, what: str) -> None:
        self.check_failures.append(what)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile of a ladder with at least :data:`TAIL_BEYOND`
    samples beyond it.

    Returns ``(percentile, value)``; when no ladder step qualifies, the
    maximum is returned as percentile 100.
    """
    v = sorted(latencies)
    n = len(v)
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        idx = math.ceil(p / 100.0 * n) - 1
        if n - 1 - idx >= TAIL_BEYOND:
            return p, v[idx]
    return 100.0, v[-1]


def median_parts(rounds: list[Round]) -> list[float]:
    """Each repeated request's median scaled time over the rounds."""
    return [statistics.median(times) for times in zip(*(r.scaled_parts() for r in rounds))]


def evenly_spaced(rounds: list[Round], k: int) -> list[Round]:
    """``k`` rounds spread evenly over the run (all of them if fewer)."""
    if len(rounds) <= k:
        return rounds
    return [rounds[round(i * (len(rounds) - 1) / (k - 1))] for i in range(k)]


def pooled(rounds: list[Round]) -> dict:
    """Throughput, median and tail latency of the rounds, in scaled times.

    Repeated rounds form one request whose time is the sum of its parts'
    median scaled times.  Otherwise every round is pooled for throughput and
    median; the tail comes from :data:`TAIL_ROUNDS` evenly spaced rounds,
    so that it stays at the same percentile when more rounds fit in a run.
    The report also gives the unscaled figures of the same statistics."""
    if rounds[0].parts:
        seconds = sum(median_parts(rounds))
        raw = sum(statistics.median(t) for t in zip(*(r.parts for r in rounds)))
        work = min(r.work for r in rounds)
        latencies, raw_latencies = [1e3 * seconds], [1e3 * raw]
        tail_from, raw_tail_from = latencies, raw_latencies
    else:
        seconds = sum(r.seconds * r.scale for r in rounds)
        raw = sum(r.seconds for r in rounds)
        work = sum(r.work for r in rounds)
        latencies = [x * r.scale for r in rounds for x in r.latencies_ms]
        raw_latencies = [x for r in rounds for x in r.latencies_ms]
        few = evenly_spaced(rounds, TAIL_ROUNDS)
        tail_from = [x * r.scale for r in few for x in r.latencies_ms]
        raw_tail_from = [x for r in few for x in r.latencies_ms]
    pct, tail_ms = tail(tail_from)
    return {
        "throughput_per_s": work / seconds,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "tail_percentile": pct,
        "tail_samples": len(tail_from),
        "samples": len(latencies),
        "unscaled": {"throughput_per_s": work / raw,
                     "latency_p50_ms": statistics.median(raw_latencies),
                     "latency_tail_ms": tail(raw_tail_from)[1]},
        "scale_median": statistics.median(s for r in rounds for s in r.part_scales or [r.scale]),
        "rounds_s": [r.seconds for r in rounds],
    }


class Probe:
    """A fixed computation, independent of the inputs and of phaserx, timed
    to gauge the machine's speed now for work of its kind.

    ``ref_s`` is about its time on a 2-core Intel Xeon VM when the host is
    quiet; in the host's busy spells it takes up to twice that."""

    def __init__(self, work: Callable[[], object], ref_s: float):
        self.work = work
        self.ref_s = ref_s

    def __call__(self) -> float:
        """Seconds the computation takes now."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self, *times: float) -> float:
        """Factor from times measured while the probe took ``times`` to
        times on the reference machine."""
        return self.ref_s * len(times) / sum(times)


def _array_work(x: np.ndarray, steps: int) -> None:
    for _ in range(steps):
        y = np.cos(6.0 * x) + x
        int((np.sqrt(y * y + 1.0) > 1.2).sum())


# The host's busy spells slow small-array and large-array numpy by
# different amounts, so each workload is gauged by a probe shaped like its
# work: SMALL_PROBE (200 passes of a few array operations on 96 nodes, as
# many as a phase average of order 64 uses) for the eval calls; LARGE_PROBE
# (one pass over 2.5e5 elements, as long as one oracle call's trial arrays)
# for the oracle.  Over 150 s of alternating probes and fixed rounds of
# work, the medians of eight windows ranged over 0.44 of their median for a
# round of 400 eval calls unscaled, 0.07 over SMALL_PROBE and 0.16 over
# LARGE_PROBE; over 0.26 for a round of the six oracle calls, 0.12 over
# LARGE_PROBE and 0.19 over SMALL_PROBE.  A sweep's optimize calls last
# seconds, and probes at their ends did not follow the machine's speed
# within them, so the sweep takes SMALL_PROBE every SWEEP_PROBE_INTERVAL
# seconds while it runs (:class:`SpeedSampler`), about 1% of its time.
_SMALL_X = np.linspace(0.0, 1.0, 96)
_LARGE_X = np.linspace(0.0, 1.0, 250_000)
SMALL_PROBE = Probe(lambda: _array_work(_SMALL_X, 200), 1.0e-3)
LARGE_PROBE = Probe(lambda: _array_work(_LARGE_X, 1), 4.0e-3)


class SpeedSampler:
    """Times ``probe`` every ``interval`` seconds, from a SIGALRM handler
    that runs between the bytecodes of whatever is running, so that work
    lasting seconds can be scaled by the machine's speed during it.

    Use as a context manager; every interval measured must lie inside it."""

    def __init__(self, probe: Probe, interval: float):
        self.probe = probe
        self.interval = interval
        self.marks: list[tuple[float, float, float]] = []  # probe start, end, scale

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        seconds = self.probe()
        self.marks.append((t0, t0 + seconds, self.probe.scale(seconds)))

    def __enter__(self) -> SpeedSampler:
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._tick()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Seconds from ``start`` to ``end`` outside the probes, and the same
        in reference-machine time: each stretch between two probes is
        scaled by the mean of their scales."""
        seconds = scaled = 0.0
        for (_, end0, f0), (start1, _, f1) in zip(self.marks, self.marks[1:]):
            overlap = min(end, start1) - max(start, end0)
            if overlap > 0.0:
                seconds += overlap
                scaled += overlap * 0.5 * (f0 + f1)
        return seconds, scaled


# Rounds of fresh eval points that the tail is pooled from (25,600 calls),
# and the calls the tail needs beyond it: with these, the tail is p99 with
# 256 calls beyond it.  A run makes at least TAIL_ROUNDS rounds.
TAIL_ROUNDS = 64
TAIL_BEYOND = 100


def _in_unit_half(x: float) -> bool:
    return 0.0 <= x <= 0.5


def _traced(out: Outcome, fn):
    """Run ``fn`` with the layer hooks installed, spans going to ``out.tracer``."""
    if out.tracer is None:
        out.tracer = tracing.Tracer()
    hooks = tracing.Hooks(out.tracer).install()
    try:
        return fn()
    finally:
        hooks.remove()
        out.report["missing_hooks"] = hooks.missing


# ---------------------------------------------------------------------------
# sweep: the paper's curve through the CLI

SWEEP_ARGS = ["--sigma-min", "0", "--sigma-max", "0.45", "--step", "0.15",
              "--pnr-list", "1,8", "--jobs", "1"]
SWEEP_PNRS = (1, 8)
SWEEP_SIGMAS = 4
SWEEP_MIN_ROUNDS = 2
SWEEP_PROBE_INTERVAL = 0.1


def _run_sweep(nbar: float, tmpdir: str, cells: list[tuple[float, float]] | None = None):
    """One sweep-sigma command; returns its start and end
    (``time.perf_counter``), exit code and CSV rows.

    With ``cells``, the start and end of each cell's ``optimize`` call are
    appended to it.  This timer is the one hook of an untraced run: eight
    calls per sweep, so it costs nothing measurable."""
    path = os.path.join(tmpdir, "sweep.csv")
    if os.path.exists(path):
        os.remove(path)
    argv = ["sweep-sigma", "--nbar", repr(nbar), *SWEEP_ARGS, "--output", path]
    plain = getattr(optimizer, "optimize", None)
    if cells is not None and plain is not None:
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return plain(*args, **kwargs)
            finally:
                cells.append((t0, time.perf_counter()))

        optimizer.optimize = timed
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        t1 = time.perf_counter()
        if plain is not None:
            optimizer.optimize = plain
    rows = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return (t0, t1), code, rows


def _check_sweep(out: Outcome, nbar: float, code: int, rows: list[dict]) -> list[float]:
    """Checks every cell of one sweep; returns the filled cells' perr values."""
    cells = SWEEP_SIGMAS * len(SWEEP_PNRS)
    out.attempted += cells
    if code != 0:
        out.fail_check(f"sweep nbar={nbar!r}: exit code {code}")
    perrs, bad = [], set()

    def fail(p: int, what: str) -> None:
        bad.add((row["sigma"], p))
        out.fail_check(f"sweep nbar={nbar!r} sigma={row['sigma']} pnr={p}: {what}")

    for row in rows:
        value = {p: float(row[f"perr_pnr{p}"]) if row[f"perr_pnr{p}"] else None
                 for p in SWEEP_PNRS}
        for p, v in value.items():
            if v is None:
                fail(p, "cell not filled")
            elif not _in_unit_half(v):
                fail(p, f"perr {v!r} outside [0, 0.5]")
            else:
                perrs.append(v)
        top, low, high = SWEEP_PNRS[-1], value[SWEEP_PNRS[0]], value[SWEEP_PNRS[-1]]
        if low is not None and high is not None and not high <= low:
            fail(top, f"perr {high!r} above perr_pnr{SWEEP_PNRS[0]} {low!r}")
        bound = row["perr_helstrom_at_optimum"]
        if high is not None and bound and not high >= float(bound):
            fail(top, f"perr {high!r} below Helstrom at the optimum {bound}")
    missing = cells - len(SWEEP_PNRS) * len(rows)
    if missing:
        out.fail_check(f"sweep nbar={nbar!r}: {missing} cells missing")
    out.failed += len(bad) + missing
    return perrs


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def sweep(rng: np.random.Generator, seconds: float, tmpdir: str) -> Outcome:
    """The same sweep until ``seconds`` have passed, and at least twice.

    A sweep takes 15 to 30 s, so only two fit in a run.  Each of its cells,
    and the rest of the command (Helstrom columns, CSV) as one more part,
    is scaled by :class:`SpeedSampler` and takes its median over the
    repeats."""
    out = Outcome()
    nbar = 1.5 + float(rng.random())
    started = time.perf_counter()
    with SpeedSampler(SMALL_PROBE, SWEEP_PROBE_INTERVAL) as sampler:
        while len(out.rounds) < SWEEP_MIN_ROUNDS or time.perf_counter() - started < seconds:
            cells: list[tuple[float, float]] = []
            command, code, rows = _run_sweep(nbar, tmpdir, cells)
            failed_before = out.failed
            perrs = _check_sweep(out, nbar, code, rows)
            cells_ok = SWEEP_SIGMAS * len(SWEEP_PNRS) - (out.failed - failed_before)
            out.rounds.append(_sweep_round(sampler, command, cells, cells_ok))
    out.report.update(nbar=nbar, sweep_perr_geomean=_geomean(perrs),
                      sweep_s=sum(median_parts(out.rounds)),
                      sweep_command_s=[r.seconds for r in out.rounds],
                      sizes={"sweeps": len(out.rounds), "argv": SWEEP_ARGS})
    return out


def _sweep_round(sampler: SpeedSampler, command: tuple[float, float],
                 cells: list[tuple[float, float]], work: float) -> Round:
    wall, scaled = sampler.measure(*command)
    parts = [sampler.measure(*cell) for cell in cells]
    parts.append((wall - sum(p for p, _ in parts), scaled - sum(s for _, s in parts)))
    return Round(wall, [1e3 * wall], work, [p for p, _ in parts],
                 part_scales=[s / p if p > 0.0 else 1.0 for p, s in parts])


def sweep_traced(rng: np.random.Generator, seconds: float, tmpdir: str) -> Outcome:
    """One sweep untraced, then the same sweep traced."""
    out = Outcome()
    nbar = 1.5 + float(rng.random())
    (p0, p1), _, _ = _run_sweep(nbar, tmpdir)
    (t0, t1), code, rows = _traced(out, lambda: _run_sweep(nbar, tmpdir))
    plain, traced = p1 - p0, t1 - t0
    perrs = _check_sweep(out, nbar, code, rows)
    out.layers = {"optimizer.perr_geomean": _geomean(perrs),
                  "trace.overhead_share": traced / plain - 1.0}
    out.report.update(nbar=nbar, untraced_s=plain, traced_s=traced,
                      sizes={"sweeps": 1, "argv": SWEEP_ARGS})
    return out


# ---------------------------------------------------------------------------
# eval: independent single-point library calls

EVAL_POINTS_PER_ROUND = 100
EVAL_KINDS = ("kennedy", "helstrom", "bpsk_hom", "photocount")
EVAL_TRUNCATION = 20

# Every call converges below sigma 0.6 (the lowest failing sigma found in
# 21k random points was 0.65, a photocount distribution at nbar 3-5), so the
# workload's points stay below 0.5 and no operation fails.  Above it the
# Gauss-Hermite average raises ConvergenceError for a growing share of calls
# (ROADMAP item 3); the traced run measures that share on a fixed number of
# points with sigma in [0.5, 1.5] (:func:`wide_sigma_fail_share`).
EVAL_SIGMA_MAX = 0.5
WIDE_SIGMA = (0.5, 1.5)
WIDE_SIGMA_POINTS = 64
WIDE_SIGMA_KINDS = ("kennedy", "bpsk_hom", "photocount")


@dataclass(frozen=True)
class Point:
    nbar: float
    c: constellation.BinaryConstellation
    cfg: receivers.ReceiverConfig
    noise: phasenoise.PhaseNoise


def eval_points(rng: np.random.Generator, n: int,
                sigmas: tuple[float, float] = (0.0, EVAL_SIGMA_MAX)) -> list[Point]:
    """``n`` points with nbar and sigma stratified (one point in each n-th of
    either range), so that every round holds a like mix of cheap points and
    of costly ones."""
    points = []
    nbar_strata, sigma_strata = rng.permutation(n).tolist(), rng.permutation(n).tolist()
    lo, hi = sigmas
    for i in range(n):
        nbar = 0.5 + 4.5 * (nbar_strata[i] + float(rng.random())) / n
        sigma = lo + (hi - lo) * (sigma_strata[i] + float(rng.random())) / n
        theta = float(rng.uniform(0.0, math.pi))
        pnr = int(rng.integers(1, 9))
        k = int(rng.integers(0, pnr))
        beta = float(rng.uniform(-1.0, 1.0)) * 3.0 * math.sqrt(2.0 * nbar)
        points.append(Point(
            nbar=nbar,
            c=constellation.parametrize(theta, nbar),
            cfg=receivers.ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=pnr),
            noise=phasenoise.PhaseNoise(sigma),
        ))
    return points


def _eval_call(kind: str, p: Point):
    if kind == "kennedy":
        return receivers.perr_generalized_kennedy(p.c, p.cfg, p.noise)
    if kind == "helstrom":
        return helstrom.perr_helstrom(p.c, p.noise)
    if kind == "bpsk_hom":
        return receivers.perr_bpsk_hom(p.nbar, p.noise)
    return receivers.photocount_distribution(p.c.alpha1, p.cfg.beta, p.noise, EVAL_TRUNCATION)


def _eval_ok(out: Outcome, kind: str, p: Point, value, kennedy) -> bool:
    where = f"eval {kind} nbar={p.nbar!r} sigma={p.noise.sigma!r}"
    if kind == "photocount":
        # Mass plus tail is 1 by construction of the tail; the bounds on each
        # probability and on the tail are what can fail.  Each probability is
        # a phase average accurate to a relative 1e-10 (the default tolerance
        # of phaserx's average), so the counted mass may exceed 1 by that.
        probs, tail_mass = np.asarray(value.probs, dtype=float), float(value.tail_mass)
        mass = float(probs.sum()) + tail_mass
        if not abs(mass - 1.0) <= 1e-12:
            out.fail_check(f"{where}: mass plus tail is {mass!r}")
            return False
        if not (np.all(np.isfinite(probs)) and np.all((probs >= 0.0) & (probs <= 1.0))):
            out.fail_check(f"{where}: a probability outside [0, 1] or not finite")
            return False
        if not tail_mass >= -1e-10:
            out.fail_check(f"{where}: tail mass {tail_mass!r} below 0")
            return False
        return True
    if not _in_unit_half(value):
        out.fail_check(f"{where}: perr {value!r} outside [0, 0.5]")
        return False
    if kind == "helstrom" and kennedy is not None and not value <= kennedy:
        out.fail_check(f"{where}: Helstrom {value!r} above Kennedy {kennedy!r}")
        return False
    return True


def _eval_round(out: Outcome, points: list[Point]) -> Round:
    latencies, ok = [], 0
    for p in points:
        kennedy = None
        for kind in EVAL_KINDS:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                value = _eval_call(kind, p)
            except Exception as exc:  # every raised call is a failed operation
                latencies.append(1e3 * (time.perf_counter() - t0))
                out.errors[type(exc).__name__] += 1
                out.failed += 1
                continue
            latencies.append(1e3 * (time.perf_counter() - t0))
            if kind == "kennedy":
                kennedy = value
            if _eval_ok(out, kind, p, value, kennedy):
                ok += 1
            else:
                out.failed += 1
    return Round(1e-3 * sum(latencies), latencies, ok)


def evaluate(rng: np.random.Generator, seconds: float, tmpdir: str) -> Outcome:
    """Rounds of fresh points until ``seconds`` have passed, and at least
    :data:`TAIL_ROUNDS`, each between two machine probes."""
    out = Outcome()
    started = time.perf_counter()
    while len(out.rounds) < TAIL_ROUNDS or time.perf_counter() - started < seconds:
        before = SMALL_PROBE()
        r = _eval_round(out, eval_points(rng, EVAL_POINTS_PER_ROUND))
        r.scale = SMALL_PROBE.scale(before, SMALL_PROBE())
        out.rounds.append(r)
    out.report["sizes"] = {"rounds": len(out.rounds), "points_per_round": EVAL_POINTS_PER_ROUND}
    return out


def wide_sigma_fail_share(rng: np.random.Generator) -> float:
    """Share of the phase-averaging calls on :data:`WIDE_SIGMA_POINTS` points
    with sigma in :data:`WIDE_SIGMA` that raise ``ConvergenceError``.

    These calls are a measurement of the convergence defect, not operations
    of the workload: they run untraced and outside its counts."""
    raised = calls = 0
    for p in eval_points(rng, WIDE_SIGMA_POINTS, WIDE_SIGMA):
        for kind in WIDE_SIGMA_KINDS:
            calls += 1
            try:
                _eval_call(kind, p)
            except phasenoise.ConvergenceError:
                raised += 1
    return raised / calls


def evaluate_traced(rng: np.random.Generator, seconds: float, tmpdir: str) -> Outcome:
    """A fixed number of rounds, each run untraced and traced on the same
    points, in alternating order; counts come from the traced halves.  Then
    the share of calls that fail to converge at wide sigma."""
    out, scratch = Outcome(), Outcome()
    plain = traced = 0.0
    for i in range(max(1, round(seconds / 2))):
        points = eval_points(rng, EVAL_POINTS_PER_ROUND)
        for trace_it in ((False, True) if i % 2 == 0 else (True, False)):
            if trace_it:
                traced += _traced(out, lambda: _eval_round(out, points)).seconds
            else:
                plain += _eval_round(scratch, points).seconds
    out.layers = {"optimizer.perr_geomean": 0.0, "trace.overhead_share": traced / plain - 1.0,
                  "phasenoise.wide_sigma.fail_share": wide_sigma_fail_share(rng)}
    out.report["sizes"] = {"rounds": i + 1, "points_per_round": EVAL_POINTS_PER_ROUND,
                           "wide_sigma_points": WIDE_SIGMA_POINTS}
    return out


# ---------------------------------------------------------------------------
# mc: the sampling oracle against the analytic values

MC_TRIALS = 250_000
MC_Z_LIMIT = 4.0


@dataclass
class OracleConfig:
    name: str
    c: constellation.BinaryConstellation
    cfg: object
    noise: phasenoise.PhaseNoise
    scheme: str
    orientation: str
    perr: float
    errors: int = 0
    trials: int = 0
    raised: int = 0


# (K, nbar, theta, beta as a share of 1.5*sqrt(2*nbar), sigma) of the four
# photon-counting configs, and (nbar, sigma) of the two homodyne ones.  The
# cost of Poisson inversion grows with a config's largest photon number, so
# the shapes are fixed and the seed only jitters them: the work per trial
# then stays the same from seed to seed.
MC_KENNEDY = ((0, 1.0, 2.4, 0.5, 0.1), (1, 2.0, 1.57, -0.3, 0.3),
              (2, 3.5, 2.0, 0.2, 0.5), (0, 4.5, 1.2, -0.6, 0.7))
MC_HOMODYNE = ((1.0, 0.3), (3.0, 0.6))


def mc_configs(rng: np.random.Generator) -> list[OracleConfig]:
    """Four photon-counting configs (K = 0, 1, 2, 0 with PNR = K + 1) and two
    homodyne BPSK configs, each parameter jittered by a few percent."""
    jitter = lambda x: x * float(rng.uniform(0.95, 1.05))  # noqa: E731
    configs = []
    for i, (k, nbar, theta, frac, sigma) in enumerate(MC_KENNEDY):
        nbar, noise = jitter(nbar), phasenoise.PhaseNoise(jitter(sigma))
        c = constellation.parametrize(jitter(theta), nbar)
        cfg = receivers.ReceiverConfig(beta=jitter(frac) * 1.5 * math.sqrt(2.0 * nbar),
                                       threshold_k=k, pnr_ceiling=k + 1)
        perr, orientation = receivers.generalized_kennedy_detail(c, cfg, noise)
        configs.append(OracleConfig(f"kennedy{i}", c, cfg, noise,
                                    montecarlo.SCHEME_KENNEDY, orientation, perr))
    for j, (nbar, sigma) in enumerate(MC_HOMODYNE):
        nbar, noise = jitter(nbar), phasenoise.PhaseNoise(jitter(sigma))
        configs.append(OracleConfig(f"homodyne{j}", constellation.make_bpsk(nbar), 0.0, noise,
                                    montecarlo.SCHEME_HOMODYNE, receivers.BIT1_HIGH,
                                    receivers.perr_bpsk_hom(nbar, noise)))
    return configs


def _mc_round(out: Outcome, configs: list[OracleConfig], seeds: list[int],
              tally: bool = True) -> Round:
    """One oracle call per config; ``tally`` adds the outcomes to the configs."""
    latencies, trials = [], 0
    for oc, seed in zip(configs, seeds):
        t = montecarlo.TrialConfig(trials=MC_TRIALS, seed=seed, scheme=oc.scheme)
        t0 = time.perf_counter()
        try:
            estimate, _ = montecarlo.simulate_perr(oc.c, oc.cfg, oc.noise, t,
                                                   orientation=oc.orientation)
        except Exception as exc:  # a raised oracle call fails its configuration
            latencies.append(1e3 * (time.perf_counter() - t0))
            out.errors[type(exc).__name__] += 1
            oc.raised += tally
            continue
        seconds = time.perf_counter() - t0
        latencies.append(1e3 * seconds)
        trials += MC_TRIALS
        if tally:
            oc.errors += round(estimate * MC_TRIALS)
            oc.trials += MC_TRIALS
    # The request is the whole pass over the six configurations.
    seconds = 1e-3 * sum(latencies)
    return Round(seconds, [1e3 * seconds], trials, [1e-3 * x for x in latencies])


def _check_mc(out: Outcome, configs: list[OracleConfig]) -> None:
    """|z| <= 4 for every configuration, over all its trials in the run."""
    zs = {}
    for oc in configs:
        out.attempted += 1
        if oc.trials:
            se = math.sqrt(oc.perr * (1.0 - oc.perr) / oc.trials)
            z = (oc.errors / oc.trials - oc.perr) / se if se > 0.0 else (
                0.0 if oc.errors == 0 else math.inf)
            zs[oc.name] = z
        if oc.raised or not oc.trials:
            out.failed += 1
        elif abs(zs[oc.name]) > MC_Z_LIMIT:
            out.failed += 1
            out.fail_check(f"mc {oc.name}: |z| = {abs(zs[oc.name]):.2f} > {MC_Z_LIMIT}")
    out.report["z"] = zs


def oracle(rng: np.random.Generator, seconds: float, tmpdir: str) -> Outcome:
    """Rounds over the same six configs with fresh trial seeds until
    ``seconds`` have passed, each between two machine probes."""
    out = Outcome()
    configs = mc_configs(rng)
    started = time.perf_counter()
    while not out.rounds or time.perf_counter() - started < seconds:
        seeds = [int(s) for s in rng.integers(0, 2**62, size=len(configs))]
        before = LARGE_PROBE()
        r = _mc_round(out, configs, seeds)
        r.scale = LARGE_PROBE.scale(before, LARGE_PROBE())
        out.rounds.append(r)
    _check_mc(out, configs)
    out.report["sizes"] = {"rounds": len(out.rounds), "configs": len(configs),
                           "trials_per_call": MC_TRIALS}
    best = median_parts(out.rounds)
    for scheme, key in ((montecarlo.SCHEME_KENNEDY, "mc_kennedy_trials_per_s"),
                        (montecarlo.SCHEME_HOMODYNE, "mc_homodyne_trials_per_s")):
        mine = [b for b, oc in zip(best, configs) if oc.scheme == scheme]
        out.report[key] = MC_TRIALS * len(mine) / sum(mine)
    return out


def oracle_traced(rng: np.random.Generator, seconds: float, tmpdir: str) -> Outcome:
    """A fixed number of rounds, each run untraced and traced with the same
    trial seeds, in alternating order; counts come from the traced halves."""
    out, scratch = Outcome(), Outcome()
    configs = mc_configs(rng)
    plain = traced = 0.0
    for i in range(max(1, round(seconds / 2))):
        seeds = [int(s) for s in rng.integers(0, 2**62, size=len(configs))]
        for trace_it in ((False, True) if i % 2 == 0 else (True, False)):
            if trace_it:
                traced += _traced(out, lambda: _mc_round(out, configs, seeds)).seconds
            else:
                plain += _mc_round(scratch, configs, seeds, tally=False).seconds
    _check_mc(out, configs)
    out.layers = {"optimizer.perr_geomean": 0.0, "trace.overhead_share": traced / plain - 1.0}
    out.report["sizes"] = {"rounds": i + 1, "configs": len(configs), "trials_per_call": MC_TRIALS}
    return out


WORKLOADS = {
    "sweep": (sweep, sweep_traced),
    "eval": (evaluate, evaluate_traced),
    "mc": (oracle, oracle_traced),
}
