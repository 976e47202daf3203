#!/usr/bin/env python3
"""phaserx benchmark: one seeded workload, its checks, and its metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` runs a fixed amount of work, set by ``--seed`` and
``--seconds`` only, so its counts repeat exactly, and reports the per-layer
metrics from hooks installed around each phaserx module.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, with the metric names and units listed in
``BENCHMARK.json``; the line before it holds the full report (the
environment, input sizes, and the workload's own metrics).  Both are also
written to ``bench/out/``, together with the spans of a traced run.

The package is imported from ``src/`` of the checkout; the run exits with
an error, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# One process, one thread: the workloads run with jobs = 1, and BLAS threads
# would compete with them for the two cores.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

# Set-up is timed in fresh processes, half of them before the workload and
# half after it.  Each is scaled to the reference machine by a probe of the
# same kind, a fresh process that imports numpy only, started just before
# and just after it.  Over 100 s of alternating set-ups and probes, the
# medians of eight windows of the set-up time ranged over 0.15 of their
# median unscaled and over 0.04 scaled; probes computing in this process
# did worse (0.09 to 0.18, and unsteady from run to run).
SETUP_RUNS = 6
SETUP_PROBE_CODE = "import numpy"
SETUP_PROBE_REF_S = 0.15
SETUP_CODE = (
    "import numpy as np, phaserx.cli\n"
    "from phaserx.phasenoise import PhaseNoise, average\n"
    "average(PhaseNoise(0.3), np.cos)\n"
)


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import phaserx
    except ImportError as exc:
        sys.exit(f"error: cannot import phaserx from {SRC}: {exc}")
    if not Path(phaserx.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: phaserx was imported from {phaserx.__file__}, not from {SRC}")
    return phaserx


def measure_setup(runs: int) -> list[tuple[float, float]]:
    """Wall time of fresh processes that import the CLI and take a first
    phase average, which builds its first quadrature rules, each with its
    scale to the reference machine from the probe processes around it.

    The waits have no timeout: with one, ``subprocess`` polls the child at
    intervals of up to 50 ms, and the times come out in 50 ms steps.  This
    process has already made the same imports, so a child that hangs on
    them is not expected."""
    from workloads import Probe

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def child(code: str) -> None:
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)

    probe = Probe(lambda: child(SETUP_PROBE_CODE), SETUP_PROBE_REF_S)
    times, before = [], probe()
    for _ in range(runs):
        t0 = time.perf_counter()
        child(SETUP_CODE)
        seconds = time.perf_counter() - t0
        after = probe()
        times.append((seconds, probe.scale(before, after)))
        before = after
    return times


def environment(phaserx) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # the layout of numpy's build report varies by version
        blas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "phaserx": phaserx.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "eval", "mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    phaserx = import_program()
    import numpy as np

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, ("sweep", "eval", "mc").index(args.workload)])
    setup = [] if args.trace else measure_setup(SETUP_RUNS // 2)
    untraced, traced = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        out = (traced if args.trace else untraced)(rng, args.seconds, tmpdir)
    if not args.trace:
        setup += measure_setup(SETUP_RUNS - len(setup))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(phaserx),
        "attempted": out.attempted,
        "failed": out.failed,
        "fail_share": out.failed / out.attempted,
        "errors": dict(out.errors),
        "check_failures": out.check_failures[:20],
        **out.report,
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracing import layer_metrics

        metrics = layer_metrics(out.tracer, out.report.get("missing_hooks", []), out.layers)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: metrics[name] for name in units}
        out.tracer.save(f"{stem}-spans.npz")
    else:
        timing = workloads.pooled(out.rounds)
        values = {
            "setup_s": statistics.median(s * f for s, f in setup),
            "throughput_per_s": timing["throughput_per_s"],
            "latency_p50_ms": timing["latency_p50_ms"],
            "latency_tail_ms": timing["latency_tail_ms"],
            "ok_share": 1.0 - report["fail_share"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        report.update(setup_runs_s=[s for s, _ in setup], setup_scales=[f for _, f in setup],
                      setup_unscaled_s=statistics.median(s for s, _ in setup), timing=timing)
        if args.workload == "eval":
            report.update(eval_per_s=values["throughput_per_s"],
                          eval_p50_ms=values["latency_p50_ms"],
                          eval_tail_ms=values["latency_tail_ms"])
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    report["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
