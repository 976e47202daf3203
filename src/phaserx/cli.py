"""Command-line front end: point evaluations, sweeps, and optimization runs.

Every CSV starts with '#'-prefixed manifest lines (command, parameters, tool
version, timestamp) so a file documents how it was produced; the parameters
line records every parsed option except ``output``, ``jobs``, ``validate``,
``seed`` and ``trace_output``, which change no number (``pk`` records its
resolved ``kmax``, ``sweep-sigma`` its sorted ``pnr_list``).  ``sweep-nbar``
and ``helstrom`` take no ``--tolerance``: every average of ``sweep-nbar`` is
at sigma 0, where the one-node rule is exact, and ``helstrom`` takes its
phase average in closed form.  Data rows are plain comma-separated values
with at least 10 significant digits, and re-running a command with the
same flags reproduces them byte for byte.  An optimized end point
(``alpha0``, ``alpha1``, ``beta`` and ``perr_helstrom_at_optimum``) is
fixed only to about 1e-8, though: refinement stops where one more Newton
step would gain less than an ulp of the error, so a change in the search,
even at the rounding level, can move those columns in their last digits
(a changed stopping rule moved ``beta`` by up to 8.9e-9 over 755 test
problems).  ``perr`` is the certified value.

Exit codes: 0 success, 2 usage error (a size too large to allocate, or a
magnitude too large to represent, is one), 3 I/O error, 4 numerical failure.
An output path that cannot be written fails with 3 before any work is done.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .constellation import (
    BinaryConstellation,
    check_amplitude,
    make_bpsk,
    parametrize,
    psd_watts_per_hz,
)
from .helstrom import fock_dim, optimize_helstrom, perr_helstrom
from .montecarlo import SCHEME_KENNEDY, TrialConfig, simulate_perr
from .optimizer import NUMERICAL_FAILURES, OptimizationProblem, optimize, sweep_sigma
from .phasenoise import DEFAULT_TOLERANCE, PhaseNoise
from .receivers import (
    BIT1_HIGH,
    ReceiverConfig,
    generalized_kennedy_detail,
    perr_bpsk_hom,
    perr_ook_dd,
    photocount_distribution,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# Parsed options that change no number in a CSV, left out of its manifest.
NOT_IN_MANIFEST = frozenset(
    {"subcommand", "func", "output", "jobs", "validate", "seed", "trace_output"}
)


def _fmt(x: float) -> str:
    return f"{x:.10e}"


def _check_writable(path: str | None) -> None:
    """Raise the ``OSError`` that opening ``path`` for writing would raise, so
    that a bad output path fails before the work; leaves no file behind."""
    if path in (None, "-"):
        return
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        open(path, "a").close()
    else:
        os.remove(path)


@contextlib.contextmanager
def _open_output(path: str | None):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_csv(fh, command: str, args, columns: list[str], rows, **resolved) -> None:
    """Write the manifest lines, the header and ``rows``; ``resolved`` holds the
    recorded values that differ from the parsed ones."""
    parameters = {k: v for k, v in vars(args).items() if k not in NOT_IN_MANIFEST}
    parameters.update(resolved)
    params = " ".join(f"{k}={v}" for k, v in sorted(parameters.items()))
    print(f"# command: {command}", file=fh)
    print(f"# parameters: {params}", file=fh)
    print(f"# tool_version: phaserx {__version__}", file=fh)
    print(f"# timestamp: {datetime.now(timezone.utc).isoformat(timespec='seconds')}", file=fh)
    print(",".join(columns), file=fh)
    for row in rows:
        print(",".join(row), file=fh)


def _float_range(lo: float, hi: float, step: float) -> np.ndarray:
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"range bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if hi < lo:
        raise ValueError(f"range end {hi} is below start {lo}")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    last = lo + step * (n - 1)
    if abs(last - hi) <= 1e-9 * max(1.0, abs(hi)):
        last = hi
    return np.linspace(lo, last, n)


def _search_knobs(args) -> dict:
    """The ``OptimizationProblem`` search knobs set by the parsed options."""
    return {"grid_resolution": args.grid_resolution,
            "beta_resolution": args.beta_resolution,
            "quad_tolerance": args.tolerance}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sql(args) -> int:
    nbar = args.efficiency * args.nbar
    noise = PhaseNoise(args.sigma)
    p_dd = perr_ook_dd(nbar)
    p_hom = perr_bpsk_hom(nbar, noise, args.tolerance)
    print(f"nbar = {args.nbar!r}")
    print(f"sigma = {args.sigma!r}")
    print(f"efficiency = {args.efficiency!r}")
    print(f"perr_ook_dd = {_fmt(p_dd)}")
    print(f"perr_bpsk_hom = {_fmt(p_hom)}")
    print(f"perr_sql = {_fmt(min(p_dd, p_hom))}")
    print(f"sql_branch = {'ook_dd' if p_dd <= p_hom else 'bpsk_hom'}")
    return EXIT_OK


def _cmd_sweep_nbar(args) -> int:
    nbars = _float_range(args.nbar_min, args.nbar_max, args.step)
    # The largest photocount mean of the sweep, 4*nbar, is Kennedy's bright
    # symbol at the top nbar: past the float range the arrays would only
    # warn and carry inf.
    top = args.efficiency * float(nbars[-1])
    if not math.isfinite(4.0 * top):
        raise OverflowError(f"photocount mean 4*nbar at nbar = {top} is past the float range")
    wavelength = args.wavelength_nm * 1e-9
    noiseless = PhaseNoise(0.0)
    rows = []
    for nbar in nbars:
        nb = args.efficiency * float(nbar)
        bpsk = make_bpsk(nb)
        # Kennedy: on-off detection after displacing the symbol -sqrt(nb) to vacuum
        kennedy = ReceiverConfig(beta=math.sqrt(nb), threshold_k=0, pnr_ceiling=1)
        perr_kennedy, _ = generalized_kennedy_detail(bpsk, kennedy, noiseless)
        rows.append(
            [
                _fmt(float(nbar)),
                _fmt(psd_watts_per_hz(float(nbar), wavelength)),
                _fmt(perr_ook_dd(nb)),
                _fmt(perr_bpsk_hom(nb, noiseless)),
                _fmt(perr_kennedy),
                _fmt(perr_helstrom(bpsk, noiseless)),
            ]
        )
    with _open_output(args.output) as fh:
        _write_csv(fh, "sweep-nbar", args,
                   ["nbar", "psd_watts_per_hz", "perr_ook_dd", "perr_bpsk_hom",
                    "perr_kennedy", "perr_helstrom"],
                   rows)
    return EXIT_OK


def _cmd_sweep_sigma(args) -> int:
    sigmas = _float_range(args.sigma_min, args.sigma_max, args.step)
    nbar = args.efficiency * args.nbar
    cell_rows = sweep_sigma(nbar, [float(s) for s in sigmas], args.pnr_list,
                            jobs=args.jobs, **_search_knobs(args))
    pnr_list = [cell.pnr_ceiling for cell in cell_rows[0]]

    columns = (
        ["sigma", "perr_sql", "perr_helstrom_at_optimum", "perr_helstrom_independent"]
        + [f"perr_pnr{p}" for p in pnr_list]
        + ["alpha0", "alpha1", "beta", "threshold_k", "orientation"]
    )
    rows = []
    for sigma, row_cells in zip(sigmas, cell_rows):
        _, hel_best = optimize_helstrom(nbar, PhaseNoise(float(sigma)))
        for cell in row_cells:
            if cell.result is None:
                print(f"warning: optimization failed at sigma={sigma}, "
                      f"pnr={cell.pnr_ceiling}:\n{cell.error}", file=sys.stderr)
        # perr_sql is the same at every ceiling, so any filled cell gives it;
        # the lead columns come from the highest ceiling
        perr_sql = next((c.result.perr_sql for c in row_cells if c.result), None)
        lead = row_cells[-1].result
        row = [_fmt(float(sigma)), _fmt(perr_sql) if perr_sql is not None else ""]
        row.append(_fmt(lead.perr_helstrom) if lead else "")
        row.append(_fmt(hel_best))
        row += [_fmt(cell.result.perr) if cell.result else "" for cell in row_cells]
        if lead:
            row += [
                _fmt(lead.constellation.alpha0.real),
                _fmt(lead.constellation.alpha1.real),
                _fmt(lead.config.beta.real),
                str(lead.config.threshold_k),
                BIT1_HIGH,
            ]
        else:
            row += [""] * 5
        rows.append(row)
    with _open_output(args.output) as fh:
        _write_csv(fh, "sweep-sigma", args, columns, rows,
                   pnr_list=";".join(str(p) for p in pnr_list))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    nbar = args.efficiency * args.nbar
    problem = OptimizationProblem(nbar=nbar, noise=PhaseNoise(args.sigma),
                                  pnr_ceiling=args.pnr, **_search_knobs(args))
    # built first, so that a bad trial count or seed fails before the search
    trials = (TrialConfig(trials=args.validate, seed=args.seed, scheme=SCHEME_KENNEDY)
              if args.validate else None)
    result = optimize(problem)
    print(f"nbar = {args.nbar!r}")
    print(f"sigma = {args.sigma!r}")
    print(f"pnr_ceiling = {args.pnr}")
    print(f"efficiency = {args.efficiency!r}")
    print(f"alpha0 = {_fmt(result.constellation.alpha0.real)}")
    print(f"alpha1 = {_fmt(result.constellation.alpha1.real)}")
    print(f"beta = {_fmt(result.config.beta.real)}")
    print(f"threshold_k = {result.config.threshold_k}")
    print(f"orientation = {BIT1_HIGH}")
    print(f"perr = {_fmt(result.perr)}")
    print(f"perr_sql = {_fmt(result.perr_sql)}")
    print(f"perr_helstrom = {_fmt(result.perr_helstrom)}")
    print(f"sub_sql = {str(result.perr < result.perr_sql).lower()}")
    print(f"gradient_norm = {_fmt(result.winner.gradient_norm)}")
    print(f"predicted_decrease = {_fmt(result.winner.predicted_decrease)}")
    print(f"capped_seeds = {sum(s.capped for s in result.seeds)}")

    if trials is not None:
        estimate, _ = simulate_perr(result.constellation, result.config,
                                    problem.noise, trials)
        # the analytic value's binomial SE: an estimate of 0 has an SE of 0
        std_error = math.sqrt(result.perr * (1.0 - result.perr) / args.validate)
        if std_error > 0.0:
            z = (estimate - result.perr) / std_error
        else:
            z = 0.0 if estimate == result.perr else math.inf
        print(f"validate_trials = {args.validate}")
        print(f"validate_seed = {args.seed}")
        print(f"validate_estimate = {_fmt(estimate)}")
        print(f"validate_std_error = {_fmt(std_error)}")
        print(f"validate_z = {z:.4f}")

    if args.trace_output:
        with _open_output(args.trace_output) as fh:
            _write_csv(fh, "optimize-trace", args, ["iteration", "perr"],
                       ([str(i), _fmt(p)] for i, p in result.winner.trace))
    return EXIT_OK


def _cmd_pk(args) -> int:
    alpha = check_amplitude("alpha", math.sqrt(args.efficiency) * args.alpha)
    check_amplitude("beta", args.beta)
    noise = PhaseNoise(args.sigma)
    kmax = args.kmax
    if kmax is None:
        # the photocount mean peaks at (|alpha| + |beta|)**2 over the phase
        kmax = fock_dim((abs(alpha) + abs(args.beta),)) - 1
    dist = photocount_distribution(alpha, args.beta, noise, kmax, args.tolerance)
    with _open_output(args.output) as fh:
        _write_csv(fh, "pk", args, ["k", "probability"],
                   ([str(k), _fmt(p)] for k, p in enumerate(dist.probs)),
                   kmax=kmax, tail_mass=_fmt(dist.tail_mass))
    return EXIT_OK


def _cmd_helstrom(args) -> int:
    explicit = args.alpha0 is not None or args.alpha1 is not None
    if explicit + (args.theta is not None) + args.optimize_constellation > 1:
        raise ValueError("give one constellation source: --alpha0 and --alpha1, "
                         "--theta, or --optimize-constellation")
    if explicit and (args.alpha0 is None or args.alpha1 is None):
        raise ValueError("--alpha0 and --alpha1 must be given together")
    if explicit == (args.nbar is not None):
        raise ValueError("give --nbar with --theta (the default source) or "
                         "--optimize-constellation, and not with --alpha0 and --alpha1")
    noise = PhaseNoise(args.sigma)
    if explicit:
        scale = math.sqrt(args.efficiency)
        c = BinaryConstellation(scale * args.alpha0, scale * args.alpha1)
        label = "explicit"
    elif args.optimize_constellation:
        c, _ = optimize_helstrom(args.efficiency * args.nbar, noise)
        label = "optimized"
    else:
        theta = 3.0 * math.pi / 4.0 if args.theta is None else args.theta
        c = parametrize(theta, args.efficiency * args.nbar)
        label = "parametrized"
    perr = perr_helstrom(c, noise)
    perr_noiseless = perr_helstrom(c, PhaseNoise(0.0))
    print(f"constellation = {label}")
    print(f"alpha0 = {c.alpha0}")
    print(f"alpha1 = {c.alpha1}")
    print(f"sigma = {args.sigma!r}")
    print(f"fock_dim = {fock_dim((c.alpha0, c.alpha1))}")
    print(f"mean_photon_number = {_fmt(c.mean_photon_number())}")
    print(f"perr_helstrom = {_fmt(perr)}")
    print(f"perr_helstrom_noiseless = {_fmt(perr_noiseless)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _efficiency(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _add_common(p: argparse.ArgumentParser, *, nbar: bool = True, sigma: bool = True,
                tolerance: bool = True):
    if nbar:
        p.add_argument("--nbar", type=float, required=True,
                       help="average photon number per symbol")
    if sigma:
        p.add_argument("--sigma", type=float, required=True,
                       help="phase-noise strength in radians")
    p.add_argument("--efficiency", type=_efficiency, default=1.0,
                   help="detector efficiency in [0, 1]; amplitudes are pre-scaled "
                        "by its square root (default 1)")
    if tolerance:
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="relative tolerance of the phase-average quadrature")


def _add_grid_knobs(p: argparse.ArgumentParser):
    p.add_argument("--grid-resolution", type=int, default=OptimizationProblem.grid_resolution,
                   help="number of constellation-angle grid points (default %(default)s; "
                        "an even count halves the scan's amplitude table)")
    p.add_argument("--beta-resolution", type=int, default=OptimizationProblem.beta_resolution,
                   help="number of displacement grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaserx",
        description="Error probabilities and receiver optimization for binary "
                    "coherent-state constellations over a Gaussian phase-noise "
                    "channel.",
    )
    parser.add_argument("--version", action="version", version=f"phaserx {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sql", help="conventional-detection baselines at one point")
    _add_common(p)
    p.set_defaults(func=_cmd_sql)

    p = sub.add_parser("sweep-nbar", help="noiseless error-rate curves vs photon number")
    p.add_argument("--nbar-min", type=float, default=0.0)
    p.add_argument("--nbar-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--wavelength-nm", type=float, default=1550.0,
                   help="wavelength for the PSD column (default 1550)")
    p.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    _add_common(p, nbar=False, sigma=False, tolerance=False)
    p.set_defaults(func=_cmd_sweep_nbar)

    p = sub.add_parser("sweep-sigma", help="optimized receiver vs noise strength")
    p.add_argument("--sigma-min", type=float, default=0.0)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--pnr-list", type=lambda s: [int(x) for x in s.split(",")],
                   default=[1, 2, 3, 8],
                   help="comma-separated PNR ceilings (default 1,2,3,8)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for sweep rows, one row per sigma")
    p.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    _add_common(p, sigma=False)
    _add_grid_knobs(p)
    p.set_defaults(func=_cmd_sweep_sigma)

    p = sub.add_parser("optimize", help="optimize constellation, displacement, threshold")
    p.add_argument("--pnr", type=int, required=True, help="PNR ceiling")
    p.add_argument("--validate", type=int, default=0, metavar="TRIALS",
                   help="cross-check the result against the sampling oracle")
    p.add_argument("--seed", type=int, default=20260822,
                   help="oracle RNG seed (with --validate)")
    p.add_argument("--trace-output", default=None,
                   help="CSV path for the winning seed's audit trace: its best error on the "
                        "search rule per Newton round, the last within --tolerance of perr")
    _add_common(p)
    _add_grid_knobs(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("pk", help="dump the photocount distribution")
    p.add_argument("--alpha", type=complex, required=True,
                   help="signal amplitude (python complex syntax, e.g. 1.2 or 1+0.5j)")
    p.add_argument("--beta", type=complex, default=0j, help="displacement")
    p.add_argument("--kmax", type=int, default=None,
                   help="largest count to emit (default: fock_dim of |alpha| + |beta|, less one)")
    p.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    _add_common(p, nbar=False)
    p.set_defaults(func=_cmd_pk)

    p = sub.add_parser("helstrom", help="quantum-optimal error probability")
    p.add_argument("--theta", type=float, default=None,
                   help="constellation angle (default 3*pi/4, BPSK)")
    p.add_argument("--alpha0", type=complex, default=None)
    p.add_argument("--alpha1", type=complex, default=None)
    p.add_argument("--optimize-constellation", action="store_true",
                   help="optimize the constellation angle at fixed power")
    p.add_argument("--nbar", type=float, default=None,
                   help="average photon number per symbol, with --theta or "
                        "--optimize-constellation")
    _add_common(p, nbar=False, tolerance=False)
    p.set_defaults(func=_cmd_helstrom)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for option in ("output", "trace_output"):
            _check_writable(getattr(args, option, None))
        return args.func(args)
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"usage error: too many to allocate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"usage error: too large to represent: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
