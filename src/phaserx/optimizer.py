"""Receiver and constellation optimization under the average-power constraint.

Minimizes the displaced photon-counting error probability over the
constellation angle ``theta`` (which parametrizes all real-axis binary
constellations of a given mean photon number exactly), the displacement
``beta``, and the count threshold ``K``.  The Gaussian phase distribution is
even, so the error probability is invariant under complex conjugation of all
parameters and the optimum can be taken on the real axis; the test suite
guards that restriction with an imaginary-perturbation check.

The search is fully deterministic: a dense (theta, beta) grid per threshold
value seeds coordinate-wise golden-section refinement, and ties are broken
by smaller ``K``, then smaller ``|beta|``, then smaller ``theta``.
"""

from __future__ import annotations

import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .constellation import BinaryConstellation, check_nbar, parametrize
from .golden import golden_minimize
from .helstrom import perr_helstrom
from .phasenoise import ConvergenceError, PhaseNoise, build_rule, check_tolerance
from .receivers import (
    ReceiverConfig,
    _poisson_cdfs,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_sql_baseline,
)

GRID_QUAD_ORDER = 96
MAX_REFINE_ROUNDS = 60
# Golden-section bracket width, and the per-round step below which a seed
# counts as converged.
REFINE_TOLERANCE = 1e-8
# Overall-best grid cells refined on top of the best cell per threshold.
REFINE_SEEDS = 5
TIE_WINDOW = 1e-12
# Errors that mean an optimization failed numerically rather than was asked
# for something invalid: a sweep records them per cell, the CLI exits 4.
NUMERICAL_FAILURES = (ConvergenceError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class OptimizationProblem:
    """Search specification: power budget, channel, detector, and knobs."""

    nbar: float
    noise: PhaseNoise
    pnr_ceiling: int
    grid_resolution: int = 181
    beta_resolution: int = 241
    quad_tolerance: float = 1e-10

    def __post_init__(self):
        check_nbar(self.nbar, positive=True)
        if self.pnr_ceiling < 1:
            raise ValueError(f"pnr_ceiling must be >= 1, got {self.pnr_ceiling}")
        if self.grid_resolution < 2 or self.beta_resolution < 2:
            raise ValueError("grid resolutions must be >= 2")
        check_tolerance(self.quad_tolerance)

    @property
    def beta_max(self) -> float:
        return 3.0 * math.sqrt(2.0 * self.nbar)


@dataclass(frozen=True)
class OptimizationResult:
    """Best receiver found, with the baselines it is judged against."""

    constellation: BinaryConstellation
    config: ReceiverConfig
    perr: float
    perr_sql: float
    perr_helstrom: float
    orientation: str
    trace: tuple[tuple[int, float], ...] = field(repr=False)


@dataclass(frozen=True)
class SweepCell:
    """One (sigma, PNR ceiling) cell of a sweep; failed cells carry an error."""

    sigma: float
    pnr_ceiling: int
    result: OptimizationResult | None
    error: str | None


def _grid_scan(problem: OptimizationProblem):
    """Evaluate the error probability on the full (K, theta, beta) grid.

    Returns ``(thetas, betas, perr)`` with ``perr[k, i, j]`` the
    best-orientation error at threshold ``k``.  Uses a fixed-order rule;
    the grid only seeds refinement, which re-evaluates adaptively.
    """
    s = math.sqrt(2.0 * problem.nbar)
    thetas = np.linspace(0.0, math.pi, problem.grid_resolution, endpoint=False)
    betas = np.linspace(-problem.beta_max, problem.beta_max, problem.beta_resolution)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER)

    a0 = (s * np.cos(thetas))[:, None]
    a1 = (s * np.sin(thetas))[:, None]
    # gap[k] accumulates P(count <= k | alpha1) - P(count <= k | alpha0).
    gap = np.zeros((problem.pnr_ceiling, thetas.size, betas.size))
    for w, phi in zip(rule.weights, rule.nodes):
        cdfs0 = _poisson_cdfs(displaced_intensity(a0, betas, phi))
        cdfs1 = _poisson_cdfs(displaced_intensity(a1, betas, phi))
        for k, cdf0, cdf1 in zip(range(problem.pnr_ceiling), cdfs0, cdfs1):
            gap[k] += w * (cdf1 - cdf0)
    perr = 0.5 + 0.5 * gap
    return thetas, betas, np.minimum(perr, 1.0 - perr)


def _select_seeds(perr: np.ndarray, nseeds: int) -> list[tuple[int, int, int]]:
    """Deterministic seed set: best grid cell per threshold plus the overall
    top ``nseeds`` cells (stable row-major order on ties)."""
    seeds: list[tuple[int, int, int]] = []
    kmax1 = perr.shape[0]
    for k in range(kmax1):
        i, j = np.unravel_index(int(np.argmin(perr[k])), perr.shape[1:])
        seeds.append((k, int(i), int(j)))
    order = np.argsort(perr, axis=None, kind="stable")[:nseeds]
    for flat in order:
        k, i, j = np.unravel_index(int(flat), perr.shape)
        seeds.append((int(k), int(i), int(j)))
    return list(dict.fromkeys(seeds))


def _refine(problem: OptimizationProblem, k: int, theta0: float, beta0: float,
            theta_step: float, beta_step: float):
    """Coordinate-wise golden-section descent from one grid seed.

    Never regresses: each coordinate update is accepted only if it improves
    on the best value evaluated so far (the adaptively re-evaluated seed is
    iteration 0 of the audit trace).
    """

    def evaluate(theta: float, beta: float) -> float:
        cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=problem.pnr_ceiling)
        return generalized_kennedy_detail(
            parametrize(theta, problem.nbar), cfg, problem.noise, problem.quad_tolerance
        )[0]

    theta, beta = theta0, beta0
    best = evaluate(theta, beta)
    trace = [(0, best)]
    for iteration in range(1, MAX_REFINE_ROUNDS + 1):
        moved = 0.0

        t_new, f_t = golden_minimize(
            lambda t: evaluate(t, beta),
            theta - theta_step, theta + theta_step, xtol=REFINE_TOLERANCE,
        )
        if f_t < best:
            moved = max(moved, abs(t_new - theta))
            theta, best = t_new, f_t

        b_new, f_b = golden_minimize(
            lambda v: evaluate(theta, v),
            beta - beta_step, beta + beta_step, xtol=REFINE_TOLERANCE,
        )
        if f_b < best:
            moved = max(moved, abs(b_new - beta))
            beta, best = b_new, f_b

        trace.append((iteration, best))
        if moved < REFINE_TOLERANCE:
            break
    return theta, beta, best, trace


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Full deterministic search: exhaustive threshold scan, dense grid
    seeding, then golden-section refinement of the best seeds."""
    thetas, betas, grid_perr = _grid_scan(problem)
    theta_step = thetas[1] - thetas[0]
    beta_step = betas[1] - betas[0]
    seeds = _select_seeds(grid_perr, REFINE_SEEDS)

    candidates = []
    for k, i, j in seeds:
        theta, beta, perr, trace = _refine(
            problem, k, float(thetas[i]), float(betas[j]), theta_step, beta_step
        )
        candidates.append((perr, k, theta, beta, trace))

    best_perr = min(c[0] for c in candidates)
    eligible = [c for c in candidates if c[0] <= best_perr + TIE_WINDOW]
    eligible.sort(key=lambda c: (c[1], abs(c[3]), c[2], c[3]))
    perr_seed, k, theta, beta, trace = eligible[0]

    constellation = parametrize(theta, problem.nbar)
    config = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=problem.pnr_ceiling)
    perr, orientation = generalized_kennedy_detail(
        constellation, config, problem.noise, problem.quad_tolerance
    )
    return OptimizationResult(
        constellation=constellation,
        config=config,
        perr=perr,
        perr_sql=perr_sql_baseline(problem.nbar, problem.noise, problem.quad_tolerance),
        perr_helstrom=perr_helstrom(constellation, problem.noise),
        orientation=orientation,
        trace=tuple(trace),
    )


def _sweep_cell(problem: OptimizationProblem) -> SweepCell:
    try:
        result, error = optimize(problem), None
    except NUMERICAL_FAILURES:
        result, error = None, traceback.format_exc(limit=3)
    return SweepCell(sigma=problem.noise.sigma, pnr_ceiling=problem.pnr_ceiling,
                     result=result, error=error)


def sweep_sigma(
    nbar: float,
    sigmas: list[float],
    pnr_list: list[int],
    jobs: int = 1,
    **knobs,
) -> list[SweepCell]:
    """One optimization per (PNR ceiling, sigma) pair, in that row order.

    Every problem is built, and so validated, before the first cell runs:
    an invalid input raises ``ValueError`` for the whole sweep.  A cell whose
    optimization fails numerically (``NUMERICAL_FAILURES``) is recorded with
    its error instead of aborting the sweep; any other error propagates.
    ``jobs > 1`` dispatches cells to a process pool; the output order is the
    grid order either way, so parallel and serial runs agree bit for bit.
    """
    if not sigmas or not pnr_list:
        raise ValueError("sigmas and pnr_list must be non-empty")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    problems = [OptimizationProblem(nbar=float(nbar), noise=PhaseNoise(float(sigma)),
                                    pnr_ceiling=int(pnr), **knobs)
                for pnr in pnr_list for sigma in sigmas]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_cell, problems))
    return [_sweep_cell(p) for p in problems]
