"""Receiver and constellation optimization under the average-power constraint.

Minimizes the displaced photon-counting error probability over the
constellation angle ``theta`` (which parametrizes all real-axis binary
constellations of a given mean photon number exactly), the displacement
``beta``, and the count threshold ``K``.  The Gaussian phase distribution is
even, so the error probability is invariant under complex conjugation of all
parameters and the optimum can be taken on the real axis; the test suite
guards that restriction with an imaginary-perturbation check.

The search is fully deterministic: a dense (theta, beta) grid per threshold
value seeds a damped Newton refinement in (theta, beta), and ties are broken
by smaller ``K``, then smaller ``|beta|``, then smaller ``theta``.

The error probability is a phase average of Poisson CDFs ``F_K(mu)`` of the
symbol intensities ``mu = a**2 + beta**2 + 2*a*beta*cos(phi)``, and
``dF_K/dmu = -p_K(mu)``, so its gradient and Hessian in (theta, beta) are
phase averages of the same kind.  Refinement steers by them alone, on a
fixed-order rule; the error probability at a point, and the orientation
that signs the derivatives there, come only from the adaptive
``generalized_kennedy_detail``, which accepts or rejects each step.
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
    BIT0_HIGH,
    ReceiverConfig,
    _poisson_cdfs,
    _poisson_pmf,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_sql_baseline,
)

GRID_QUAD_ORDER = 96
# Fixed rule order of the derivative averages that steer refinement.
DERIVATIVE_QUAD_ORDER = 128
MAX_REFINE_ROUNDS = 60
# Step length, in grid cells, below which a seed counts as converged.
REFINE_TOLERANCE = 1e-8
# Best grid cells refined per threshold.
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
    # Norm of the grid-scaled gradient of ``perr`` at the optimum (on the
    # derivative rule), and how many refinement seeds stopped on
    # ``MAX_REFINE_ROUNDS`` instead of converging.
    gradient_norm: float
    capped_seeds: int


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
    best-orientation error at threshold ``k``.  Uses the fixed-order rule
    of ``GRID_QUAD_ORDER`` folded onto phi >= 0: with real amplitudes and
    displacement the intensities ``(a*cos(phi) + beta)**2 + (a*sin(phi))**2``
    are even in phi bit for bit, so the folded rule agrees with the full
    one up to the rounding of the sum, at half the integrand evaluations.
    The grid only seeds refinement, which re-evaluates adaptively.
    """
    s = math.sqrt(2.0 * problem.nbar)
    thetas = np.linspace(0.0, math.pi, problem.grid_resolution, endpoint=False)
    betas = np.linspace(-problem.beta_max, problem.beta_max, problem.beta_resolution)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()

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
    """Deterministic seed set: the ``nseeds`` best grid cells of each
    threshold (all of them on a smaller grid), best first and in row-major
    order on ties, as the head of a stable ``argsort`` of each slice.

    A partition finds each slice's ``nseeds``-th smallest value, and only
    the cells not above it are sorted.  A threshold's grid slice does not
    depend on the PNR ceiling, so a higher ceiling refines every seed of a
    lower one and its optimum can only be equal or lower.
    """
    flat = perr.reshape(perr.shape[0], -1)
    n = min(nseeds, flat.shape[1])
    kth = np.partition(flat, n - 1, axis=1)[:, n - 1]
    seeds = []
    for k, (row, limit) in enumerate(zip(flat, kth)):
        # "not above" rather than "at or below": when the limit is nan, every
        # cell stays a candidate, and nan sorts last as in a full argsort.
        cells = np.flatnonzero(~(row > limit))
        best = cells[np.argsort(row[cells], kind="stable")[:n]]
        seeds += [(k, *(int(i) for i in np.unravel_index(int(f), perr.shape[1:])))
                  for f in best]
    return seeds


def _derivatives(nbar: float, k: int, theta: float, beta: float, orientation: str,
                 scale: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the error probability at threshold ``k``
    under ``orientation``, in grid-scaled coordinates
    ``(theta/scale[0], beta/scale[1])``, averaged on the fixed rule ``rule``.

    With ``a1 = s*sin(theta)``, ``a0 = s*cos(theta)`` and
    ``F(mu) = P(count <= k | mu)``, the ``bit1_high`` error is
    ``F(mu1)/2 + (1 - F(mu0))/2``; ``F' = -p_k`` and ``F'' = p_k - p_(k-1)``
    give its derivatives by the chain rule.  The ``bit0_high`` error is one
    minus it, so every derivative changes sign.  The error itself is not
    formed here: ``generalized_kennedy_detail`` is its one evaluator, and
    ``orientation`` is the one it returned at this point.
    """
    s = math.sqrt(2.0 * nbar)
    a = np.array([[s * math.sin(theta)], [s * math.cos(theta)]])  # alpha1, alpha0
    da = np.array([[a[1, 0]], [-a[0, 0]]])  # d a / d theta; d2 a / d theta2 = -a
    cos = np.cos(rule.nodes)
    mu = displaced_intensity(a, beta, rule.nodes)
    mu_a = 2.0 * (a + beta * cos)
    mu_t = mu_a * da
    mu_b = 2.0 * (beta + a * cos)
    mu_tt = 2.0 * da * da - mu_a * a
    mu_tb = 2.0 * cos * da
    pmf = _poisson_pmf(np.arange(max(k - 1, 0), k + 1.0)[:, None, None], mu)
    d1 = -pmf[-1]
    d2 = pmf[-1] - pmf[0] if k > 0 else pmf[-1]
    terms = np.stack([
        d1 * mu_t,
        d1 * mu_b,
        d2 * mu_t * mu_t + d1 * mu_tt,
        d2 * mu_t * mu_b + d1 * mu_tb,
        d2 * mu_b * mu_b + 2.0 * d1,
    ])
    sign = -1.0 if orientation == BIT0_HIGH else 1.0
    pt, pb, ptt, ptb, pbb = sign * rule.average(0.5 * (terms[:, 0] - terms[:, 1]))
    grad = np.array([pt, pb]) * scale
    hess = np.array([[ptt, ptb], [ptb, pbb]]) * np.outer(scale, scale)
    return grad, hess


def _trust_region_step(grad: np.ndarray, hess: np.ndarray, radius: float) -> np.ndarray:
    """Exact minimizer of ``grad.p + p.hess.p/2`` over ``|p| <= radius``.

    The Newton step when ``hess`` is positive definite and the step fits;
    otherwise the boundary step ``-(hess + shift*I)^-1 grad``, its shift
    found by bisection.  When ``grad`` has no component along a
    non-positive curvature direction and no shift reaches the boundary (the
    "hard case"), the step is completed along that direction.
    """
    lam, vecs = np.linalg.eigh(hess)
    (l0, l1), (g0, g1) = lam.tolist(), (vecs.T @ grad).tolist()

    def step(shift: float) -> list[float]:
        return [-g / (lam_i + shift) if g else 0.0 for g, lam_i in ((g0, l0), (g1, l1))]

    if l0 > 0.0 and math.hypot(*step(0.0)) <= radius:
        return vecs @ step(0.0)
    lo = max(0.0, -l0)
    if g0 == 0.0 and l1 + lo > 0.0 and math.hypot(*step(lo)) <= radius:
        p = step(lo)
        p[0] = math.sqrt(radius * radius - p[1] * p[1])
        return vecs @ p
    # The step is longer than ``radius`` just above ``lo`` and no longer at
    # ``hi``, where every shifted curvature is at least ``|grad|/radius``.
    hi = lo + math.hypot(g0, g1) / radius
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if math.hypot(*step(mid)) > radius:
            lo = mid
        else:
            hi = mid
    return vecs @ step(hi)


def _refine(problem: OptimizationProblem, k: int, theta0: float, beta0: float,
            theta_step: float, beta_step: float):
    """Damped Newton descent in (theta, beta) from one grid seed.

    Coordinates are scaled by the grid steps, so one unit is one grid cell.
    Each iteration takes the trust-region step of the quadratic model built
    from ``_derivatives``, within a radius of at most one cell.  If the step
    does not lower the adaptively evaluated error, ``golden_minimize``
    searches along it.  The next radius is twice the accepted step, capped
    at one cell, and the seed has converged once the accepted step is
    shorter than ``REFINE_TOLERANCE`` cells.

    Never regresses: a point is accepted only if its adaptive error is below
    the best so far (the adaptively evaluated seed is iteration 0 of the
    audit trace), so each reported value keeps its quadrature tolerance.
    ``generalized_kennedy_detail`` is the one evaluator of the error: each
    accepted point keeps the error and orientation it returned, and the
    orientation signs the derivatives taken there.

    Returns ``(theta, beta, best, trace, orientation)`` for the last
    accepted point.
    """

    def evaluate(theta: float, beta: float) -> tuple[float, str]:
        cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=problem.pnr_ceiling)
        return generalized_kennedy_detail(
            parametrize(theta, problem.nbar), cfg, problem.noise, problem.quad_tolerance
        )

    rule = build_rule(problem.noise, DERIVATIVE_QUAD_ORDER)
    scale = np.array([theta_step, beta_step])
    theta, beta = theta0, beta0
    best, orientation = evaluate(theta, beta)
    trace = [(0, best)]
    radius = 1.0
    for iteration in range(1, MAX_REFINE_ROUNDS + 1):
        grad, hess = _derivatives(problem.nbar, k, theta, beta, orientation, scale, rule)
        step = _trust_region_step(grad, hess, radius)
        length = math.hypot(*step)
        moved = 0.0
        if length >= REFINE_TOLERANCE:
            dtheta, dbeta = step * scale
            # (error, orientation) at every evaluated fraction of the step;
            # both ends are known: the current point and the full step.
            known = {0.0: (best, orientation), 1.0: evaluate(theta + dtheta, beta + dbeta)}
            t = 1.0
            if known[1.0][0] >= best:
                def along(u: float) -> float:
                    if u not in known:
                        known[u] = evaluate(theta + u * dtheta, beta + u * dbeta)
                    return known[u][0]

                t, _ = golden_minimize(along, 0.0, 1.0, xtol=REFINE_TOLERANCE / length)
            value, at = known[t]
            if value < best:
                theta, beta, best, orientation = theta + t * dtheta, beta + t * dbeta, value, at
                moved = t * length
        trace.append((iteration, best))
        if moved < REFINE_TOLERANCE:
            break
        radius = min(1.0, 2.0 * moved)
    return theta, beta, best, trace, orientation


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Full deterministic search: exhaustive threshold scan, dense grid
    seeding, then damped Newton refinement of the best seeds of each
    threshold.  The winner's error and orientation are the ones its
    refinement accepted, so they equal ``generalized_kennedy_detail`` at
    the reported configuration."""
    thetas, betas, grid_perr = _grid_scan(problem)
    scale = np.array([thetas[1] - thetas[0], betas[1] - betas[0]])
    seeds = _select_seeds(grid_perr, REFINE_SEEDS)

    candidates = []
    for k, i, j in seeds:
        theta, beta, perr, trace, orientation = _refine(
            problem, k, float(thetas[i]), float(betas[j]), *scale
        )
        candidates.append((perr, k, theta, beta, trace, orientation))

    best_perr = min(c[0] for c in candidates)
    eligible = [c for c in candidates if c[0] <= best_perr + TIE_WINDOW]
    eligible.sort(key=lambda c: (c[1], abs(c[3]), c[2], c[3]))
    perr, k, theta, beta, trace, orientation = eligible[0]

    constellation = parametrize(theta, problem.nbar)
    grad, _ = _derivatives(problem.nbar, k, theta, beta, orientation, scale,
                           build_rule(problem.noise, DERIVATIVE_QUAD_ORDER))
    return OptimizationResult(
        constellation=constellation,
        config=ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=problem.pnr_ceiling),
        perr=perr,
        perr_sql=perr_sql_baseline(problem.nbar, problem.noise, problem.quad_tolerance),
        perr_helstrom=perr_helstrom(constellation, problem.noise),
        orientation=orientation,
        trace=tuple(trace),
        gradient_norm=math.hypot(*grad),
        capped_seeds=sum(c[4][-1][0] >= MAX_REFINE_ROUNDS for c in candidates),
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
