"""Receiver and constellation optimization under the average-power constraint.

Minimizes the displaced photon-counting error probability over the
constellation angle ``theta`` (which parametrizes all real-axis binary
constellations of a given mean photon number exactly), the displacement
``beta``, and the count threshold ``K``.  The Gaussian phase distribution is
even, so the error probability is invariant under complex conjugation of all
parameters and the optimum can be taken on the real axis; the test suite
guards that restriction with an imaginary-perturbation check.

The search is fully deterministic: a dense (theta, beta) grid per threshold
value seeds a damped Newton refinement in (theta, beta).  Seeds whose
errors lie within ``TIE_WINDOW`` of the best, relative to it, tie, and ties
are broken by smaller ``K``, then smaller ``|beta|``, then smaller
``theta``.

Only the ``bit1_high`` decision rule is searched.  A receiver decoded
``bit0_high`` is its mirror twin decoded ``bit1_high``: swapping the bit
labels is swapping the symbols, ``theta -> pi/2 - theta``, wrapped into
[0, pi) by ``(alpha, beta) -> (-alpha, -beta)``, and the beta window is
symmetric.  So the angle already spans both labellings, every optimum is
found and reported once, as its ``bit1_high`` twin, and the objective is the
smooth ``bit1_high`` error, with no kink where the two labellings cross.

The error probability is a phase average of Poisson CDFs ``F_K(mu)`` of the
symbol intensities ``mu = a**2 + beta**2 + 2*a*beta*cos(phi)``, and
``dF_K/dmu = -p_K(mu)``, so its gradient and Hessian in (theta, beta) are
phase averages of the same kind.  The grid scan and refinement average on
one fixed rule, the folded ``GRID_QUAD_ORDER`` rule built once per problem.
The scan's beta axis is mirrored exactly, so it averages a table of symbol
amplitudes, half as many rows as the grid's two symbols per angle, and
gathers the grid from it.  Refinement steers by the derivatives alone:
each step is the Newton step on the Hessian's absolute curvatures, capped
in length.  The error probability at a point comes only from the adaptive
``generalized_kennedy_detail``, which accepts or rejects each step.
"""

from __future__ import annotations

import math
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .constellation import BinaryConstellation, check_count, check_nbar, parametrize
from .golden import golden_minimize
from .helstrom import perr_helstrom
from .phasenoise import ConvergenceError, PhaseNoise, build_rule, check_tolerance
from .receivers import (
    ReceiverConfig,
    _poisson_cdfs,
    _poisson_pmf,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_sql_baseline,
)

# Order of the one fixed rule that the grid scan and refinement average on.
GRID_QUAD_ORDER = 96
MAX_REFINE_ROUNDS = 60
# Step length, in grid cells, below which a seed counts as converged.
REFINE_TOLERANCE = 1e-8
# Best grid cells refined per threshold.
REFINE_SEEDS = 5
# Relative error window within which refined seeds tie.
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
        for name, minimum in (("pnr_ceiling", 1), ("grid_resolution", 2), ("beta_resolution", 2)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), minimum))
        check_tolerance(self.quad_tolerance)

    @property
    def beta_max(self) -> float:
        return 3.0 * math.sqrt(2.0 * self.nbar)


@dataclass(frozen=True)
class OptimizationResult:
    """Best receiver found, with the baselines it is judged against."""

    constellation: BinaryConstellation
    config: ReceiverConfig
    # Decoded ``bit1_high`` (counts above K decode bit 1): the search
    # reports every optimum as that twin.
    perr: float
    perr_sql: float
    perr_helstrom: float
    trace: tuple[tuple[int, float], ...] = field(repr=False)
    # The winning seed's gradient norm (see ``seeds``), and how many
    # refinement seeds stopped on ``MAX_REFINE_ROUNDS`` instead of
    # converging.
    gradient_norm: float
    capped_seeds: int
    # Every refined seed of thresholds below the ceiling, in refinement
    # order, as ``(k, theta, beta, perr, trace, gradient_norm, capped)``
    # tuples: the end point of each seed's refinement, its error, its audit
    # trace, the norm of the grid-scaled gradient of ``perr`` there (on the
    # optimizer's fixed rule), and whether it stopped on
    # ``MAX_REFINE_ROUNDS`` still moving.  The winner is one of them; a
    # lower ceiling's result picks among a prefix.
    seeds: tuple[tuple, ...] = field(repr=False)


@dataclass(frozen=True)
class SweepCell:
    """One (sigma, PNR ceiling) cell of a sweep; failed cells carry an error."""

    sigma: float
    pnr_ceiling: int
    result: OptimizationResult | None
    error: str | None


def _grid_scan(problem: OptimizationProblem, rule):
    """Evaluate the error probability on the full (K, theta, beta) grid,
    averaged on the fixed rule ``rule``.

    Returns ``(thetas, betas, perr)`` with ``perr[k, i, j]`` the
    ``bit1_high`` error at threshold ``k``; a cell and its mirror twin hold
    ``x`` and ``1 - x``.  The beta axis is mirrored exactly,
    ``betas[m - 1 - j] == -betas[j]``: its first half is ``linspace``'s,
    the rest that half negated, and the centre of an odd axis is 0.

    The averages run on a table of symbol amplitudes rather than on the
    cells.  Cell ``i`` and cell ``n - i`` share ``|alpha1| = s*sin(theta)``
    and ``|alpha0| = s*|cos(theta)|``, and ``mu(-a, beta) = mu(a, -beta)``.
    So the table holds ``<F_K(mu)>`` for the ``n//2 + 1`` amplitudes of
    each symbol with ``cos(theta) >= 0``, one batch per node, and each cell
    gathers its two rows, with the beta axis reversed for ``alpha0`` where
    ``cos(theta) < 0``.  The grid only seeds refinement, which re-evaluates
    adaptively.
    """
    n, m = problem.grid_resolution, problem.beta_resolution
    s = math.sqrt(2.0 * problem.nbar)
    thetas = np.linspace(0.0, math.pi, n, endpoint=False)
    betas = np.linspace(-problem.beta_max, problem.beta_max, m)
    betas[m - m // 2:] = -betas[:m // 2][::-1]
    if m % 2:
        betas[m // 2] = 0.0
    rows = n // 2 + 1
    # |alpha1| then |alpha0| of theta_0 .. theta_(n//2), shape (2*rows, 1)
    amps = np.concatenate([s * np.sin(thetas[:rows]), s * np.cos(thetas[:rows])])[:, None]

    # table[k] accumulates P(count <= k | amplitude) per row and beta.
    table = np.zeros((problem.pnr_ceiling, amps.size, m))
    for w, phi in zip(rule.weights, rule.nodes):
        for acc, cdf in zip(table, _poisson_cdfs(displaced_intensity(amps, betas, phi))):
            acc += w * cdf

    # Cells 0 .. n//2 read their own rows.  Cells n//2 + 1 .. n - 1 have
    # cos(theta) < 0 and read the rows of n - i, descending, with alpha0's
    # beta axis reversed.  2*rows >= n, so each threshold's grid is written
    # into its table's first n rows once both gathers are read.
    for acc in table:
        one, zero = acc[:rows], acc[rows:]
        gap = np.concatenate([one, one[n - rows:0:-1]])
        gap -= np.concatenate([zero, zero[n - rows:0:-1, ::-1]])
        gap *= 0.5
        gap += 0.5
        acc[:n] = gap
    return thetas, betas, table[:, :n]


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


def _derivatives(nbar: float, k: int, theta: float, beta: float,
                 scale: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the ``bit1_high`` error probability at
    threshold ``k``, in grid-scaled coordinates
    ``(theta/scale[0], beta/scale[1])``, averaged on the optimizer's fixed
    rule ``rule``.

    With ``a1 = s*sin(theta)``, ``a0 = s*cos(theta)`` and
    ``F(mu) = P(count <= k | mu)``, the ``bit1_high`` error is
    ``F(mu1)/2 + (1 - F(mu0))/2``; ``F' = -p_k`` and ``F'' = p_k - p_(k-1)``
    give its derivatives by the chain rule.  The error itself is not formed
    here: ``generalized_kennedy_detail`` is its one evaluator.
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
    pt, pb, ptt, ptb, pbb = rule.average(0.5 * (terms[:, 0] - terms[:, 1]))
    grad = np.array([pt, pb]) * scale
    hess = np.array([[ptt, ptb], [ptb, pbb]]) * np.outer(scale, scale)
    return grad, hess


def _newton_step(grad: np.ndarray, hess: np.ndarray, radius: float) -> np.ndarray:
    """Newton step on the absolute curvatures of ``hess``, shortened to
    ``radius`` when longer (Nocedal & Wright, *Numerical Optimization*,
    2nd ed., section 3.4).

    Each gradient component along an eigenvector of ``hess`` is divided by
    the magnitude of its eigenvalue, floored at the smallest normal double,
    so a nonzero gradient gives a descent direction, and the plain Newton
    step where ``hess`` is positive definite.  Along a zero curvature the
    component is huge but finite (for gradient components below about 4),
    and the cap shortens the step to ``radius``.
    """
    lam, vecs = np.linalg.eigh(hess)
    step = -vecs @ ((vecs.T @ grad) / np.maximum(np.abs(lam), sys.float_info.min))
    length = math.hypot(*step)
    return step if length <= radius else step * (radius / length)


def _refine(problem: OptimizationProblem, k: int, theta0: float, beta0: float,
            scale: np.ndarray, rule):
    """Damped Newton descent of the ``bit1_high`` error in (theta, beta)
    from one grid seed.

    Coordinates are scaled by the grid steps ``scale``, so one unit is one
    grid cell.  Each iteration takes ``_newton_step``: the Newton step of
    the quadratic model built from ``_derivatives`` on the fixed rule
    ``rule``, on the absolute values of its curvatures, and shortened to
    the step cap ``radius`` of at most one cell.  If the step does not
    lower the adaptively evaluated error, ``golden_minimize`` searches
    along it.  The next cap is twice the accepted step, at most one cell,
    and the seed has converged once the accepted step is shorter than
    ``REFINE_TOLERANCE`` cells.

    Never regresses: a point is accepted only if its adaptive error is below
    the best so far (the adaptively evaluated seed is iteration 0 of the
    audit trace), so each reported value keeps its quadrature tolerance.
    ``generalized_kennedy_detail`` is the one evaluator of the error.

    Returns ``(theta, beta, best, trace, gradient_norm, capped)`` for the
    last accepted point, with the norm of the grid-scaled gradient there on
    ``rule``: the last round's, taken again only if that round moved.
    ``capped`` is whether the last round still moved at least
    ``REFINE_TOLERANCE``, so a seed converging in round ``MAX_REFINE_ROUNDS``
    is not capped.
    """

    def evaluate(theta: float, beta: float) -> float:
        cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=problem.pnr_ceiling)
        return generalized_kennedy_detail(
            parametrize(theta, problem.nbar), cfg, problem.noise, problem.quad_tolerance
        )[0]

    theta, beta = theta0, beta0
    best = evaluate(theta, beta)
    trace = [(0, best)]
    radius = 1.0
    for iteration in range(1, MAX_REFINE_ROUNDS + 1):
        grad, hess = _derivatives(problem.nbar, k, theta, beta, scale, rule)
        step = _newton_step(grad, hess, radius)
        length = math.hypot(*step)
        moved = 0.0
        if length >= REFINE_TOLERANCE:
            dtheta, dbeta = step * scale
            # The error at every evaluated fraction of the step; both ends
            # are known: the current point and the full step.
            known = {0.0: best, 1.0: evaluate(theta + dtheta, beta + dbeta)}
            t = 1.0
            if known[1.0] >= best:
                def along(u: float) -> float:
                    if u not in known:
                        known[u] = evaluate(theta + u * dtheta, beta + u * dbeta)
                    return known[u]

                t, _ = golden_minimize(along, 0.0, 1.0, xtol=REFINE_TOLERANCE / length)
            if known[t] < best:
                theta, beta, best = theta + t * dtheta, beta + t * dbeta, known[t]
                moved = t * length
        trace.append((iteration, best))
        if moved < REFINE_TOLERANCE:
            break
        radius = min(1.0, 2.0 * moved)
    if moved:
        grad, _ = _derivatives(problem.nbar, k, theta, beta, scale, rule)
    return theta, beta, best, trace, math.hypot(*grad), moved >= REFINE_TOLERANCE


def _search(problem: OptimizationProblem) -> tuple:
    """Grid scan and refinement of every seed of thresholds
    ``0 .. pnr_ceiling - 1``, in refinement order, as
    ``(k, theta, beta, perr, trace, gradient_norm, capped)`` tuples.

    The one fixed rule of the search is folded onto phi >= 0: real
    amplitudes and a real displacement make every integrand averaged on
    it, the grid values and the Newton derivatives alike, even in phi.
    Refinement's unit lengths are the grid steps.
    """
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    thetas, betas, grid_perr = _grid_scan(problem, rule)
    scale = np.array([thetas[1] - thetas[0], betas[1] - betas[0]])
    seeds = []
    for k, i, j in _select_seeds(grid_perr, REFINE_SEEDS):
        theta, beta, perr, trace, norm, capped = _refine(
            problem, k, float(thetas[i]), float(betas[j]), scale, rule
        )
        seeds.append((k, theta, beta, perr, tuple(trace), norm, capped))
    return tuple(seeds)


def _pick(problem: OptimizationProblem, seeds: tuple) -> OptimizationResult:
    """The result at ``problem``'s ceiling: the best of the refined
    ``seeds`` with ``k < pnr_ceiling`` under the tie-break, with its own
    ``perr_sql`` and ``perr_helstrom``.  Seeds tie when their errors are
    within ``TIE_WINDOW`` of the best, relative to it."""
    candidates = tuple(s for s in seeds if s[0] < problem.pnr_ceiling)
    best_perr = min(s[3] for s in candidates)
    k, theta, beta, perr, trace, gradient_norm, _ = min(
        (s for s in candidates if s[3] <= best_perr * (1.0 + TIE_WINDOW)),
        key=lambda s: (s[0], abs(s[2]), s[1], s[2]),
    )

    constellation = parametrize(theta, problem.nbar)
    return OptimizationResult(
        constellation=constellation,
        config=ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=problem.pnr_ceiling),
        perr=perr,
        perr_sql=perr_sql_baseline(problem.nbar, problem.noise, problem.quad_tolerance),
        perr_helstrom=perr_helstrom(constellation, problem.noise),
        trace=trace,
        gradient_norm=gradient_norm,
        capped_seeds=sum(s[6] for s in candidates),
        seeds=candidates,
    )


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Full deterministic search: exhaustive threshold scan, dense grid
    seeding, then damped Newton refinement of the best seeds of each
    threshold.  The winner is reported as its ``bit1_high`` twin, with the
    error its refinement accepted, so ``(perr, BIT1_HIGH)`` equals
    ``generalized_kennedy_detail`` at the reported configuration."""
    return _pick(problem, _search(problem))


def _sweep_cell(problem: OptimizationProblem,
                top: OptimizationResult | None = None) -> SweepCell:
    """One cell: ``problem``'s own ``optimize`` or, given ``top``, the
    result of the same problem at a higher ceiling, picked among its
    seeds."""
    try:
        result = optimize(problem) if top is None else _pick(problem, top.seeds)
        error = None
    except NUMERICAL_FAILURES:
        result, error = None, traceback.format_exc(limit=3)
    return SweepCell(sigma=problem.noise.sigma, pnr_ceiling=problem.pnr_ceiling,
                     result=result, error=error)


def _sweep_row(problems: list[OptimizationProblem]) -> list[SweepCell]:
    """One row of ``sweep_sigma``: the cells of one sigma, ``problems`` in
    ascending ceiling order, from one ``optimize`` at the highest ceiling,
    from which every lower ceiling is read.

    Nothing in a threshold's grid slice, seeds or refinement depends on the
    ceiling, so the top result's ``seeds`` hold every refined seed that a
    lower ceiling's ``optimize`` would refine, in the same order, each with
    its gradient norm; picking among them, with the cell's own baselines,
    gives that ``optimize`` field for field.  If the top search fails
    numerically, each lower ceiling runs its own ``optimize``, so a cell
    fails exactly when its own search does.
    """
    *lower, highest = problems
    top = _sweep_cell(highest)
    return [_sweep_cell(p, top.result) for p in lower] + [top]


def sweep_sigma(
    nbar: float,
    sigmas: list[float],
    pnr_list: list[int],
    jobs: int = 1,
    **knobs,
) -> list[list[SweepCell]]:
    """The optimized receiver at every (sigma, PNR ceiling) pair: one row
    per sigma, in the order given, each holding one cell per distinct
    ceiling of ``pnr_list``, in ascending order.

    One search per sigma serves every ceiling: ``optimize`` runs once, at
    the highest ceiling, and each lower ceiling's cell is read off its
    refined seeds, equal to that ceiling's own ``optimize`` field for field.
    Every problem is built, and so validated, before the first search
    runs: an invalid input raises ``ValueError`` for the whole sweep.  A
    cell whose optimization fails numerically (``NUMERICAL_FAILURES``) is
    recorded with its error instead of aborting the sweep; any other error
    propagates.  ``jobs > 1`` dispatches the rows to a process pool; the
    rows come back in sigma order either way, so parallel and serial runs
    agree bit for bit.
    """
    if not sigmas or not pnr_list:
        raise ValueError("sigmas and pnr_list must be non-empty")
    jobs = check_count("jobs", jobs, 1)
    ceilings = sorted({check_count("pnr_ceiling", pnr, 1) for pnr in pnr_list})
    rows = [[OptimizationProblem(nbar=float(nbar), noise=PhaseNoise(float(sigma)),
                                 pnr_ceiling=pnr, **knobs) for pnr in ceilings]
            for sigma in sigmas]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_row, rows))
    return [_sweep_row(row) for row in rows]
