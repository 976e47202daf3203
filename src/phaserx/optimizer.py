"""Receiver and constellation optimization under the average-power constraint.

Minimizes the displaced photon-counting error probability over the
constellation angle ``theta`` (which parametrizes all real-axis binary
constellations of a given mean photon number exactly), the displacement
``beta``, and the count threshold ``K``.  The optimum lies on the real axis:
given the magnitudes, each symbol's term of the error depends only on its
own angle ``delta`` to ``beta``, through the intensity
``|alpha|**2 + |beta|**2 + 2*|alpha*beta|*cos(phi + delta)``.  Averaged over
a phase law symmetric and unimodal on the circle, as the Gaussian's is, a
function monotone in ``cos(phi + delta)`` is monotone in ``|delta|``.
``P(count <= K)`` falls as the intensity grows, so bit 1's term is least at
``delta = 0`` and bit 0's at ``delta = pi``: both symbols real once ``beta``
is.  The test suite guards the restriction with an imaginary-perturbation
check.

The search is fully deterministic: a dense (theta, beta) grid per threshold
value seeds one damped Newton refinement in (theta, u) from the best cell
of each threshold, with ``u = beta + alpha0(theta)`` the offset from
nulling ``alpha0``, which straightens the noiseless nulling valley.  The
seed with the least error wins, and an exact tie goes to the smallest
``K``: one seed per threshold leaves nothing else to break.

Only the ``bit1_high`` decision rule is searched.  A receiver decoded
``bit0_high`` is its mirror twin decoded ``bit1_high``: swapping the bit
labels is swapping the symbols, ``theta -> pi/2 - theta``, wrapped into
[0, pi) by ``(alpha, beta) -> (-alpha, -beta)``, and the beta window is
symmetric.  So the angle already spans both labellings, every optimum is
found and reported once, as its ``bit1_high`` twin, and the objective is the
smooth ``bit1_high`` error, with no kink where the two labellings cross.

The error probability is a phase average of Poisson CDFs ``F_K(mu)`` of the
symbol intensities ``mu = a**2 + beta**2 + 2*a*beta*cos(phi)``, and
``dF_K/dmu = -p_K(mu)``, so its gradient and Hessian in (theta, u) are
phase averages of the same kind.  The grid scan and refinement average on
one fixed rule built once per problem: ``average``'s order-64 rung
(``GRID_QUAD_ORDER``), folded.  The scan's beta axis is mirrored exactly,
so it averages a table of amplitudes ``s*sin(i*pi/(2n))``, i = 0 .. n,
that both symbols index (on an even grid of ``n`` angles they share its
``n/2 + 1`` even rows), and gathers the grid from it.  Per phase node it
adds the weighted Poisson terms ``w*p_j(mu)`` into threshold ``j``, from
one division-free recurrence, and sums over thresholds once after the
last node.  Refinement steps on the Newton step of the Hessian's absolute
curvatures, capped in length, and accepts it on the error averaged on
that rule.  The adaptive ``generalized_kennedy_detail`` certifies each
seed's end point once, and its value is reported; a seed whose rule misses
it by more than the tolerance goes on on the next rung of the same ladder,
64 -> 128 -> 256 -> 512 (``MAX_ORDER``).  Each seed records the decrease
that one more uncapped Newton step predicts there, relative to its error:
a stationarity measure free of the grid's units and the curvature's
scale, on which refinement stops once it is below ``eps``.
"""

from __future__ import annotations

import math
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constellation import BinaryConstellation, check_count, check_nbar, parametrize
from .golden import golden_minimize
from .helstrom import perr_helstrom
from .phasenoise import (BASE_ORDER, DEFAULT_TOLERANCE, MAX_ORDER, ConvergenceError,
                         PhaseNoise, build_rule, check_tolerance)
from .receivers import (
    ReceiverConfig,
    _intensity,
    _kennedy_error,
    _poisson_pmf,
    _poisson_terms,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_sql_baseline,
)

# Order of the fixed rule that the grid scan and refinement average on:
# ``average``'s second rung, so every search rule is one of its orders.
GRID_QUAD_ORDER = 2 * BASE_ORDER
MAX_REFINE_ROUNDS = 60
# Errors that mean an optimization failed numerically rather than was asked
# for something invalid: a sweep records them per cell, the CLI exits 4.
NUMERICAL_FAILURES = (ConvergenceError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class OptimizationProblem:
    """Search specification: power budget, channel, detector, and knobs."""

    nbar: float
    noise: PhaseNoise
    pnr_ceiling: int
    grid_resolution: int = 182
    beta_resolution: int = 241
    quad_tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        check_nbar(self.nbar, positive=True)
        for name, minimum in (("pnr_ceiling", 1), ("grid_resolution", 2), ("beta_resolution", 2)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), minimum))
        check_tolerance(self.quad_tolerance)

    @property
    def beta_max(self) -> float:
        """The grid's beta half-width: three times the largest nulling
        displacement ``sqrt(2*nbar)``, floored at 1.5, which binds below
        nbar 0.125.  At vanishing signal the optimum is BPSK with ``beta``
        near ``1/sqrt(2)``, where ``exp(-beta**2)`` is steepest; the floor
        holds it with a twofold margin."""
        return max(3.0 * math.sqrt(2.0 * self.nbar), 1.5)


class Seed(NamedTuple):
    """One refined grid seed: threshold ``k``, end point ``(theta, beta)``,
    certified error ``perr``, audit ``trace`` of (round, search-rule error)
    pairs, the norm of the gradient in grid-scaled (theta, u) at the end
    point on the last search rule, whether it stopped on
    ``MAX_REFINE_ROUNDS`` still moving, that rule's ``order``, and the
    ``predicted_decrease`` of the end point's Newton step relative to
    ``perr``, ``g @ inv(|H|) @ g / (2*perr)`` on the same rule (0 at 0).

    ``gradient_norm`` carries the grid's units and the curvature's scale,
    so it cannot tell a converged seed from a stalled one.  The predicted
    decrease is free of both: it is what one more uncapped Newton step
    expects to gain, as a share of the error."""

    k: int
    theta: float
    beta: float
    perr: float
    trace: tuple[tuple[int, float], ...]
    gradient_norm: float
    capped: bool
    order: int
    predicted_decrease: float


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
    # The reported seed, and every refined seed below the ceiling (the winner
    # among them): one per threshold, in threshold order.  A lower ceiling
    # picks among a prefix.
    winner: Seed = field(repr=False)
    seeds: tuple[Seed, ...] = field(repr=False)


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
    cells: row ``i = 0 .. n`` is ``s*sin(i*pi/(2n))``.  ``|alpha1|`` of
    ``theta_j`` is row ``2j``, and ``|alpha0| = s*|cos(theta_j)|`` row
    ``n - 2j``, which an odd ``n`` computes as ``s*cos(theta_j)`` and an even
    ``n`` shares with ``alpha1``, keeping the ``n/2 + 1`` even rows only.
    Cell ``c`` reads the rows of ``theta_j``, ``j = min(c, n - c)``, with
    the beta axis reversed for ``alpha0`` where ``cos(theta) < 0``, as
    ``mu(-a, beta) = mu(a, -beta)``.  The grid only seeds refinement.

    Per node ``(w, phi)`` the table's rows take the Poisson terms of
    ``_poisson_terms`` from the first term ``w*exp(-mu)``: threshold ``j``
    adds the weighted ``p_j``, one multiply pair and one add per
    threshold, with no division and no CDF per node.  After the last node
    the running sum over thresholds, ``K - 1`` in-place adds, turns the
    averaged terms into averaged CDFs ``P(count <= k)``.  That rounds
    differently from averaging each node's CDFs, by below 2e-15 absolute.
    """
    n, m = problem.grid_resolution, problem.beta_resolution
    s = math.sqrt(2.0 * problem.nbar)
    thetas = np.linspace(0.0, math.pi, n, endpoint=False)
    betas = np.linspace(-problem.beta_max, problem.beta_max, m)
    betas[m - m // 2:] = -betas[:m // 2][::-1]
    if m % 2:
        betas[m // 2] = 0.0
    rows = n // 2 + 1
    step = math.gcd(n, 2)  # an even n keeps only the even rows i, each at i // 2
    j = np.minimum(np.arange(n), n - np.arange(n))
    one, zero = 2 * j // step, (n - 2 * j) // step
    amps = np.empty((n // step + 1, 1))
    amps[zero[:rows], 0] = s * np.cos(thetas[:rows])
    amps[one[:rows], 0] = s * np.sin(thetas[:rows])

    # grid[j] accumulates the weighted term P(count = j | amplitude) per row
    # in its leading rows, and the running sum over j turns it into
    # P(count <= j | amplitude).
    grid = np.zeros((problem.pnr_ceiling, n + 1, m))
    table = grid[:, :amps.size]
    for w, phi in zip(rule.weights, rule.nodes):
        mu = displaced_intensity(amps, betas, phi)
        first = np.exp(-mu)
        first *= w
        for acc, term in zip(table, _poisson_terms(mu, first)):
            acc += term
    for below, acc in zip(table, table[1:]):
        acc += below

    # Cells 0 .. n//2 read their own rows, and cells n//2 + 1 .. n - 1, where
    # cos(theta) < 0, those of n - c; each threshold gathers from a copy.
    for acc in grid:
        own = acc[:amps.size].copy()
        np.subtract(own[one[:rows]], own[zero[:rows]], out=acc[:rows])
        np.subtract(own[one[rows:]], own[zero[rows:], ::-1], out=acc[rows:n])
        acc *= 0.5
        acc += 0.5
    return thetas, betas, grid[:, :n]


def _select_seeds(perr: np.ndarray) -> list[tuple[int, int, int]]:
    """Deterministic seed set: each threshold's best grid cell, the first
    in row-major order on ties, with nan ranked as inf: the head of a
    stable ``argsort`` of each slice.

    A threshold's grid slice does not depend on the PNR ceiling, so a
    higher ceiling refines every seed of a lower one and its optimum can
    only be equal or lower.

    Each threshold's slice of the scan's grid is contiguous, so it is
    searched in place.  ``argmin`` lands on the first nan where there is
    one; only then is the slice searched again with nan masked as inf.
    """
    seeds = []
    for k, grid in enumerate(perr):
        flat = grid.reshape(-1)
        best = int(np.argmin(flat))
        if np.isnan(flat[best]):
            best = int(np.argmin(np.where(np.isnan(flat), np.inf, flat)))
        seeds.append((k, *(int(i) for i in np.unravel_index(best, grid.shape))))
    return seeds


def _derivatives(nbar: float, k: int, theta: float, u: float,
                 scale: np.ndarray, rule) -> tuple[float, np.ndarray, np.ndarray]:
    """The ``bit1_high`` error probability at threshold ``k`` with its
    gradient and Hessian in grid-scaled coordinates
    ``(theta/scale[0], u/scale[1])``, averaged on the search rule ``rule``
    from one batch of intensities, as ``(value, grad, hess)``.

    With ``a1 = s*sin(theta)``, ``a0 = s*cos(theta)``, the displacement
    ``beta = u - a0`` and ``F(mu) = P(count <= k | mu)``, the ``bit1_high``
    error is ``F(mu1)/2 + (1 - F(mu0))/2``; ``F' = -p_k`` and
    ``F'' = p_k - p_(k-1)`` give its derivatives by the chain rule.  At
    fixed ``u``, ``d beta/d theta = a1`` and ``d2 beta/d theta2 = a0``; the
    mu-derivatives are taken in (theta, u) directly, since the
    (theta, beta) Hessian mapped over to (theta, u) cancels in the valley.  The value averages the
    integrand of ``generalized_kennedy_detail``, equal to it at sigma = 0.
    """
    s = math.sqrt(2.0 * nbar)
    a1, a0 = s * math.sin(theta), s * math.cos(theta)
    a = np.array([[a1], [a0]])
    da = np.array([[a0], [-a1]])  # d a / d theta; d2 a / d theta2 = -a
    beta = u - a0
    cos = rule.cos
    mu = _intensity(a, beta, cos, rule.sin)
    mu_a = 2.0 * (a + beta * cos)
    mu_b = 2.0 * (beta + a * cos)
    mu_t = mu_a * da + mu_b * a1
    mu_tt = 2.0 * (da * da + 2.0 * cos * da * a1 + a1 * a1) - mu_a * a + mu_b * a0
    mu_tu = 2.0 * (cos * da + a1)
    pmf = _poisson_pmf(np.arange(max(k - 1, 0), k + 1.0)[:, None, None], mu)
    d1 = -pmf[-1]
    d2 = pmf[-1] - pmf[0] if k > 0 else pmf[-1]
    terms = np.stack([
        d1 * mu_t,
        d1 * mu_b,
        d2 * mu_t * mu_t + d1 * mu_tt,
        d2 * mu_t * mu_b + d1 * mu_tu,
        d2 * mu_b * mu_b + 2.0 * d1,
    ])
    pt, pu, ptt, ptu, puu = rule.average(0.5 * (terms[:, 0] - terms[:, 1]))
    st, su = scale
    grad = np.array([pt * st, pu * su])
    hess = np.array([[ptt * (st * st), ptu * (st * su)], [ptu * (st * su), puu * (su * su)]])
    return rule.average(_kennedy_error(k, mu)), grad, hess


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton step on the absolute curvatures of ``hess`` (Nocedal &
    Wright, *Numerical Optimization*, 2nd ed., section 3.4).

    Each gradient component along an eigenvector of ``hess`` is divided by
    the magnitude of its eigenvalue, floored at the smallest normal double,
    so a nonzero gradient gives a descent direction, and the plain Newton
    step where ``hess`` is positive definite.  Along a zero curvature the
    component is huge but finite (for gradient components below about 4).
    """
    lam, vecs = np.linalg.eigh(hess)
    return -vecs @ ((vecs.T @ grad) / np.maximum(np.abs(lam), sys.float_info.min))


def _refine(problem: OptimizationProblem, k: int, theta0: float, beta0: float,
            scale: np.ndarray, rule):
    """Damped Newton descent of the ``bit1_high`` error in (theta, u),
    ``u = beta + sqrt(2*nbar)*cos(theta)``, from the grid seed
    ``(theta0, beta0)``, on the search rule, at first the fixed ``rule``.

    Coordinates are scaled by the grid steps ``scale``, so one unit is one
    grid cell.  Each round takes ``_newton_step`` on the current point's
    ``_derivatives`` and stops once its predicted decrease is at most
    ``eps`` times the error, or the error is 0: one more step would gain
    less than an ulp.  Otherwise the step, capped at one cell, is tried; if
    it does not lower the error, ``golden_minimize`` searches its interior
    to ``sqrt(eps / predicted)`` of its length, below which points differ
    by less than an ulp.  A round that finds no lower point ends the descent;
    ``MAX_REFINE_ROUNDS`` ends it ``capped``.  Each evaluated point keeps
    its ``_derivatives``, so none is computed twice.

    The adaptive ``generalized_kennedy_detail`` at the end point certifies
    it and is the seed's error.  Where the rule's value misses it by more
    than ``quad_tolerance`` relative, the descent goes on, with a fresh
    round budget, on the folded rule of twice the order, at most
    ``MAX_ORDER``; a miss on that rule raises ``ConvergenceError``.

    Returns the fields of ``Seed`` after ``k``, in their order.
    """
    eps = sys.float_info.epsilon
    s = math.sqrt(2.0 * problem.nbar)
    theta, u, order = theta0, beta0 + s * math.cos(theta0), GRID_QUAD_ORDER
    value, grad, hess = _derivatives(problem.nbar, k, theta, u, scale, rule)
    trace = [(0, value)]
    while True:
        for iteration in range(len(trace), len(trace) + MAX_REFINE_ROUNDS):
            step = _newton_step(grad, hess)
            decrease = -0.5 * float(grad @ step)  # g @ inv(|H|) @ g / 2
            moved = False
            if value > 0.0 and decrease > eps * value:
                dtheta, du = step * scale / max(1.0, math.hypot(*step))
                known = {}  # _derivatives by fraction of the step

                def along(frac: float) -> float:
                    if frac not in known:
                        known[frac] = _derivatives(problem.nbar, k, theta + frac * dtheta,
                                                   u + frac * du, scale, rule)
                    return known[frac][0]

                t = 1.0
                if along(1.0) >= value:
                    t, _ = golden_minimize(along, 0.0, 1.0,
                                           xtol=math.sqrt(eps * value / decrease))
                moved = known[t][0] < value
                if moved:
                    theta, u = theta + t * dtheta, u + t * du
                    value, grad, hess = known[t]
            trace.append((iteration, value))
            if not moved:
                break
        beta = u - s * math.cos(theta)  # as ``_derivatives`` takes it
        cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=problem.pnr_ceiling)
        perr, _ = generalized_kennedy_detail(parametrize(theta, problem.nbar), cfg,
                                             problem.noise, problem.quad_tolerance)
        if abs(value - perr) <= problem.quad_tolerance * perr:
            # nothing is left to decrease from an error of 0
            predicted = -0.5 * float(grad @ _newton_step(grad, hess)) / perr if perr else 0.0
            return (theta, beta, perr, tuple(trace), math.hypot(*grad), moved, order, predicted)
        if order >= MAX_ORDER:
            raise ConvergenceError(f"refinement rule of order {order} misses the adaptive error "
                                   f"{perr!r} by more than {problem.quad_tolerance}", value, perr)
        order = min(2 * order, MAX_ORDER)
        rule = build_rule(problem.noise, order).fold_even()
        value, grad, hess = _derivatives(problem.nbar, k, theta, u, scale, rule)


def _search(problem: OptimizationProblem) -> tuple[Seed, ...]:
    """Grid scan and refinement below the ceiling: one seed per threshold,
    refined from its best grid cell, in threshold order.

    Every rule of the search is folded onto phi >= 0: real amplitudes and
    a real displacement make every integrand averaged on it, the grid
    values and the Newton terms alike, even in phi.  Refinement's unit
    lengths are the grid steps.
    """
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    thetas, betas, grid_perr = _grid_scan(problem, rule)
    scale = np.array([thetas[1] - thetas[0], betas[1] - betas[0]])
    return tuple(Seed(k, *_refine(problem, k, float(thetas[i]), float(betas[j]), scale, rule))
                 for k, i, j in _select_seeds(grid_perr))


def _pick(problem: OptimizationProblem, seeds: tuple[Seed, ...]) -> OptimizationResult:
    """The result at ``problem``'s ceiling: the best of the refined
    ``seeds`` with ``k < pnr_ceiling``, with its own ``perr_sql`` and
    ``perr_helstrom``.  The first seed in threshold order with the least
    error wins, so an exact tie goes to the smallest ``K``."""
    candidates = tuple(s for s in seeds if s.k < problem.pnr_ceiling)
    winner = min(candidates, key=lambda s: s.perr)

    constellation = parametrize(winner.theta, problem.nbar)
    return OptimizationResult(
        constellation=constellation,
        config=ReceiverConfig(beta=winner.beta, threshold_k=winner.k,
                              pnr_ceiling=problem.pnr_ceiling),
        perr=winner.perr,
        perr_sql=perr_sql_baseline(problem.nbar, problem.noise, problem.quad_tolerance),
        perr_helstrom=perr_helstrom(constellation, problem.noise),
        winner=winner,
        seeds=candidates,
    )


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Full deterministic search: exhaustive threshold scan, dense grid
    seeding, then damped Newton refinement in (theta, u) of each
    threshold's best grid cell, one seed per threshold.  The winner is
    reported as its ``bit1_high`` twin, with the error that certified its
    refinement, so ``(perr, BIT1_HIGH)`` equals
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
    lower ceiling's ``optimize`` would refine, in the same order; picking
    among them, with the cell's own baselines, gives that ``optimize``
    field for field.  If the top search fails numerically, each lower
    ceiling runs its own ``optimize``, so a cell fails exactly when its own
    search does.
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
