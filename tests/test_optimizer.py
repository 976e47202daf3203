import functools
import math

import numpy as np
import pytest
from scipy.special import pdtr

from phaserx.constellation import BinaryConstellation, parametrize
from phaserx.optimizer import (
    GRID_QUAD_ORDER,
    MAX_REFINE_ROUNDS,
    REFINE_SEEDS,
    TIE_WINDOW,
    OptimizationProblem,
    _derivatives,
    _grid_scan,
    _newton_step,
    _pick,
    _select_seeds,
    optimize,
    sweep_sigma,
)
from phaserx.phasenoise import PhaseNoise, build_rule
from phaserx.receivers import (
    BIT1_HIGH,
    ReceiverConfig,
    _poisson_cdfs,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_generalized_kennedy,
    poisson_cdf,
)

KENNEDY_2 = 1.677313139512559194e-4  # exp(-8)/2, the exact-nulling feasible point

# Reduced search knobs keep unit tests fast; acceptance runs the defaults.
FAST = dict(grid_resolution=61, beta_resolution=81)


def fast_problem(nbar, sigma, pnr, **over):
    knobs = {**FAST, **over}
    return OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=pnr, **knobs)


@functools.lru_cache(maxsize=None)
def default_optimum(nbar, sigma, pnr):
    """``optimize`` at default knobs, run once per problem for the module."""
    return optimize(OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=pnr))


def test_problem_validation():
    with pytest.raises(ValueError):
        fast_problem(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        fast_problem(2.0, 0.1, 0)
    with pytest.raises(ValueError):
        fast_problem(2.0, 0.1, 1, grid_resolution=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            fast_problem(bad, 0.1, 1)
    for bad in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            fast_problem(2.0, 0.1, 1, quad_tolerance=bad)


def test_beta_window_scales_with_power():
    assert fast_problem(2.0, 0.1, 1).beta_max == pytest.approx(6.0, rel=1e-14)


def test_noiseless_beats_exact_nulling():
    """With freedom in beta the optimum edges past the nulling receiver.

    Runs the default search knobs: the coarse test grid can stall just shy
    of the nulling point, and this bound is a promise of the full search.
    """
    res = optimize(OptimizationProblem(nbar=2.0, noise=PhaseNoise(0.0), pnr_ceiling=8))
    assert res.perr <= KENNEDY_2 * (1.0 + 1e-9)
    assert res.config.threshold_k == 0
    # essentially antipodal symbols at this operating point
    assert abs(abs(res.constellation.alpha0) - abs(res.constellation.alpha1)) < 0.1
    assert res.perr < res.perr_sql


def test_result_respects_power_constraint_and_sandwich():
    res = optimize(fast_problem(2.0, 0.45, 3))
    assert res.constellation.mean_photon_number() == pytest.approx(2.0, rel=1e-12)
    assert res.perr_helstrom <= res.perr + 1e-12
    assert 0.0 <= res.perr <= 0.5
    assert res.config.threshold_k < res.config.pnr_ceiling
    # the reported error is the adaptive evaluation at the reported
    # configuration, decoded bit1_high
    again = generalized_kennedy_detail(res.constellation, res.config, PhaseNoise(0.45))
    assert again == (res.perr, BIT1_HIGH)


def test_optimize_is_deterministic():
    a = optimize(fast_problem(1.5, 0.3, 2))
    b = optimize(fast_problem(1.5, 0.3, 2))
    assert a == b


def test_real_axis_restriction_is_locally_justified():
    """An imaginary displacement component does not help at the optimum."""
    res = optimize(fast_problem(2.0, 0.45, 2))
    noise = PhaseNoise(0.45)
    for eps in (0.05, 0.2):
        perturbed = ReceiverConfig(
            beta=res.config.beta + eps * 1j,
            threshold_k=res.config.threshold_k,
            pnr_ceiling=res.config.pnr_ceiling,
        )
        assert perr_generalized_kennedy(res.constellation, perturbed, noise) >= res.perr - 1e-12


def test_vanishing_signal_approaches_coin_toss():
    res = optimize(fast_problem(1e-4, 0.2, 1, grid_resolution=31, beta_resolution=31))
    assert 0.49 < res.perr < 0.5


def test_trace_is_monotone_audit():
    res = optimize(fast_problem(2.0, 0.2, 2))
    perrs = [p for _, p in res.trace]
    assert perrs[0] >= perrs[-1]
    assert all(a >= b - 1e-15 for a, b in zip(perrs, perrs[1:]))
    assert res.trace[0][0] == 0


def test_sweep_grid_order_and_pnr_nesting():
    """One row per sigma, in the given order, each in ascending ceiling
    order, and perr never rises with the PNR ceiling: a higher ceiling
    refines a superset of the seeds, so this holds exactly."""
    sigmas, pnrs = [0.0, 0.15, 0.3, 0.45, 0.6], [1, 2, 3, 8]
    rows = sweep_sigma(2.0, sigmas, pnrs, **FAST)
    assert [[(c.pnr_ceiling, c.sigma) for c in row] for row in rows] == [
        [(p, s) for p in pnrs] for s in sigmas]
    assert all(c.error is None and c.result is not None for row in rows for c in row)
    for sigma, row in zip(sigmas, rows):
        perrs = [c.result.perr for c in row]
        assert all(a >= b for a, b in zip(perrs, perrs[1:])), (sigma, perrs)


def test_parallel_sweep_matches_serial():
    # several sigmas and ceilings, so that rows go to different workers and
    # each derives its lower ceilings there
    sigmas, pnrs = [0.0, 0.15, 0.3, 0.45], [1, 3, 8]
    serial = sweep_sigma(2.0, sigmas, pnrs, **FAST)
    parallel = sweep_sigma(2.0, sigmas, pnrs, jobs=2, **FAST)
    assert all(c.error is None for row in parallel for c in row)
    assert parallel == serial


def test_sweep_cells_equal_their_own_optimize():
    """One search per sigma serves every ceiling: on 12 problems, each cell
    equals its ceiling's own ``optimize`` as a whole result, seeds
    included."""
    sigmas, pnrs = [0.0, 0.2, 0.45], [1, 2, 3, 4, 8]
    moved = 0
    for nbar in (0.5, 1.0, 2.0, 3.0):
        rows = sweep_sigma(nbar, sigmas, pnrs, **FAST)
        assert [[(c.pnr_ceiling, c.sigma) for c in row] for row in rows] == [
            [(p, s) for p in pnrs] for s in sigmas]
        for row in rows:
            top = row[-1].result
            for cell in row:
                assert cell.error is None
                assert cell.result == optimize(fast_problem(nbar, cell.sigma, cell.pnr_ceiling))
                moved += cell.result.constellation != top.constellation
    # lower ceilings do not all repeat the top ceiling's winner
    assert moved > 0


def test_sweep_rows_hold_each_distinct_ceiling_once_in_ascending_order():
    sigmas = [0.1, 0.3]
    rows = sweep_sigma(1.5, sigmas, [8, 1, 8], **FAST)
    assert rows == sweep_sigma(1.5, sigmas, [1, 8], **FAST)
    assert [[(c.pnr_ceiling, c.sigma) for c in row] for row in rows] == [
        [(1, s), (8, s)] for s in sigmas]


def test_sweep_fails_only_the_ceilings_that_fail_on_their_own():
    # At nbar 2, sigma 1.2 the PNR-8 search meets a phase average that does
    # not converge, while the PNR-1 and PNR-2 searches do not: their cells
    # are still filled, each by its own search.
    [[low1, low2, top]] = sweep_sigma(2.0, [1.2], [1, 2, 8], **FAST)
    assert top.result is None
    assert "ConvergenceError" in top.error
    for cell in (low1, low2):
        assert cell.error is None
        assert cell.result == optimize(fast_problem(2.0, 1.2, cell.pnr_ceiling))


def test_sweep_records_failures_per_cell():
    # sigma = 40 is far beyond the quadrature order cap; sigma = 0.1 is not.
    [filled], [failed] = sweep_sigma(2.0, [0.1, 40.0], [1], **FAST)
    assert filled.error is None and filled.result is not None
    assert failed.result is None
    assert "ConvergenceError" in failed.error


def test_bright_optimum_reports_its_best_seed():
    """Below 1e-12 an absolute tie window tied every seed, and the smaller-K
    tie-break then reported a seed up to 30 times worse than the best.  The
    K = 3 seeds agree to a few ulps, so the winner ties with the best
    rather than equals it."""
    result = optimize(fast_problem(10.0, 0.005, 4))
    assert result.config.threshold_k == 3
    assert result.perr <= min(s[3] for s in result.seeds) * (1.0 + TIE_WINDOW)


def test_pick_ties_seeds_within_the_relative_window():
    problem = fast_problem(2.0, 0.1, 2)

    def picked_k(perr0, perr1):
        seeds = tuple((k, 0.8, 0.5, perr, ((0, perr),), 0.0, False)
                      for k, perr in ((0, perr0), (1, perr1)))
        return _pick(problem, seeds).config.threshold_k

    # a tie goes to the smaller K, at any scale of the error
    assert picked_k(0.25 * (1.0 + 1e-13), 0.25) == 0
    assert picked_k(1e-14 * (1.0 + 1e-13), 1e-14) == 0
    # a gap above the window is not a tie, however small in absolute terms
    assert picked_k(1e-14 * (1.0 + 1e-11), 1e-14) == 1


def test_sweep_validation(monkeypatch):
    def never(problem):
        raise AssertionError("a cell ran")

    # every input is checked before the first cell runs
    monkeypatch.setattr("phaserx.optimizer.optimize", never)
    for sigmas, pnr_list, knobs in [
        ([], [1], FAST),
        ([0.1], [], FAST),
        ([0.1], [1], dict(FAST, grid_resolution=1)),
        ([0.1], [0], FAST),
        ([0.1], [1], dict(FAST, jobs=0)),
        ([0.1], [1], dict(FAST, quad_tolerance=math.nan)),
    ]:
        with pytest.raises(ValueError):
            sweep_sigma(2.0, sigmas, pnr_list, **knobs)


@pytest.mark.parametrize("sigma", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("preferred, theta", [("bit1_high", 1.9), ("bit0_high", 0.35)])
def test_derivative_terms_match_central_differences(sigma, k, preferred, theta):
    """The derivatives of the ``bit1_high`` error, both where it is the
    better labelling and where its mirror twin is."""
    nbar, h = 1.87, 1e-5
    s = math.sqrt(2.0 * nbar)
    # displace close to nulling the dim symbol, which fixes the preference
    beta = 0.1 - s * (math.cos(theta) if preferred == "bit1_high" else math.sin(theta))
    rule = build_rule(PhaseNoise(sigma), 128)
    grad, hess = _derivatives(nbar, k, theta, beta, np.ones(2), rule)

    def p(dt, db):
        """The ``bit1_high`` Kennedy error, averaged on ``rule``."""
        t, b = theta + dt * h, beta + db * h
        alphas = np.array([[s * math.sin(t)], [s * math.cos(t)]])  # alpha1, alpha0
        low1, low0 = poisson_cdf(k, displaced_intensity(alphas, b, rule.nodes))
        return rule.average(0.5 * low1 + 0.5 * (1.0 - low0))

    centre = p(0, 0)
    cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=k + 1)
    c = parametrize(theta, nbar)
    x, _ = generalized_kennedy_detail(c, cfg, PhaseNoise(sigma))
    assert (perr_generalized_kennedy(c, cfg, PhaseNoise(sigma)) == x) == (preferred == "bit1_high")
    assert centre == pytest.approx(x, rel=1e-9)
    differences = [
        (p(1, 0) - p(-1, 0)) / (2 * h),
        (p(0, 1) - p(0, -1)) / (2 * h),
        (p(1, 0) - 2 * centre + p(-1, 0)) / h**2,
        (p(1, 1) - p(1, -1) - p(-1, 1) + p(-1, -1)) / (4 * h * h),
        (p(0, 1) - 2 * centre + p(0, -1)) / h**2,
    ]
    assert np.abs(np.array(differences[:2]) - grad).max() <= 1e-9
    assert np.abs(np.array(differences[2:]) - hess[[0, 0, 1], [0, 1, 1]]).max() <= 1e-5


def _mirror_twin(theta, beta):
    """The (theta, beta) that decodes ``bit1_high`` the receiver that
    ``(theta, beta)`` decodes ``bit0_high``: swapping the bit labels is
    swapping the symbols, theta -> pi/2 - theta, wrapped into [0, pi) by
    (alpha, beta) -> (-alpha, -beta)."""
    twin = 0.5 * math.pi - theta
    return (twin, beta) if twin >= 0.0 else (twin + math.pi, -beta)


@pytest.mark.parametrize("sigma", [0.15, 0.45, 1.0])
@pytest.mark.parametrize("k", [0, 2, 7])
@pytest.mark.parametrize("labelling", ["bit1_high", "bit0_high"])
def test_folded_rule_steers_like_the_full_rule(sigma, k, labelling):
    """The derivatives that steer refinement, on the optimizer's folded rule,
    agree with the same-order full rule up to the rounding of the sum, for
    each drawn receiver under either labelling: a ``bit0_high`` receiver is
    steered at its ``bit1_high`` mirror twin."""
    full = build_rule(PhaseNoise(sigma), GRID_QUAD_ORDER)
    folded = full.fold_even()
    rng = np.random.default_rng(2031)
    for nbar in rng.uniform(0.3, 4.0, size=10):
        beta_max = 3.0 * math.sqrt(2.0 * nbar)
        theta, beta = rng.uniform(0.0, math.pi), rng.uniform(-beta_max, beta_max)
        if labelling == "bit0_high":
            theta, beta = _mirror_twin(theta, beta)
        scale = rng.uniform(0.01, 0.1, size=2)

        def terms(rule):
            grad, hess = _derivatives(nbar, k, theta, beta, scale, rule)
            return np.concatenate([grad, hess.ravel()])

        got, ref = terms(folded), terms(full)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_newton_step_is_a_capped_descent_step():
    """The plain Newton step where the Hessian is positive definite and the
    step fits; never longer than the cap; downhill for random symmetric
    Hessians, definite or not; and finite at a saddle point."""
    rng = np.random.default_rng(5)
    cases = [(np.array([1e-3, -2e-3]), np.array([[4.0, 1.0], [1.0, 2.0]]))]
    for _ in range(40):
        a = rng.normal(size=(2, 2))
        cases.append((rng.normal(size=2), a + a.T))
    newton_steps = 0
    for g, h in cases:
        newton = np.linalg.solve(h, -g)
        for radius in (1e-3, 0.5, 1.0):
            p = _newton_step(g, h, radius)
            assert math.hypot(*p) <= radius * (1.0 + 1e-15)
            assert g @ p < 0.0
            if np.linalg.eigvalsh(h)[0] > 0.0 and math.hypot(*newton) <= radius:
                assert math.hypot(*(p - newton)) <= 1e-13 * math.hypot(*newton)
                newton_steps += 1
    assert newton_steps >= 3
    p = _newton_step(np.zeros(2), np.diag([-1.0, 3.0]), 1.0)
    assert np.all(np.isfinite(p))
    # a zero curvature: the component along it goes to the cap, not to nan
    for g in (np.array([1e-17, 1.0]), np.array([0.0, 1.0])):
        for radius in (1e-3, 0.5, 1.0):
            p = _newton_step(g, np.diag([0.0, 3.0]), radius)
            assert np.all(np.isfinite(p))
            assert math.hypot(*p) <= radius * (1.0 + 1e-15)
            assert g @ p < 0.0


def test_zero_curvature_does_not_end_a_seed():
    """Here one seed meets a Hessian eigenvalue of exactly 0; its step must
    stay finite, so the run raises no divide-by-zero or invalid-value
    warning (the suite turns either into an error)."""
    res = optimize(fast_problem(12.0, 0.0, 1))
    assert res.perr > 0.0


@pytest.mark.parametrize("sigma, coordinate_search_perr", [
    (0.0, 1.674132887029126e-4),
    (0.2, 2.5592209924809595e-3),
    (0.45, 7.249053473363576e-3),
])
def test_refinement_converges_to_a_stationary_point(sigma, coordinate_search_perr):
    """Default knobs: no seed stops on the round cap, the reported optimum
    is stationary on a finer rule than the one that steered the search,
    and it is no worse than coordinate-wise golden-section refinement
    reached (``coordinate_search_perr``)."""
    problem = OptimizationProblem(nbar=2.0, noise=PhaseNoise(sigma), pnr_ceiling=8)
    res = optimize(problem)
    assert res.capped_seeds == 0
    assert res.perr <= coordinate_search_perr
    c = res.constellation
    theta = math.atan2(c.alpha1.real, c.alpha0.real)
    scale = np.array([math.pi / problem.grid_resolution,
                      2.0 * problem.beta_max / (problem.beta_resolution - 1)])
    grad, _ = _derivatives(problem.nbar, res.config.threshold_k, theta, res.config.beta.real,
                           scale, build_rule(problem.noise, 512))
    assert math.hypot(*grad) <= 1e-6 * res.perr
    assert res.gradient_norm <= 1e-6 * res.perr


def test_bright_noiseless_optimum_no_worse_than_coordinate_search():
    # 1.114661948892046e-9 is what coordinate-wise golden-section
    # refinement reported for this problem.
    res = optimize(fast_problem(5.0, 0.0, 1))
    assert res.perr <= 1.114661948892046e-9


def test_every_seed_records_the_gradient_norm_at_its_end_point():
    """Each refined seed's sixth entry is the norm of the grid-scaled
    gradient at its end point on the folded search rule, both where the
    last round moved the point and where it did not; the result reports
    the winner's."""
    seen = {"capped": 0, "moved last": 0, "still last": 0}
    # all 5 seeds of the first problem are capped, and move in their last
    # round; the second problem's seeds converge
    for problem in (fast_problem(5.0, 0.0, 1), fast_problem(2.0, 0.2, 3)):
        res = optimize(problem)
        rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
        thetas = np.linspace(0.0, math.pi, problem.grid_resolution, endpoint=False)
        betas = np.linspace(-problem.beta_max, problem.beta_max, problem.beta_resolution)
        scale = np.array([thetas[1] - thetas[0], betas[1] - betas[0]])
        for k, theta, beta, _, trace, norm, capped in res.seeds:
            grad, _ = _derivatives(problem.nbar, k, theta, beta, scale, rule)
            assert norm == math.hypot(*grad)
            seen["capped"] += capped
            # an accepted move always lowers the error
            seen["moved last" if trace[-1][1] < trace[-2][1] else "still last"] += 1
        winner = [s for s in res.seeds if (s[0], s[2], s[3], s[4]) == (
            res.config.threshold_k, res.config.beta, res.perr, res.trace)]
        assert winner and all(s[5] == res.gradient_norm for s in winner)
    assert all(seen.values()), seen


def test_a_seed_converging_in_the_last_round_is_not_capped(monkeypatch):
    """With the round cap set to the round in which a seed converges, that
    seed is not capped: only the seeds still moving at the cap are."""
    problem = fast_problem(2.0, 0.2, 3)
    free = optimize(problem).seeds
    last = max(s[4][-1][0] for s in free)
    assert last < MAX_REFINE_ROUNDS and not any(s[6] for s in free)
    monkeypatch.setattr("phaserx.optimizer.MAX_REFINE_ROUNDS", last)
    res = optimize(problem)
    # the cap changes no trace, and the seeds that end in round ``last``
    # converged there
    assert [s[4] for s in res.seeds] == [s[4] for s in free]
    assert not any(s[6] for s in res.seeds) and res.capped_seeds == 0


@pytest.mark.xfail(reason="refinement stops on the round cap short of a "
                   "stationary point here (ROADMAP item 2)")
@pytest.mark.parametrize("nbar, sigma", [(5.0, 0.0), (1e-4, 0.2)])
def test_default_knobs_reach_a_stationary_point(nbar, sigma):
    """Tripwire for the stationarity gate: the noiseless valley at nbar 5
    and the vanishing signal at nbar 1e-4 each cap all 5 seeds today."""
    res = optimize(OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=1))
    assert res.capped_seeds == 0
    assert res.gradient_norm <= 1e-6 * res.perr


def _grid_scan_per_cell(problem, rule, thetas, betas):
    """Reference grid scan on the given axes: each cell's own two symbols,
    ``s*sin(theta)`` and ``s*cos(theta)``, averaged on ``rule``."""
    s = math.sqrt(2.0 * problem.nbar)
    alphas = np.stack([s * np.sin(thetas), s * np.cos(thetas)])[:, :, None]
    gap = np.zeros((problem.pnr_ceiling, thetas.size, betas.size))
    for w, phi in zip(rule.weights, rule.nodes):
        cdfs = _poisson_cdfs(displaced_intensity(alphas, betas, phi))
        for k, (cdf1, cdf0) in zip(range(problem.pnr_ceiling), cdfs):
            gap[k] += w * (cdf1 - cdf0)
    return 0.5 + 0.5 * gap


@pytest.mark.parametrize("nbar, sigma, pnr", [
    (25.0, 0.0, 8), (25.0, 0.2, 8), (40.0, 0.1, 4), (30.0, 0.3, 32),
])
def test_grid_scan_is_accurate_above_the_recurrence_limit(nbar, sigma, pnr):
    """The grid's intensities reach about 32*nbar, past -log(tiny) ~ 708.4,
    where the Poisson recurrence loses its relative precision; at counts
    below the PNR ceiling its absolute error stays far below the rounding
    of ``0.5 + 0.5*gap``, and the grid agrees to 1e-15 absolute with
    ``pdtr`` on the same folded rule."""
    problem = fast_problem(nbar, sigma, pnr, grid_resolution=31, beta_resolution=41)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    thetas, betas, perr = _grid_scan(problem, rule)
    s = math.sqrt(2.0 * nbar)
    alphas = np.stack([s * np.sin(thetas), s * np.cos(thetas)])[:, :, None]
    mus = [displaced_intensity(alphas, betas, phi) for phi in rule.nodes]
    assert max(mu.max() for mu in mus) > -math.log(np.finfo(float).tiny)
    k = np.arange(pnr)[:, None, None]
    gap = sum(w * (pdtr(k, mu1) - pdtr(k, mu0)) for w, (mu1, mu0) in zip(rule.weights, mus))
    assert np.abs(perr - (0.5 + 0.5 * gap)).max() <= 1e-15


def _select_seeds_argsort(perr, nseeds):
    """Reference seed set: the head of a stable argsort of each threshold."""
    flat = np.argsort(perr.reshape(perr.shape[0], -1), axis=1, kind="stable")
    return [(k, *(int(n) for n in np.unravel_index(int(f), perr.shape[1:])))
            for k, row in enumerate(flat[:, :nseeds]) for f in row]


@pytest.mark.parametrize("sigma", [0.15, 0.45, 1.0])
@pytest.mark.parametrize("pnr", [1, 8])
def test_folded_grid_scan_matches_the_full_rule(sigma, pnr):
    """Default grid: the scan on the folded rule agrees with each cell's
    sum over the full rule up to rounding and picks the same seeds."""
    problem = OptimizationProblem(nbar=1.87, noise=PhaseNoise(sigma), pnr_ceiling=pnr)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    thetas, betas, perr = _grid_scan(problem, rule)
    assert np.array_equal(thetas, np.linspace(0.0, math.pi, 181, endpoint=False))
    ref = _grid_scan_per_cell(problem, build_rule(problem.noise, GRID_QUAD_ORDER), thetas, betas)
    assert perr.shape == ref.shape == (pnr, 181, 241)
    assert np.all(np.abs(perr - ref) <= 1e-12 * ref)
    assert _select_seeds(perr, REFINE_SEEDS) == _select_seeds_argsort(ref, REFINE_SEEDS)


def _check_table_scan(problem):
    """Checks the scan's grid against each cell's own two-symbol average on
    the returned axes, to 2e-15 absolute (ROADMAP item 11's gate), and
    returns the axes."""
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    thetas, betas, perr = _grid_scan(problem, rule)
    ref = _grid_scan_per_cell(problem, rule, thetas, betas)
    assert perr.shape == ref.shape
    assert np.abs(perr - ref).max() <= 2e-15
    return thetas, betas


@pytest.mark.parametrize("n", [2, 3, 4, 31, 181])
@pytest.mark.parametrize("m", [2, 3, 40, 41, 241])
def test_table_scan_axes_and_values(n, m):
    """theta is ``linspace``'s bit for bit; beta is mirrored exactly, its
    first half ``linspace``'s bit for bit apart from an odd axis' 0.0
    centre; and the grid gathered from the table of symbol amplitudes
    agrees with each cell's own two-symbol average."""
    # at nbar 3.4, linspace's centre of 241 betas is -8.9e-16, not 0.0
    problem = OptimizationProblem(nbar=3.4, noise=PhaseNoise(0.3), pnr_ceiling=2,
                                  grid_resolution=n, beta_resolution=m)
    thetas, betas = _check_table_scan(problem)
    assert thetas.tobytes() == np.linspace(0.0, math.pi, n, endpoint=False).tobytes()
    assert np.array_equal(betas[::-1], -betas)
    head = np.linspace(-problem.beta_max, problem.beta_max, m)[:(m + 1) // 2]
    if m % 2:
        head[-1] = 0.0
    assert betas[:(m + 1) // 2].tobytes() == head.tobytes()


@pytest.mark.parametrize("nbar, sigma, pnr, n, m", [
    (0.01, 1.0, 2, 31, 41), (5.0, 0.1, 3, 30, 41), (25.0, 0.0, 8, 31, 40),
    (30.0, 0.3, 32, 31, 41), (40.0, 0.1, 4, 181, 241),
])
def test_table_scan_matches_each_cells_average(nbar, sigma, pnr, n, m):
    """From vanishing signal to nbar 40, past the recurrence limit, and on
    the default grid, the table scan is within 2e-15 absolute of each
    cell's own two-symbol average."""
    _check_table_scan(OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=pnr,
                                          grid_resolution=n, beta_resolution=m))


@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n_theta", [4, 8, 12])
def test_grid_holds_each_receiver_and_its_mirror_twin(sigma, n_theta):
    """On an even theta grid the mirror twin of every cell is a cell, and it
    holds the other labelling's error, so searching ``bit1_high`` alone
    reaches every receiver."""
    problem = OptimizationProblem(nbar=1.3, noise=PhaseNoise(sigma), pnr_ceiling=3,
                                  grid_resolution=n_theta, beta_resolution=7)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    thetas, betas, perr = _grid_scan(problem, rule)
    for i in range(n_theta):
        for j in range(betas.size):
            mirror = n_theta // 2 - i
            twin = (mirror, j) if mirror >= 0 else (mirror + n_theta, betas.size - 1 - j)
            assert _mirror_twin(thetas[i], betas[j]) == pytest.approx(
                (thetas[twin[0]], betas[twin[1]]), abs=1e-14)
            assert np.abs(perr[:, twin[0], twin[1]] - (1.0 - perr[:, i, j])).max() <= 1e-15


@pytest.mark.parametrize("nbar, sigma, pnr", [(2.0, 0.45, 3), (3.0, 0.05, 2)])
def test_optimizer_reports_the_bit1_high_twin(nbar, sigma, pnr):
    """Where a search over both labellings settled on the ``bit0_high``
    twin, the result is the ``bit1_high`` one, and swapping its symbols
    gives the same receiver decoded ``bit0_high``: the stated rule's error
    is the complement, and the better labelling's error is the result's."""
    res = default_optimum(nbar, sigma, pnr)
    noise = PhaseNoise(sigma)
    assert generalized_kennedy_detail(res.constellation, res.config, noise) == (
        res.perr, BIT1_HIGH)
    assert perr_generalized_kennedy(res.constellation, res.config, noise) == res.perr
    c = res.constellation
    swapped = BinaryConstellation(alpha0=c.alpha1, alpha1=c.alpha0)
    x, _ = generalized_kennedy_detail(swapped, res.config, noise)
    assert abs((1.0 - x) - res.perr) <= 1e-15
    assert abs(perr_generalized_kennedy(swapped, res.config, noise) - res.perr) <= 1e-15


@pytest.mark.parametrize("nbar, sigma, pnr", [
    (2.0, 0.0, 8), (2.0, 0.45, 3), (3.0, 0.05, 2), (4.0, 0.02, 3),
    (5.0, 0.02, 3), (6.0, 0.02, 3), (8.0, 0.12, 1), (5.0, 0.0, 1),
])
def test_optimum_matches_a_30_digit_quadrature(nbar, sigma, pnr):
    """The reported error is the ``bit1_high`` error at the reported
    configuration to 1e-13 relative, against a 30-digit quadrature with
    both Poisson tails taken as regularized incomplete gamma functions."""
    mp = pytest.importorskip("mpmath").mp
    res = default_optimum(nbar, sigma, pnr)
    assert perr_generalized_kennedy(res.constellation, res.config, PhaseNoise(sigma)) == res.perr
    k = res.config.threshold_k
    with mp.workdps(30):
        a1, a0, beta = (mp.mpf(float(x.real)) for x in (
            res.constellation.alpha1, res.constellation.alpha0, res.config.beta))

        def error(phi):
            cos = mp.cos(phi)
            mu1 = a1 * a1 + beta * beta + 2 * a1 * beta * cos
            mu0 = a0 * a0 + beta * beta + 2 * a0 * beta * cos
            # P(count <= k | mu1) and P(count > k | mu0)
            return (mp.gammainc(k + 1, mu1, mp.inf, regularized=True)
                    + mp.gammainc(k + 1, 0, mu0, regularized=True)) / 2

        if sigma == 0.0:
            exact = error(mp.mpf(0))
        else:
            s = mp.mpf(sigma)
            # the integrand is even in phi
            exact = 2 * mp.quad(
                lambda phi: error(phi) * mp.exp(-phi * phi / (2 * s * s)),
                [0, s, 2 * s, 4 * s, 8 * s, mp.inf]) / (s * mp.sqrt(2 * mp.pi))
        assert abs(res.perr - exact) <= 1e-13 * exact, (res.perr, exact)


def test_select_seeds_equals_stable_argsort():
    rng = np.random.default_rng(2027)
    shapes = [(3, 40, 50), (2, 7, 9), (2, 2, 2), (1, 1, 3), (4, 1, 1)]
    for shape in shapes:
        for levels in (1, 2, 3, 7, 1000):
            # heavy ties: values rounded to a few levels
            perr = np.round(rng.random(shape) * levels) / levels
            for nseeds in (1, 2, REFINE_SEEDS, 13):
                assert _select_seeds(perr, nseeds) == _select_seeds_argsort(perr, nseeds)
            perr[rng.random(shape) < 0.3] = math.nan
            for nseeds in (1, REFINE_SEEDS, 13):
                assert _select_seeds(perr, nseeds) == _select_seeds_argsort(perr, nseeds)


def test_optimize_on_a_grid_smaller_than_the_seed_count():
    res = optimize(fast_problem(2.0, 0.2, 2, grid_resolution=2, beta_resolution=2))
    assert 0.0 <= res.perr < 0.5
