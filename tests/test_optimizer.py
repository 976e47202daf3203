import math

import numpy as np
import pytest

from phaserx.constellation import parametrize
from phaserx.optimizer import (
    GRID_QUAD_ORDER,
    REFINE_SEEDS,
    OptimizationProblem,
    _derivatives,
    _grid_scan,
    _refine,
    _select_seeds,
    _trust_region_step,
    optimize,
    sweep_sigma,
)
from phaserx.phasenoise import PhaseNoise, build_rule
from phaserx.receivers import (
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
    # reported error and orientation are the adaptive evaluation at the
    # reported configuration
    again = generalized_kennedy_detail(res.constellation, res.config, PhaseNoise(0.45))
    assert again == (res.perr, res.orientation)


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
    """Cells come PNR-major, and perr never rises with the PNR ceiling: a
    higher ceiling refines a superset of the seeds, so this holds exactly."""
    sigmas, pnrs = [0.0, 0.15, 0.3, 0.45, 0.6], [1, 2, 3, 8]
    cells = sweep_sigma(2.0, sigmas, pnrs, **FAST)
    assert [(c.pnr_ceiling, c.sigma) for c in cells] == [(p, s) for p in pnrs for s in sigmas]
    assert all(c.error is None and c.result is not None for c in cells)
    by = {(c.pnr_ceiling, c.sigma): c.result.perr for c in cells}
    for sigma in sigmas:
        perrs = [by[(p, sigma)] for p in pnrs]
        assert all(a >= b for a, b in zip(perrs, perrs[1:])), (sigma, perrs)


def test_parallel_sweep_matches_serial():
    serial = sweep_sigma(2.0, [0.0, 0.45], [2], **FAST)
    parallel = sweep_sigma(2.0, [0.0, 0.45], [2], jobs=2, **FAST)
    assert all(c.error is None for c in parallel)
    assert parallel == serial


def test_sweep_records_failures_per_cell():
    # sigma = 40 is far beyond the quadrature order cap; sigma = 0.1 is not.
    filled, failed = sweep_sigma(2.0, [0.1, 40.0], [1], **FAST)
    assert filled.error is None and filled.result is not None
    assert failed.result is None
    assert "ConvergenceError" in failed.error


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
@pytest.mark.parametrize("orientation, theta", [("bit1_high", 1.9), ("bit0_high", 0.35)])
def test_derivative_terms_match_central_differences(sigma, k, orientation, theta):
    nbar, h = 1.87, 1e-5
    s = math.sqrt(2.0 * nbar)
    # displace close to nulling the dim symbol, which fixes the orientation
    beta = 0.1 - s * (math.cos(theta) if orientation == "bit1_high" else math.sin(theta))
    rule = build_rule(PhaseNoise(sigma), 128)
    grad, hess = _derivatives(nbar, k, theta, beta, orientation, np.ones(2), rule)

    def p(dt, db):
        """The orientation's Kennedy error, averaged on ``rule``."""
        t, b = theta + dt * h, beta + db * h
        alphas = np.array([[s * math.sin(t)], [s * math.cos(t)]])  # alpha1, alpha0
        low1, low0 = poisson_cdf(k, displaced_intensity(alphas, b, rule.nodes))
        perr = rule.average(0.5 * low1 + 0.5 * (1.0 - low0))
        return perr if orientation == "bit1_high" else 1.0 - perr

    centre = p(0, 0)
    cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=k + 1)
    perr, got = generalized_kennedy_detail(parametrize(theta, nbar), cfg, PhaseNoise(sigma))
    assert got == orientation
    assert centre == pytest.approx(perr, rel=1e-9)
    differences = [
        (p(1, 0) - p(-1, 0)) / (2 * h),
        (p(0, 1) - p(0, -1)) / (2 * h),
        (p(1, 0) - 2 * centre + p(-1, 0)) / h**2,
        (p(1, 1) - p(1, -1) - p(-1, 1) + p(-1, -1)) / (4 * h * h),
        (p(0, 1) - 2 * centre + p(0, -1)) / h**2,
    ]
    assert np.abs(np.array(differences[:2]) - grad).max() <= 1e-9
    assert np.abs(np.array(differences[2:]) - hess[[0, 0, 1], [0, 1, 1]]).max() <= 1e-5


def test_refinement_carries_the_orientation_of_each_accepted_point():
    """On a 2 x 2 grid a step spans a whole cell, so this seed's refinement
    crosses to the other decision orientation, once through the golden line
    search; it returns the orientation of the Kennedy evaluation at the
    returned point."""
    problem = fast_problem(0.3, 0.0, 1, grid_resolution=2, beta_resolution=2)
    thetas, betas, _ = _grid_scan(problem)

    def detail(theta, beta):
        cfg = ReceiverConfig(beta=beta, threshold_k=0, pnr_ceiling=1)
        return generalized_kennedy_detail(parametrize(theta, problem.nbar), cfg, problem.noise)

    theta0, beta0 = float(thetas[0]), float(betas[0])
    theta, beta, best, trace, orientation = _refine(
        problem, 0, theta0, beta0, thetas[1] - thetas[0], betas[1] - betas[0])
    assert detail(theta0, beta0)[1] != orientation
    assert detail(theta, beta) == (best, orientation)
    assert trace[-1][1] == best


def test_trust_region_step_minimizes_the_model():
    """Against a dense polar scan of the disc, for definite, indefinite and
    hard-case models."""
    rng = np.random.default_rng(5)
    radii = np.linspace(0.0, 1.0, 201)[:, None]
    angles = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    disc = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1).reshape(-1, 2)
    cases = [(np.array([0.0, 1.0]), np.diag([-1.0, 2.0])),   # hard case
             (np.zeros(2), np.diag([-1.0, 3.0])),             # saddle point
             (np.array([1e-3, -2e-3]), np.diag([4.0, 1.0]))]  # interior Newton step
    for _ in range(40):
        a = rng.normal(size=(2, 2))
        cases.append((rng.normal(size=2), a + a.T))
    for g, h in cases:
        def model(p):
            return p @ g + 0.5 * np.einsum("...i,ij,...j->...", p, h, p)

        p = _trust_region_step(g, h, 1.0)
        assert math.hypot(*p) <= 1.0 + 1e-9
        assert model(p) <= model(disc).min() + 1e-9


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
                           res.orientation, scale, build_rule(problem.noise, 512))
    assert math.hypot(*grad) <= 1e-6 * res.perr
    assert res.gradient_norm <= 1e-6 * res.perr


def test_bright_noiseless_optimum_no_worse_than_coordinate_search():
    # 1.114661948892046e-9 is what coordinate-wise golden-section
    # refinement reported for this problem.
    res = optimize(fast_problem(5.0, 0.0, 1))
    assert res.perr <= 1.114661948892046e-9


def _grid_scan_full_rule(problem):
    """Reference grid scan: sums over every node of the unfolded rule."""
    s = math.sqrt(2.0 * problem.nbar)
    thetas = np.linspace(0.0, math.pi, problem.grid_resolution, endpoint=False)
    betas = np.linspace(-problem.beta_max, problem.beta_max, problem.beta_resolution)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER)
    a0 = (s * np.cos(thetas))[:, None]
    a1 = (s * np.sin(thetas))[:, None]
    gap = np.zeros((problem.pnr_ceiling, thetas.size, betas.size))
    for w, phi in zip(rule.weights, rule.nodes):
        cdfs0 = _poisson_cdfs(displaced_intensity(a0, betas, phi))
        cdfs1 = _poisson_cdfs(displaced_intensity(a1, betas, phi))
        for k, cdf0, cdf1 in zip(range(problem.pnr_ceiling), cdfs0, cdfs1):
            gap[k] += w * (cdf1 - cdf0)
    perr = 0.5 + 0.5 * gap
    return thetas, betas, np.minimum(perr, 1.0 - perr)


def _select_seeds_argsort(perr, nseeds):
    """Reference seed set: the head of a stable argsort of each threshold."""
    flat = np.argsort(perr.reshape(perr.shape[0], -1), axis=1, kind="stable")
    return [(k, *(int(n) for n in np.unravel_index(int(f), perr.shape[1:])))
            for k, row in enumerate(flat[:, :nseeds]) for f in row]


@pytest.mark.parametrize("sigma", [0.15, 0.45, 1.0])
@pytest.mark.parametrize("pnr", [1, 8])
def test_folded_grid_scan_matches_the_full_rule(sigma, pnr):
    """Default grid: the scan on the folded rule agrees with the full-rule
    sum up to rounding and picks the same seeds."""
    problem = OptimizationProblem(nbar=1.87, noise=PhaseNoise(sigma), pnr_ceiling=pnr)
    thetas, betas, perr = _grid_scan(problem)
    ref_thetas, ref_betas, ref = _grid_scan_full_rule(problem)
    assert np.array_equal(thetas, ref_thetas) and np.array_equal(betas, ref_betas)
    assert perr.shape == ref.shape == (pnr, 181, 241)
    assert np.all(np.abs(perr - ref) <= 1e-12 * ref)
    assert _select_seeds(perr, REFINE_SEEDS) == _select_seeds_argsort(ref, REFINE_SEEDS)


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
