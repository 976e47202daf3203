import functools
import math

import numpy as np
import pytest
from scipy.special import pdtr

from phaserx.constellation import BinaryConstellation, parametrize
from phaserx.optimizer import (
    GRID_QUAD_ORDER,
    MAX_REFINE_ROUNDS,
    OptimizationProblem,
    Seed,
    _derivatives,
    _grid_scan,
    _newton_step,
    _pick,
    _refine,
    _search,
    _select_seeds,
    optimize,
    sweep_sigma,
)
from phaserx.phasenoise import BASE_ORDER, MAX_ORDER, ConvergenceError, PhaseNoise, build_rule
from phaserx.receivers import (
    BIT1_HIGH,
    ReceiverConfig,
    _kennedy_error,
    _poisson_cdfs,
    _poisson_pmf,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_generalized_kennedy,
    poisson_cdf,
)

KENNEDY_2 = 1.677313139512559194e-4  # exp(-8)/2, the exact-nulling feasible point

# Reduced search knobs keep unit tests fast; acceptance runs the defaults.
FAST = dict(grid_resolution=61, beta_resolution=81)

# Best grid cells per threshold that the reference searches refine.
EVERY_SEED = 5


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
    """``3*sqrt(2*nbar)``, floored at 1.5, which binds below nbar 0.125."""
    assert fast_problem(2.0, 0.1, 1).beta_max == pytest.approx(6.0, rel=1e-14)
    assert fast_problem(0.125, 0.1, 1).beta_max == 1.5
    assert fast_problem(0.13, 0.1, 1).beta_max > 1.5
    for nbar in (1e-4, 1e-3, 0.1):
        assert fast_problem(nbar, 0.1, 1).beta_max == 1.5


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
    perrs = [p for _, p in res.winner.trace]
    assert perrs[0] >= perrs[-1]
    assert all(a >= b - 1e-15 for a, b in zip(perrs, perrs[1:]))
    assert res.winner.trace[0][0] == 0


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
    # At nbar 2, sigma 1.3 the PNR-8 search meets a phase average that does
    # not converge, while the PNR-1 and PNR-2 searches do not: their cells
    # are still filled, each by its own search.
    [[low1, low2, top]] = sweep_sigma(2.0, [1.3], [1, 2, 8], **FAST)
    assert top.result is None
    assert "ConvergenceError" in top.error
    for cell in (low1, low2):
        assert cell.error is None
        assert cell.result == optimize(fast_problem(2.0, 1.3, cell.pnr_ceiling))


# The orders of the search rules a seed refines on, in escalation order.
SEARCH_ORDERS = [GRID_QUAD_ORDER, 2 * GRID_QUAD_ORDER, 4 * GRID_QUAD_ORDER, MAX_ORDER]


def test_search_rules_are_rungs_of_the_average_ladder():
    """One quadrature family: the search starts on ``average``'s second
    rung, and every order a seed can end on is one of its rungs
    ``BASE_ORDER * 2**j`` up to ``MAX_ORDER``."""
    assert GRID_QUAD_ORDER == 2 * BASE_ORDER
    rungs = {BASE_ORDER * 2**j for j in range(16)}
    assert all(order in rungs and order <= MAX_ORDER for order in SEARCH_ORDERS)
    assert SEARCH_ORDERS[-1] == MAX_ORDER


def _optimize_counting_certificates(problem, monkeypatch):
    """``optimize(problem)``, checking that refinement calls the adaptive
    evaluator once per rule each seed ends a descent on: once per seed,
    plus once per escalation."""
    calls = []

    def counted(*args):
        calls.append(args)
        return generalized_kennedy_detail(*args)

    monkeypatch.setattr("phaserx.optimizer.generalized_kennedy_detail", counted)
    res = optimize(problem)
    assert len(calls) == sum(SEARCH_ORDERS.index(s.order) + 1 for s in res.seeds)
    return res


def test_wide_sigma_search_certifies_only_its_end_points(monkeypatch):
    """At nbar 2, sigma 1.2, PNR 8 refinement evaluates the adaptive error
    only at each seed's end point, so no trial point's average can fail
    the search, and the reported error is that certificate."""
    problem = fast_problem(2.0, 1.2, 8)
    res = _optimize_counting_certificates(problem, monkeypatch)
    assert generalized_kennedy_detail(res.constellation, res.config, problem.noise) == (
        res.perr, BIT1_HIGH)


def _certificate(problem, seed):
    """The adaptive error at a refined seed's end point."""
    cfg = ReceiverConfig(beta=seed.beta, threshold_k=seed.k, pnr_ceiling=problem.pnr_ceiling)
    x, _ = generalized_kennedy_detail(parametrize(seed.theta, problem.nbar), cfg, problem.noise,
                                      problem.quad_tolerance)
    return x


def test_a_seed_escalates_where_the_rule_misses_the_certificate(monkeypatch):
    """At nbar 2, sigma 0.8, PNR 8 the fixed rule's error misses the
    adaptive one by more than the tolerance at some end points; those seeds
    go on on a finer rule, and every seed ends where the two agree."""
    problem = fast_problem(2.0, 0.8, 8)
    seeds = _optimize_counting_certificates(problem, monkeypatch).seeds
    assert max(s.order for s in seeds) > GRID_QUAD_ORDER
    for seed in seeds:
        assert seed.perr == _certificate(problem, seed)
        assert abs(seed.trace[-1][1] - seed.perr) <= problem.quad_tolerance * seed.perr


def test_a_certificate_that_never_agrees_raises_at_the_order_cap(monkeypatch):
    """A certificate 1e-6 off the search's error, far beyond the
    tolerance, escalates every rule up to ``MAX_ORDER`` and then raises."""
    orders = []

    def detail(*args):
        x, label = generalized_kennedy_detail(*args)
        return x * (1.0 + 1e-6), label

    def recording_build_rule(noise, order):
        orders.append(order)
        return build_rule(noise, order)

    monkeypatch.setattr("phaserx.optimizer.generalized_kennedy_detail", detail)
    monkeypatch.setattr("phaserx.optimizer.build_rule", recording_build_rule)
    with pytest.raises(ConvergenceError, match=f"order {MAX_ORDER}"):
        optimize(fast_problem(2.0, 0.3, 1))
    assert orders == SEARCH_ORDERS


@pytest.mark.parametrize("nbar, pnr", [(2.0, 8), (5.0, 1), (0.5, 3)])
def test_noiseless_traces_end_on_the_reported_error(nbar, pnr):
    """At sigma 0 the search rule and the certificate average the same
    integrand at the one node phi = 0, so every seed's last trace value is
    its error."""
    for seed in optimize(fast_problem(nbar, 0.0, pnr)).seeds:
        assert seed.trace[-1][1] == seed.perr
        assert seed.order == GRID_QUAD_ORDER


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="one losing seed whose certificate does not converge fails the "
                   "whole search (CHANGES.md, FOUND on optimizer._refine; ROADMAP item 6)")
def test_a_losing_seed_does_not_fail_the_search():
    """Tripwire: at nbar 2, sigma 1.3 the PNR-2 search certifies its K = 0
    winner, and the PNR-8 search refines every one of its seeds, so it can
    do no worse; today the adaptive certificate of a K = 6 seed misses the
    tolerance at order 512 and the search raises."""
    lower = optimize(fast_problem(2.0, 1.3, 2))
    assert optimize(fast_problem(2.0, 1.3, 8)).perr <= lower.perr


def test_sweep_records_failures_per_cell():
    # sigma = 40 is far beyond the quadrature order cap; sigma = 0.1 is not.
    [filled], [failed] = sweep_sigma(2.0, [0.1, 40.0], [1], **FAST)
    assert filled.error is None and filled.result is not None
    assert failed.result is None
    assert "ConvergenceError" in failed.error


def test_sweep_fills_a_cell_whose_error_underflows_to_zero():
    """At nbar 400, sigma 0 the error underflows to 0.0: the cell holds a
    result whose predicted decrease is 0, with nothing left to decrease,
    rather than the sweep raising ``ZeroDivisionError``."""
    [[cell]] = sweep_sigma(400.0, [0.0], [1])
    assert cell.error is None
    assert cell.result.perr == 0.0
    assert cell.result.winner.predicted_decrease == 0.0
    assert not cell.result.winner.capped


def test_bright_optimum_reports_its_best_seed():
    """Below 1e-12 an absolute tie window tied every seed, and the smaller-K
    tie-break then reported a seed up to 30 times worse than the best."""
    result = optimize(fast_problem(10.0, 0.005, 4))
    assert result.config.threshold_k == 3
    assert result.perr == min(s.perr for s in result.seeds)


def test_pick_breaks_an_exact_tie_on_the_smallest_k():
    problem = fast_problem(2.0, 0.1, 2)

    def picked_k(perr0, perr1):
        seeds = tuple(Seed(k=k, theta=0.8, beta=0.5, perr=perr, trace=((0, perr),),
                           gradient_norm=0.0, capped=False, order=GRID_QUAD_ORDER,
                           predicted_decrease=0.0)
                      for k, perr in ((0, perr0), (1, perr1)))
        return _pick(problem, seeds).config.threshold_k

    # an exact tie goes to the smaller K, at any scale of the error
    assert picked_k(0.25, 0.25) == 0
    assert picked_k(1e-14, 1e-14) == 0
    # the least error wins, however small the gap
    assert picked_k(math.nextafter(0.25, 1.0), 0.25) == 1
    assert picked_k(1e-14, math.nextafter(1e-14, 1.0)) == 0


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
    """The derivatives in (theta, u) of the ``bit1_high`` error, both where
    it is the better labelling and where its mirror twin is, and its value,
    which is ``generalized_kennedy_detail``'s bit for bit at sigma = 0 and
    within 1e-14 relative on a 128-node rule.  (The 512-node rule is itself
    off by 1.1e-14 relative at sigma 0.45, K 0, against mpmath.)  Each
    difference is taken at ``beta = u - sqrt(2*nbar)*cos(theta)``."""
    nbar, h = 1.87, 1e-5
    s = math.sqrt(2.0 * nbar)
    # displace close to nulling the dim symbol, which fixes the preference
    u = 0.1 + s * (0.0 if preferred == "bit1_high" else math.cos(theta) - math.sin(theta))
    beta = u - s * math.cos(theta)
    rule = build_rule(PhaseNoise(sigma), 128)
    value, grad, hess = _derivatives(nbar, k, theta, u, np.ones(2), rule)

    def p(dt, du):
        """The ``bit1_high`` Kennedy error, averaged on ``rule``."""
        t = theta + dt * h
        b = u + du * h - s * math.cos(t)
        alphas = np.array([[s * math.sin(t)], [s * math.cos(t)]])  # alpha1, alpha0
        low1, low0 = poisson_cdf(k, displaced_intensity(alphas, b, rule.nodes))
        return rule.average(0.5 * low1 + 0.5 * (1.0 - low0))

    centre = p(0, 0)
    cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=k + 1)
    c = parametrize(theta, nbar)
    x, _ = generalized_kennedy_detail(c, cfg, PhaseNoise(sigma))
    assert (perr_generalized_kennedy(c, cfg, PhaseNoise(sigma)) == x) == (preferred == "bit1_high")
    assert centre == pytest.approx(x, rel=1e-9)
    if sigma == 0.0:
        assert value == x
    else:
        assert abs(value - x) <= 1e-14 * x
    differences = [
        (p(1, 0) - p(-1, 0)) / (2 * h),
        (p(0, 1) - p(0, -1)) / (2 * h),
        (p(1, 0) - 2 * centre + p(-1, 0)) / h**2,
        (p(1, 1) - p(1, -1) - p(-1, 1) + p(-1, -1)) / (4 * h * h),
        (p(0, 1) - 2 * centre + p(0, -1)) / h**2,
    ]
    assert np.abs(np.array(differences[:2]) - grad).max() <= 1e-9
    assert np.abs(np.array(differences[2:]) - hess[[0, 0, 1], [0, 1, 1]]).max() <= 1e-5


def _derivatives_with_outer(nbar, k, theta, u, scale, rule):
    """Reference for ``_derivatives``: the cosines taken from the nodes, the
    intensity from ``displaced_intensity`` on complex amplitudes (its
    formula with the zero imaginary terms), and the scaling by
    ``np.outer``."""
    s = math.sqrt(2.0 * nbar)
    a = np.array([[s * math.sin(theta)], [s * math.cos(theta)]])
    da = np.array([[a[1, 0]], [-a[0, 0]]])
    a1, a0 = a[:, 0]
    beta = u - a0
    cos = np.cos(rule.nodes)
    mu = displaced_intensity(a.astype(complex), beta, rule.nodes)
    mu_a = 2.0 * (a + beta * cos)
    mu_b = 2.0 * (beta + a * cos)
    mu_t = mu_a * da + mu_b * a1
    mu_tt = 2.0 * (da * da + 2.0 * cos * da * a1 + a1 * a1) - mu_a * a + mu_b * a0
    mu_tb = 2.0 * (cos * da + a1)
    pmf = _poisson_pmf(np.arange(max(k - 1, 0), k + 1.0)[:, None, None], mu)
    d1 = -pmf[-1]
    d2 = pmf[-1] - pmf[0] if k > 0 else pmf[-1]
    terms = np.stack([d1 * mu_t, d1 * mu_b, d2 * mu_t * mu_t + d1 * mu_tt,
                      d2 * mu_t * mu_b + d1 * mu_tb, d2 * mu_b * mu_b + 2.0 * d1])
    pt, pb, ptt, ptb, pbb = rule.average(0.5 * (terms[:, 0] - terms[:, 1]))
    grad = np.array([pt, pb]) * scale
    hess = np.array([[ptt, ptb], [ptb, pbb]]) * np.outer(scale, scale)
    return rule.average(_kennedy_error(k, mu)), grad, hess


@pytest.mark.parametrize("sigma, order", [
    (0.0, GRID_QUAD_ORDER), (0.3, GRID_QUAD_ORDER), (0.8, 4 * GRID_QUAD_ORDER), (1.2, 8),
])
def test_derivatives_are_bit_identical_to_the_outer_formulation(sigma, order):
    """Cosines and sines kept on the rule, the real-amplitude intensity and
    scalar scaling give ``_derivatives`` bit for bit, on the one-node
    sigma-0 rule, the search rule, an escalated rule and a short full one,
    over 300 draws each at either sign of beta."""
    rule = build_rule(PhaseNoise(sigma), order)
    if order > 8:
        rule = rule.fold_even()
    rng = np.random.default_rng(3100 + order)
    for _ in range(300):
        nbar, k = rng.uniform(0.05, 6.0), int(rng.integers(0, 9))
        beta_max = 3.0 * math.sqrt(2.0 * nbar)
        theta, beta = rng.uniform(0.0, math.pi), rng.uniform(-beta_max, beta_max)
        u = beta + math.sqrt(2.0 * nbar) * math.cos(theta)
        scale = rng.uniform(1e-3, 0.2, size=2)
        value, grad, hess = _derivatives(nbar, k, theta, u, scale, rule)
        ref_value, ref_grad, ref_hess = _derivatives_with_outer(nbar, k, theta, u, scale, rule)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad) and np.array_equal(hess, ref_hess)


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
    """The value and derivatives that steer refinement, on the optimizer's
    folded rule, agree with the same-order full rule up to the rounding of
    the sum, for each drawn receiver under either labelling: a
    ``bit0_high`` receiver is steered at its ``bit1_high`` mirror twin."""
    full = build_rule(PhaseNoise(sigma), GRID_QUAD_ORDER)
    folded = full.fold_even()
    rng = np.random.default_rng(2031)
    for nbar in rng.uniform(0.3, 4.0, size=10):
        beta_max = 3.0 * math.sqrt(2.0 * nbar)
        theta, beta = rng.uniform(0.0, math.pi), rng.uniform(-beta_max, beta_max)
        if labelling == "bit0_high":
            theta, beta = _mirror_twin(theta, beta)
        u = beta + math.sqrt(2.0 * nbar) * math.cos(theta)
        scale = rng.uniform(0.01, 0.1, size=2)

        def terms(rule):
            value, grad, hess = _derivatives(nbar, k, theta, u, scale, rule)
            return np.concatenate([[value], grad, hess.ravel()])

        got, ref = terms(folded), terms(full)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_newton_step_is_a_descent_step():
    """The plain Newton step where the Hessian is positive definite;
    downhill for random symmetric Hessians, definite or not; and finite at
    a saddle point and along a zero curvature."""
    rng = np.random.default_rng(5)
    cases = [(np.array([1e-3, -2e-3]), np.array([[4.0, 1.0], [1.0, 2.0]]))]
    for _ in range(40):
        a = rng.normal(size=(2, 2))
        cases.append((rng.normal(size=2), a + a.T))
    newton_steps = 0
    for g, h in cases:
        p = _newton_step(g, h)
        assert g @ p < 0.0
        if np.linalg.eigvalsh(h)[0] > 0.0:
            newton = np.linalg.solve(h, -g)
            assert math.hypot(*(p - newton)) <= 1e-13 * math.hypot(*newton)
            newton_steps += 1
    assert newton_steps >= 3
    p = _newton_step(np.zeros(2), np.diag([-1.0, 3.0]))
    assert np.all(np.isfinite(p))
    # a zero curvature: the component along it is huge, not inf or nan
    for g in (np.array([1e-17, 1.0]), np.array([0.0, 1.0])):
        p = _newton_step(g, np.diag([0.0, 3.0]))
        assert np.all(np.isfinite(p))
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
    assert not any(s.capped for s in res.seeds)
    assert res.perr <= coordinate_search_perr
    c = res.constellation
    theta = math.atan2(c.alpha1.real, c.alpha0.real)
    u = res.config.beta.real + c.alpha0.real
    scale = np.array([math.pi / problem.grid_resolution,
                      2.0 * problem.beta_max / (problem.beta_resolution - 1)])
    _, grad, _ = _derivatives(problem.nbar, res.config.threshold_k, theta, u, scale,
                              build_rule(problem.noise, 512))
    assert math.hypot(*grad) <= 1e-6 * res.perr
    assert res.winner.gradient_norm <= 1e-6 * res.perr


def test_bright_noiseless_optimum_no_worse_than_coordinate_search():
    # 1.114661948892046e-9 is what coordinate-wise golden-section
    # refinement reported for this problem.
    res = optimize(fast_problem(5.0, 0.0, 1))
    assert res.perr <= 1.114661948892046e-9


def test_every_seed_records_the_gradient_norm_at_its_end_point(monkeypatch):
    """Each refined seed's ``gradient_norm`` is the norm of the gradient in
    grid-scaled (theta, u) at its end point on the folded search rule of its
    ``order``, both where the last round moved the point and where it did
    not; the result reports the winner's."""
    seen = {"capped": 0, "moved last": 0, "still last": 0}
    # with the round cap at 2 the first problem's seed is capped, and moves
    # in its last round; the second problem's seeds converge
    for problem, rounds in ((fast_problem(5.0, 0.0, 1), 2),
                            (fast_problem(2.0, 0.2, 3), MAX_REFINE_ROUNDS)):
        monkeypatch.setattr("phaserx.optimizer.MAX_REFINE_ROUNDS", rounds)
        res = optimize(problem)
        thetas = np.linspace(0.0, math.pi, problem.grid_resolution, endpoint=False)
        betas = np.linspace(-problem.beta_max, problem.beta_max, problem.beta_resolution)
        scale = np.array([thetas[1] - thetas[0], betas[1] - betas[0]])
        s = math.sqrt(2.0 * problem.nbar)
        for seed in res.seeds:
            rule = build_rule(problem.noise, seed.order).fold_even()
            # ``_derivatives`` reads u only through beta = u - s*cos(theta)
            u = seed.beta + s * math.cos(seed.theta)
            assert u - s * math.cos(seed.theta) == seed.beta
            _, grad, hess = _derivatives(problem.nbar, seed.k, seed.theta, u, scale, rule)
            assert seed.gradient_norm == math.hypot(*grad)
            # g @ inv(|H|) @ g / (2*perr), summed over the eigenvectors of H
            lam, vecs = np.linalg.eigh(hess)
            predicted = 0.5 * float(np.sum((vecs.T @ grad) ** 2 / np.abs(lam))) / seed.perr
            assert abs(seed.predicted_decrease - predicted) <= 1e-9 * predicted
            seen["capped"] += seed.capped
            # an accepted move always lowers the error
            trace = seed.trace
            seen["moved last" if trace[-1][1] < trace[-2][1] else "still last"] += 1
        winner = [s for s in res.seeds if (s.k, s.beta, s.perr, s.trace) == (
            res.config.threshold_k, res.config.beta, res.perr, res.winner.trace)]
        assert winner and all(s.gradient_norm == res.winner.gradient_norm for s in winner)
    assert all(seen.values()), seen


def test_the_winner_is_a_seed_and_is_what_the_result_reports():
    """``winner`` is one of ``seeds``, and the reported configuration,
    error and constellation are its fields, also at a lower ceiling picked
    among a higher ceiling's seeds."""
    high, low = fast_problem(2.0, 0.45, 8), fast_problem(2.0, 0.45, 1)
    top = optimize(high)
    for problem, res in ((high, top), (low, _pick(low, top.seeds))):
        w = res.winner
        assert w in res.seeds
        assert res.config == ReceiverConfig(beta=w.beta, threshold_k=w.k,
                                            pnr_ceiling=problem.pnr_ceiling)
        assert res.perr == w.perr
        assert res.constellation == parametrize(w.theta, problem.nbar)


def test_a_converged_seed_spends_no_trial_evaluation(monkeypatch):
    """Restarted from its own end point, a refined seed stops in its first
    round on every rung it climbs: one more Newton step predicts a decrease
    below the error's rounding level, so no step and no line search is
    tried, and ``_derivatives`` runs only at each rung's start."""
    problem = OptimizationProblem(nbar=2.0, noise=PhaseNoise(0.3), pnr_ceiling=8)
    res = default_optimum(2.0, 0.3, 8)
    thetas = np.linspace(0.0, math.pi, problem.grid_resolution, endpoint=False)
    betas = np.linspace(-problem.beta_max, problem.beta_max, problem.beta_resolution)
    scale = np.array([thetas[1] - thetas[0], betas[1] - betas[0]])
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    calls = []

    def counted(*args):
        calls.append(args)
        return _derivatives(*args)

    monkeypatch.setattr("phaserx.optimizer._derivatives", counted)
    assert len(res.seeds) == 8
    for seed in res.seeds:
        calls.clear()
        again = Seed(seed.k, *_refine(problem, seed.k, seed.theta, seed.beta, scale, rule))
        starts = 1 + int(math.log2(seed.order // GRID_QUAD_ORDER))
        assert len(calls) == starts, (seed.k, len(calls), starts)
        assert again.order == seed.order and not again.capped
        assert abs(again.perr - seed.perr) <= 1e-14 * seed.perr


def test_a_seed_converging_in_the_last_round_is_not_capped(monkeypatch):
    """With the round cap set to the round in which a seed converges, that
    seed is not capped: only the seeds still moving at the cap are."""
    problem = fast_problem(2.0, 0.2, 3)
    free = optimize(problem).seeds
    last = max(s.trace[-1][0] for s in free)
    assert last < MAX_REFINE_ROUNDS and not any(s.capped for s in free)
    monkeypatch.setattr("phaserx.optimizer.MAX_REFINE_ROUNDS", last)
    res = optimize(problem)
    # the cap changes no trace, and the seeds that end in round ``last``
    # converged there
    assert [s.trace for s in res.seeds] == [s.trace for s in free]
    assert not any(s.capped for s in res.seeds)


def test_predicted_decrease_tells_a_converged_seed_from_a_stalled_one(monkeypatch):
    """In the noiseless valley (PNR 1, default knobs) ``gradient_norm``
    reads 2.2e-3*perr at nbar 8 and 1.4*perr at nbar 10, though both
    optima have converged.  The predicted decrease of one more Newton step,
    relative to perr, is below 1e-12 at the optima at nbar 5, 8 and 10,
    and above 1e-3 at nbar 8 when refinement stops after 2 rounds."""
    for nbar in (5.0, 8.0, 10.0):
        res = default_optimum(nbar, 0.0, 1)
        assert not res.winner.capped
        assert 0.0 <= res.winner.predicted_decrease <= 1e-12, nbar
    monkeypatch.setattr("phaserx.optimizer.MAX_REFINE_ROUNDS", 2)
    res = optimize(OptimizationProblem(nbar=8.0, noise=PhaseNoise(0.0), pnr_ceiling=1))
    assert res.winner.capped
    assert res.winner.predicted_decrease >= 1e-3


@pytest.mark.parametrize("nbar, sigma", [(5.0, 0.0), (1e-4, 0.2)])
def test_default_knobs_reach_a_stationary_point(nbar, sigma):
    """The stationarity gate in the noiseless valley at nbar 5 and at
    vanishing signal at nbar 1e-4, whose optimum only the beta window's
    floor holds: no seed is capped, and the gradient is below 1e-6*perr."""
    res = optimize(OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=1))
    assert not any(s.capped for s in res.seeds)
    assert res.winner.gradient_norm <= 1e-6 * res.perr


def test_noiseless_valley_has_no_capped_seed():
    """Finding 15's valley sweep, sigma 0 at nbar 3.0 to 10.0 in steps of
    0.1, PNR 2, default knobs: refinement in (theta, beta) ended capped
    from nbar 4.5 up, up to 20.6% above the optimum; in (theta, u) no
    seed is capped."""
    for nbar in np.round(np.linspace(3.0, 10.0, 71), 1):
        problem = OptimizationProblem(nbar=float(nbar), noise=PhaseNoise(0.0), pnr_ceiling=2)
        seeds = _search(problem)
        assert len(seeds) == 2 and not any(s.capped for s in seeds), nbar


@pytest.mark.parametrize("nbar", [5.0, 8.0])
def test_noiseless_optimum_matches_a_40_digit_stationary_point(nbar):
    """At sigma 0, PNR 1 the reported error is within 1e-12 relative of
    the K = 0 error's stationary point solved in 40 digits from the
    reported (theta, beta): 1.03057676873574e-9 at nbar 5 and
    6.33208277454452e-15 at nbar 8, where refinement in (theta, beta)
    reported 1.0305767702e-9 and 7.6354e-15."""
    mp = pytest.importorskip("mpmath").mp
    res = default_optimum(nbar, 0.0, 1)
    assert res.config.threshold_k == 0 and not any(s.capped for s in res.seeds)
    with mp.workdps(40):
        s = mp.sqrt(2 * mp.mpf(nbar))

        def error(theta, beta):
            # P(count = 0 | mu1)/2 + P(count > 0 | mu0)/2
            x1, x0 = s * mp.sin(theta) + beta, s * mp.cos(theta) + beta
            return (mp.exp(-x1 * x1) + 1 - mp.exp(-x0 * x0)) / 2

        def gradient(theta, beta):
            g1 = s * mp.sin(theta) + beta
            g1 *= mp.exp(-g1 * g1)
            g0 = s * mp.cos(theta) + beta
            g0 *= mp.exp(-g0 * g0)
            return [-s * (g1 * mp.cos(theta) + g0 * mp.sin(theta)), g0 - g1]

        c = res.constellation
        theta, beta = mp.findroot(gradient, (math.atan2(c.alpha1.real, c.alpha0.real),
                                             res.config.beta.real))
        exact = error(theta, beta)
    assert abs(res.perr - exact) <= 1e-12 * exact, (res.perr, exact)


@pytest.mark.xfail(strict=True, reason="the grid's 0.5 + 0.5*gap seeding values round to 0, "
                   "so the K = 0 seed starts at an exact zero of the grid, not at the optimum, "
                   "and ends capped (ROADMAP item 1, finding 16)")
@pytest.mark.parametrize("nbar", [30.0, 50.0])
def test_bright_noiseless_optimum_is_no_worse_than_exact_nulling(nbar):
    """Tripwire: at sigma 0, PNR 1 exact nulling of BPSK is feasible, with
    error exp(-4*nbar)/2, so the optimum is no worse and its seed ends
    uncapped.  Today the K = 0 seed stops on the round cap, at 11 times
    that bound at nbar 30 and 3.3e17 times it at nbar 50.  The cause is
    the seeding (ROADMAP item 1): the grid's ``0.5 + 0.5*gap`` values
    round the slice's least cells to exactly 0, the first of which, at
    theta 0, nulls alpha0 with alpha1 = 0 (true error exp(-2*nbar)/2), and
    refinement from there gains about a factor e per capped round."""
    res = default_optimum(nbar, 0.0, 1)
    assert not any(s.capped for s in res.seeds)
    assert res.perr <= 0.5 * math.exp(-4.0 * nbar)


def test_vanishing_signal_is_no_worse_than_bpsk():
    """The 24 vanishing-signal problems (nbar 1e-4 to 0.05, sigma 0, 0.2
    and 1, PNR 1 and 2): no seed is capped, and every error is at most a
    dense beta scan of BPSK at K = 0.  Without the window's floor the
    optimum, beta near 1/sqrt(2), lay outside the grid, and 18 of these
    results were 8e-4 to 3% above it."""
    for nbar in (1e-4, 1e-3, 1e-2, 0.05):
        bpsk = parametrize(0.75 * math.pi, nbar)
        for sigma in (0.0, 0.2, 1.0):
            noise = PhaseNoise(sigma)
            scan = min(generalized_kennedy_detail(
                bpsk, ReceiverConfig(beta=float(beta), threshold_k=0, pnr_ceiling=1), noise)[0]
                for beta in np.linspace(0.3, 1.2, 181))
            for pnr in (1, 2):
                res = optimize(OptimizationProblem(nbar=nbar, noise=noise, pnr_ceiling=pnr))
                assert not any(s.capped for s in res.seeds), (nbar, sigma, pnr)
                assert res.perr <= scan, (nbar, sigma, pnr, res.perr, scan)


def _optimize_counting_refinements(problem, monkeypatch):
    """``optimize(problem)`` and the number of ``_refine`` calls it made."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _refine(*args)

    monkeypatch.setattr("phaserx.optimizer._refine", counted)
    return optimize(problem), len(calls)


def test_one_seed_per_threshold_where_none_is_capped(monkeypatch):
    """Without a capped descent, each threshold refines its best grid cell
    only: one seed per threshold, in threshold order."""
    problem = OptimizationProblem(nbar=2.0, noise=PhaseNoise(0.3), pnr_ceiling=8)
    res, refined = _optimize_counting_refinements(problem, monkeypatch)
    assert refined == len(res.seeds) == problem.pnr_ceiling
    assert [s.k for s in res.seeds] == list(range(problem.pnr_ceiling))
    assert not any(s.capped for s in res.seeds)


def _search_every_seed(problem):
    """Reference search: refines all ``EVERY_SEED`` best grid cells of
    every threshold."""
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    thetas, betas, grid_perr = _grid_scan(problem, rule)
    scale = np.array([thetas[1] - thetas[0], betas[1] - betas[0]])
    return tuple(Seed(k, *_refine(problem, k, float(thetas[i]), float(betas[j]), scale, rule))
                 for k, i, j in _select_seeds_argsort(grid_perr, EVERY_SEED))


def _drawn_problems(count):
    """The first ``count`` problems of the seeded corpus draw (ROADMAP
    item 10): nbar U(0.3, 4), sigma 0 with probability 0.3 else
    U(0, 0.6), PNR from {1, 2, 3, 4, 8}."""
    rng = np.random.default_rng(2026)
    for _ in range(count):
        nbar = float(rng.uniform(0.3, 4.0))
        sigma = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.6))
        yield nbar, sigma, int(rng.choice([1, 2, 3, 4, 8]))


def test_one_seed_search_matches_refining_every_seed():
    """Against the search that refines the ``EVERY_SEED`` best cells of
    each threshold, on the 4 bench-shaped sweeps (nbar 1.5 to 2.5, sigma 0
    to 0.45, PNR 1 and 8), 10 drawn problems, the noiseless valley at nbar
    5 and 8, and vanishing signal at nbar 1e-3: the same K, an error no
    higher than 1e-12 relative above the reference's, each threshold's one
    seed is the reference's first, and no seed of either search is
    capped."""
    cases = [(nbar, sigma, pnr) for nbar in np.linspace(1.5, 2.5, 4)
             for sigma in (0.0, 0.15, 0.3, 0.45) for pnr in (1, 8)]
    cases += [*_drawn_problems(10), (5.0, 0.0, 1), (8.0, 0.0, 2), (1e-3, 0.0, 1)]
    capped = 0
    for nbar, sigma, pnr in cases:
        problem = fast_problem(float(nbar), sigma, pnr)
        res, every = optimize(problem), _search_every_seed(problem)
        ref = _pick(problem, every)
        assert res.config.threshold_k == ref.config.threshold_k
        assert res.perr <= ref.perr * (1.0 + 1e-12)
        for k in range(pnr):
            assert [s for s in res.seeds if s.k == k] == [s for s in every if s.k == k][:1]
        capped += sum(s.capped for s in every)
    assert capped == 0


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


def _weighted_term_sums(rule, mus, pnr):
    """The scan's arithmetic in fresh arrays: each node's weighted Poisson
    terms ``w*exp(-mu)*mu**k/k!`` into threshold ``k``, each term the last
    times ``mu`` times ``1.0/k``, then the running sum over thresholds."""
    table = np.zeros((pnr, *mus[0].shape))
    for w, mu in zip(rule.weights, mus):
        term = w * np.exp(-mu)
        for k in range(pnr):
            if k:
                term = term * mu * (1.0 / k)
            table[k] = table[k] + term
    for k in range(1, pnr):
        table[k] = table[k - 1] + table[k]
    return table


def _per_node_cdf_sums(rule, mus, pnr):
    """The oracle the scan's term sums replaced: each node's Poisson CDFs
    ``P(count <= k)``, from the recurrence dividing each term by ``k``,
    weighted into threshold ``k``."""
    table = np.zeros((pnr, *mus[0].shape))
    for w, mu in zip(rule.weights, mus):
        term = np.exp(-mu)
        cdf = term
        for k in range(pnr):
            if k:
                term = term * mu / k
                cdf = cdf + term
            table[k] = table[k] + w * cdf
    return table


def _grid_scan_allocating(problem, rule, sums):
    """Reference for ``_grid_scan`` in fresh arrays, on the
    complex-amplitude intensity: the axes and amplitude table built as the
    scan builds them, ``P(count <= k | row)`` averaged by ``sums``, and the
    grid gathered from it.  At even n, alpha0 of angle j is the shared row
    ``s*sin(thetas[n//2 - j])``."""
    n, m = problem.grid_resolution, problem.beta_resolution
    s = math.sqrt(2.0 * problem.nbar)
    thetas = np.linspace(0.0, math.pi, n, endpoint=False)
    betas = np.linspace(-problem.beta_max, problem.beta_max, m)
    betas[m - m // 2:] = -betas[:m // 2][::-1]
    if m % 2:
        betas[m // 2] = 0.0
    rows = n // 2 + 1
    zero = s * (np.cos(thetas[:rows]) if n % 2 else np.sin(thetas[n // 2 - np.arange(rows)]))
    amps = np.concatenate([s * np.sin(thetas[:rows]), zero])[:, None]
    mus = [displaced_intensity(amps.astype(complex), betas, phi) for phi in rule.nodes]
    table = sums(rule, mus, problem.pnr_ceiling)
    for acc in table:
        one, zero = acc[:rows], acc[rows:]
        gap = np.concatenate([one, one[n - rows:0:-1]])
        gap -= np.concatenate([zero, zero[n - rows:0:-1, ::-1]])
        gap *= 0.5
        gap += 0.5
        acc[:n] = gap
    return thetas, betas, table[:, :n]


SCAN_CASES = [
    (1.87, 0.3, 8, 181, 241), (2.0, 0.0, 3, 31, 41), (0.01, 1.0, 2, 31, 40),
    (25.0, 0.2, 8, 30, 41), (40.0, 0.1, 4, 31, 41), (1.87, 0.3, 8, 182, 241),
]


@pytest.mark.parametrize("nbar, sigma, pnr, n, m", SCAN_CASES)
def test_grid_scan_is_bit_identical_to_fresh_array_accumulation(nbar, sigma, pnr, n, m):
    """The scan's in-place term recurrence, its in-place sums and the
    real-amplitude intensity give the grid of fresh arrays bit for bit, on
    odd and even grids (the default's 182 among them) and past the
    recurrence limit."""
    problem = OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=pnr,
                                  grid_resolution=n, beta_resolution=m)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    want = _grid_scan_allocating(problem, rule, _weighted_term_sums)
    for got, ref in zip(_grid_scan(problem, rule), want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("nbar, sigma, pnr, n, m", SCAN_CASES + [
    (2.0, 0.3, 32, 182, 241), (1e-3, 0.0, 1, 182, 241),
])
def test_grid_scan_matches_per_node_cdf_accumulation(nbar, sigma, pnr, n, m):
    """Summing weighted terms over the nodes and then over the thresholds
    rounds differently from accumulating each node's CDFs, but only in the
    last bits: the grid is within 2e-15 absolute of that oracle and seeds
    the same cells, up to PNR 32 and at vanishing signal."""
    problem = OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=pnr,
                                  grid_resolution=n, beta_resolution=m)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    _, _, got = _grid_scan(problem, rule)
    _, _, want = _grid_scan_allocating(problem, rule, _per_node_cdf_sums)
    assert np.abs(got - want).max() <= 2e-15
    assert _select_seeds(got) == _select_seeds_argsort(want, 1)


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
    n, m = OptimizationProblem.grid_resolution, OptimizationProblem.beta_resolution
    assert np.array_equal(thetas, np.linspace(0.0, math.pi, n, endpoint=False))
    ref = _grid_scan_per_cell(problem, build_rule(problem.noise, GRID_QUAD_ORDER), thetas, betas)
    assert perr.shape == ref.shape == (pnr, n, m)
    assert np.all(np.abs(perr - ref) <= 1e-12 * ref)
    assert _select_seeds_argsort(perr, EVERY_SEED) == _select_seeds_argsort(ref, EVERY_SEED)
    assert _select_seeds(perr) == _select_seeds_argsort(ref, 1)


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


@pytest.mark.parametrize("n", [2, 3, 4, 31, 181, 182])
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
    (30.0, 0.3, 32, 31, 41), (40.0, 0.1, 4, 181, 241), (40.0, 0.1, 4, 182, 241),
])
def test_table_scan_matches_each_cells_average(nbar, sigma, pnr, n, m):
    """From vanishing signal to nbar 40, past the recurrence limit, and on
    the default grid and the odd one below it, the table scan is within
    2e-15 absolute of each cell's own two-symbol average."""
    _check_table_scan(OptimizationProblem(nbar=nbar, noise=PhaseNoise(sigma), pnr_ceiling=pnr,
                                          grid_resolution=n, beta_resolution=m))


@pytest.mark.parametrize("n, rows", [(182, 92), (30, 16), (4, 3), (181, 182), (31, 32), (3, 4)])
def test_even_grid_shares_its_amplitude_rows(n, rows, monkeypatch):
    """At even n, alpha0 of each angle is alpha1 of another, so the scan
    averages n//2 + 1 amplitude rows; at odd n the symbols' rows are
    disjoint, n + 1 of them."""
    shapes = []

    def spy(alpha, beta, phases):
        shapes.append(np.shape(alpha))
        return displaced_intensity(alpha, beta, phases)

    monkeypatch.setattr("phaserx.optimizer.displaced_intensity", spy)
    problem = OptimizationProblem(nbar=2.0, noise=PhaseNoise(0.3), pnr_ceiling=2,
                                  grid_resolution=n, beta_resolution=41)
    rule = build_rule(problem.noise, GRID_QUAD_ORDER).fold_even()
    _grid_scan(problem, rule)
    assert len(shapes) == rule.nodes.size
    assert {shape[0] for shape in shapes} == {rows}


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
    """Each threshold's seed is the head of its slice's stable argsort:
    the first best cell on ties, nan ranked last, and the first cell of an
    all-nan slice."""
    rng = np.random.default_rng(2027)
    shapes = [(3, 40, 50), (2, 7, 9), (2, 2, 2), (1, 1, 3), (4, 1, 1)]
    for shape in shapes:
        for levels in (1, 2, 3, 7, 1000):
            # heavy ties: values rounded to a few levels
            perr = np.round(rng.random(shape) * levels) / levels
            assert _select_seeds(perr) == _select_seeds_argsort(perr, 1)
            perr[rng.random(shape) < 0.3] = math.nan
            assert _select_seeds(perr) == _select_seeds_argsort(perr, 1)
            perr[-1] = math.nan
            assert _select_seeds(perr) == _select_seeds_argsort(perr, 1)
            # a strided view, as the scan returns, whose extra row is never
            # picked
            padded = np.full((shape[0], shape[1] + 1, shape[2]), -1.0)
            padded[:, :-1] = perr
            assert _select_seeds(padded[:, :-1]) == _select_seeds_argsort(perr, 1)


def test_optimize_on_a_grid_smaller_than_the_seed_count():
    res = optimize(fast_problem(2.0, 0.2, 2, grid_resolution=2, beta_resolution=2))
    assert 0.0 <= res.perr < 0.5
