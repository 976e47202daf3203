import math

import pytest

from phaserx.optimizer import (
    OptimizationProblem,
    optimize,
    sweep_sigma,
)
from phaserx.phasenoise import PhaseNoise
from phaserx.receivers import ReceiverConfig, perr_generalized_kennedy

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
    # reported error is reproducible from the reported configuration
    again = perr_generalized_kennedy(res.constellation, res.config, PhaseNoise(0.45))
    assert again == res.perr


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
    cells = sweep_sigma(2.0, [0.0, 0.45], [1, 3], **FAST)
    assert [(c.pnr_ceiling, c.sigma) for c in cells] == [
        (1, 0.0), (1, 0.45), (3, 0.0), (3, 0.45),
    ]
    assert all(c.error is None and c.result is not None for c in cells)
    by = {(c.pnr_ceiling, c.sigma): c.result.perr for c in cells}
    for sigma in (0.0, 0.45):
        assert by[(3, sigma)] <= by[(1, sigma)] * (1.0 + 1e-10)


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
