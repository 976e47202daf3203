import math

import numpy as np
import pytest
from scipy.special import erfc, ndtr

from phaserx.phasenoise import (
    BASE_ORDER,
    MAX_ORDER,
    ConvergenceError,
    PhaseNoise,
    QuadratureRule,
    average,
    build_rule,
)
from phaserx.receivers import displaced_intensity, poisson_cdf

# <cos(phi)> under Normal(0, sigma^2) is exp(-sigma^2/2); <cos(d*phi)> is
# exp(-d^2 sigma^2/2).  High-precision references:
EXP_HALF_S45 = 0.9037070778731960557   # exp(-0.45^2/2)
EXP_92_S45 = 0.4020213830946548717     # exp(-9*0.45^2/2)


def test_sigma_validation():
    with pytest.raises(ValueError):
        PhaseNoise(-0.1)
    with pytest.raises(ValueError):
        PhaseNoise(float("nan"))
    with pytest.raises(ValueError):
        PhaseNoise(float("inf"))
    PhaseNoise(0.0)


def test_zero_sigma_rule_is_degenerate():
    rule = build_rule(PhaseNoise(0.0), 64)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [1.0]


def test_rule_structure():
    rule = build_rule(PhaseNoise(0.45), 48)
    assert rule.nodes.size == rule.weights.size == 48
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    # exactly mirrored node and weight pairs, scaled by sqrt(2)*sigma
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert np.max(np.abs(rule.nodes)) < 0.45 * math.sqrt(2.0) * 48


EVEN_INTEGRANDS = {
    "cos": np.cos,
    "cos^2": lambda p: np.cos(p) ** 2,
    "exp(-mu)": lambda p: np.exp(-displaced_intensity(1.3, -0.4, p)),
    "cdf": lambda p: poisson_cdf(2, displaced_intensity(-0.9, 2.1, p)),
}


@pytest.mark.parametrize("order", [96, 128, 97])
@pytest.mark.parametrize("sigma", [0.15, 0.45, 1.0])
def test_folded_rule_averages_even_integrands_like_the_full_rule(order, sigma):
    rule = build_rule(PhaseNoise(sigma), order)
    folded = rule.fold_even()
    assert rule.nodes.size == order
    assert folded.nodes.size == folded.weights.size == order // 2 + order % 2
    assert folded.nodes.min() >= 0.0
    assert folded.weights.sum() == pytest.approx(1.0, rel=1e-14)
    for name, f in EVEN_INTEGRANDS.items():
        assert folded.average(f(folded.nodes)) == pytest.approx(
            rule.average(f(rule.nodes)), rel=1e-15, abs=0.0), name


def test_folded_zero_sigma_rule_is_unchanged():
    rule = build_rule(PhaseNoise(0.0), 96)
    folded = rule.fold_even()
    assert folded.nodes.tolist() == rule.nodes.tolist() == [0.0]
    assert folded.weights.tolist() == [1.0]


def test_fold_rejects_a_rule_that_is_not_mirrored():
    lopsided = QuadratureRule(nodes=np.array([-1.0, 0.5]), weights=np.full(2, 0.5))
    with pytest.raises(ValueError, match="mirrored"):
        lopsided.fold_even()
    uneven = QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([0.4, 0.6]))
    with pytest.raises(ValueError, match="mirrored"):
        uneven.fold_even()


def test_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        build_rule(PhaseNoise(0.1), 0)


def test_rule_average_is_weighted_sum():
    rule = build_rule(PhaseNoise(0.3), 16)
    assert rule.average(np.ones(16)) == pytest.approx(1.0, rel=1e-14)


def test_gaussian_moments_exact():
    """Polynomial moments of the phase distribution come out exactly."""
    noise = PhaseNoise(0.7)
    assert average(noise, lambda p: p) == pytest.approx(0.0, abs=1e-14)
    assert average(noise, lambda p: p * p) == pytest.approx(0.49, rel=1e-13)
    assert average(noise, lambda p: p**4) == pytest.approx(3 * 0.49**2, rel=1e-12)


def test_characteristic_function_values():
    noise = PhaseNoise(0.45)
    assert average(noise, np.cos) == pytest.approx(EXP_HALF_S45, rel=1e-12)
    assert average(noise, lambda p: np.cos(3.0 * p)) == pytest.approx(EXP_92_S45, rel=1e-12)
    assert isinstance(average(noise, np.cos), float)
    # a stacked integrand gives one average per row
    got = average(noise, lambda p: np.stack([np.cos(p), np.cos(3.0 * p)]))
    assert got.shape == (2,)
    assert got[0] == pytest.approx(EXP_HALF_S45, rel=1e-12)
    assert got[1] == pytest.approx(EXP_92_S45, rel=1e-12)
    # the law's own closed forms: its characteristic function, and its
    # quantile at the CDF value of one standard deviation
    assert noise.characteristic(1) == pytest.approx(EXP_HALF_S45, rel=1e-15)
    assert noise.characteristic(3) == pytest.approx(EXP_92_S45, rel=1e-15)
    assert noise.quantile(ndtr(1.0)) == pytest.approx(noise.sigma, rel=1e-15)


def test_zero_sigma_average_is_point_evaluation():
    got = average(PhaseNoise(0.0), lambda p: np.cos(p) + 2.0)
    assert got == 3.0
    got = average(PhaseNoise(0.0), lambda p: np.stack([np.cos(p), p + 2.0]))
    assert got.tolist() == [1.0, 2.0]


def test_adaptive_refinement_reaches_small_values():
    # needs more than BASE_ORDER nodes; exact value is ~1e-5
    noise = PhaseNoise(0.8)
    exact = math.exp(-36.0 * 0.64 / 2.0)
    assert average(noise, lambda p: np.cos(6.0 * p)) == pytest.approx(exact, abs=1e-12)
    # stacked with cos(p), which alone converges at order 64, it still refines
    orders = []

    def f(p):
        orders.append(p.size)
        return np.stack([np.cos(p), np.cos(6.0 * p)])

    assert average(noise, f)[1] == pytest.approx(exact, abs=1e-12)
    assert orders[-1] > 2 * BASE_ORDER


def test_convergence_failure_reports_last_estimates():
    noise = PhaseNoise(1.0)
    with pytest.raises(ConvergenceError) as exc:
        average(noise, lambda p: np.cos(800.0 * p))
    assert math.isfinite(exc.value.coarse)
    assert math.isfinite(exc.value.fine)
    assert str(MAX_ORDER) in str(exc.value)
    # stacked: the estimates are floats from the component that fails
    with pytest.raises(ConvergenceError) as exc:
        average(noise, lambda p: np.stack([np.cos(p), np.cos(800.0 * p)]))
    assert isinstance(exc.value.coarse, float) and isinstance(exc.value.fine, float)
    assert abs(exc.value.fine - math.exp(-0.5)) > 1e-3
    assert "component 1" in str(exc.value)


def test_failed_average_evaluates_each_order_once():
    calls = []

    def f(p):
        calls.append(p.size)
        return np.cos(800.0 * p)

    with pytest.raises(ConvergenceError):
        average(PhaseNoise(1.0), f)
    # orders 32 and 64 share the first call on their 96 concatenated nodes
    assert calls == [32 + 64, 128, 256, 512]


def _ladder_one_call_per_order(noise, f, tolerance=1e-10):
    """Reference ladder: one ``build_rule`` and one integrand call per order.

    Returns the order it stopped at with its last two estimates, stopped at
    ``MAX_ORDER`` when they still disagree.
    """
    def estimate(order):
        rule = build_rule(noise, order)
        return rule.average(np.asarray(f(rule.nodes)))

    def close(a, b):
        return abs(a - b) <= tolerance * (abs(b) if abs(b) > tolerance else 1.0)

    order = BASE_ORDER
    fine = estimate(order)
    while order < MAX_ORDER:
        order *= 2
        coarse, fine = fine, estimate(order)
        if all(close(a, b) for a, b in zip(np.atleast_1d(coarse), np.atleast_1d(fine))):
            break
    return order, coarse, fine


INTEGRANDS = {
    "cos": np.cos,
    "erfc": lambda p: 0.5 * erfc(2.0 * np.cos(p)),
    "stacked": lambda p: np.stack([np.cos(p), np.exp(np.sin(3.0 * p)), np.cos(6.0 * p)]),
}


def test_average_equals_one_call_per_order():
    # A changed summation alters the rounding of only some estimates, so
    # each integrand is compared over a grid of sigmas.
    stops = set()
    for name, f in INTEGRANDS.items():
        for sigma in np.linspace(0.05, 0.6, 12):
            noise = PhaseNoise(float(sigma))
            order, _, fine = _ladder_one_call_per_order(noise, f)
            assert order < MAX_ORDER, (name, sigma)
            stops.add(order)
            got = average(noise, f)
            assert type(got) is type(fine)
            assert np.all(got == fine), (name, sigma)
    # the shared first call decides some averages, further orders others
    assert stops == {64, 128, 256}


@pytest.mark.parametrize("integrand, component", [
    (lambda p: np.cos(800.0 * p), None),
    (lambda p: np.stack([np.cos(p), np.cos(800.0 * p)]), 1),
])
def test_failed_average_equals_one_call_per_order(integrand, component):
    noise = PhaseNoise(1.0)
    order, coarse, fine = _ladder_one_call_per_order(noise, integrand)
    assert order == MAX_ORDER
    where = ""
    if component is not None:
        coarse, fine = float(coarse[component]), float(fine[component])
        where = f" in component {component}"
    with pytest.raises(ConvergenceError) as exc:
        average(noise, integrand)
    assert exc.value.coarse == coarse
    assert exc.value.fine == fine
    assert str(exc.value) == (
        f"phase average did not converge by order {MAX_ORDER}{where}: estimate "
        f"{coarse!r} at order {MAX_ORDER // 2} vs {fine!r} at order {MAX_ORDER} "
        f"exceeds tolerance 1e-10"
    )


def test_tolerance_validation():
    for bad in (0.0, math.nan, math.inf):
        for sigma in (0.0, 0.1):
            with pytest.raises(ValueError, match="tolerance"):
                average(PhaseNoise(sigma), np.cos, tolerance=bad)


def test_order_doubling_ladder():
    assert BASE_ORDER < MAX_ORDER
    assert MAX_ORDER % BASE_ORDER == 0
