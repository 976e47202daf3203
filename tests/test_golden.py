import math

import pytest

from phaserx.golden import golden_minimize


def test_quadratic_minimum():
    x, fx = golden_minimize(lambda t: (t - 1.3) ** 2, -2.0, 4.0, xtol=1e-10)
    assert x == pytest.approx(1.3, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-16)


def test_boundary_minimum():
    # monotone decreasing: the minimum sits at the right end, which the
    # caller holds; in either bracket order f is called only inside the
    # bracket, and the result lies within xtol of that end
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        seen = []

        def f(t):
            seen.append(t)
            return -t

        x, fx = golden_minimize(f, a, b, xtol=1e-9)
        assert seen and all(0.0 < t < 1.0 for t in seen)
        assert 1.0 - 1e-9 <= x < 1.0
        assert fx == -x


def test_swapped_bracket():
    x, _ = golden_minimize(lambda t: (t + 0.5) ** 2, 2.0, -2.0, xtol=1e-9)
    assert x == pytest.approx(-0.5, abs=1e-7)
    # either order probes the same two interior points first (its first two
    # evaluations, as no end is evaluated), and ends on the same point after
    # as many evaluations
    runs = []
    for a, b in ((0.0, 2.0), (2.0, 0.0)):
        seen = []

        def f(t):
            seen.append(t)
            return math.cos(3.0 * t)

        runs.append((golden_minimize(f, a, b, xtol=1e-8), set(seen[:2]), len(seen)))
    assert runs[0] == runs[1]


def test_result_is_best_evaluated_point():
    seen = []

    def f(t):
        seen.append(t)
        return math.cos(3.0 * t)

    x, fx = golden_minimize(f, 0.0, 2.0, xtol=1e-8)
    assert fx == min(math.cos(3.0 * t) for t in seen)
    assert fx == math.cos(3.0 * x)


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, 0.0)])
def test_ties_go_to_the_earliest_evaluated_point(a, b):
    """On a flat bottom many evaluated points tie; the result is the first
    of them that ``f`` was called at, and its value is the least returned."""
    calls = []

    def f(t):
        calls.append((t, max(abs(t - 1.0), 0.25)))
        return calls[-1][1]

    x, fx = golden_minimize(f, a, b, xtol=1e-8)
    least = min(v for _, v in calls)
    assert sum(v == least for _, v in calls) > 1
    assert (x, fx) == next(call for call in calls if call[1] == least)


def test_xtol_validation():
    with pytest.raises(ValueError):
        golden_minimize(lambda t: t * t, 0.0, 1.0, xtol=0.0)
    # every caller states its bracket width: there is no default, and it is
    # keyword-only
    with pytest.raises(TypeError):
        golden_minimize(lambda t: t * t, 0.0, 1.0)
    with pytest.raises(TypeError):
        golden_minimize(lambda t: t * t, 0.0, 1.0, 1e-8)
