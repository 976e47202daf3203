"""Derivative-free 1-D minimization by golden-section search."""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi = 0.618...


def golden_minimize(f, a: float, b: float, *, xtol: float) -> tuple[float, float]:
    """Minimize ``f`` on the bracket between ``a`` and ``b``, given in either
    order, to a bracket width of ``xtol``.

    ``f`` is evaluated only inside the bracket, never at ``a`` or ``b``,
    whose values the callers already hold: a minimum at an end is
    approached to within ``xtol``, and the caller compares the ends.
    ``record`` keeps every evaluated point in evaluation order; the result
    is its least entry ``(x, f(x))``, the earliest on a tie.  Assumes ``f``
    is unimodal on the bracket; on multimodal input it is still the best
    evaluated point.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol must be > 0, got {xtol}")
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    record = {x: f(x) for x in (c, d)}
    fc, fd = record[c], record[d]
    while abs(b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            record[c] = fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            record[d] = fd = f(d)
    return min(record.items(), key=lambda item: item[1])
