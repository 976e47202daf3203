"""Gaussian phase averages.

A phase-noise channel multiplies a field amplitude by exp(i*phi) with
phi ~ Normal(0, sigma^2).  Detection probabilities then have to be averaged
over the phase,

    <f>_phi = (2*pi*sigma^2)^(-1/2) * Integral f(phi) exp(-phi^2/(2*sigma^2)) dphi,

taken over the whole real line (phases are deliberately not wrapped to
[-pi, pi]).  This module is the single numerical-integration engine used by
every error-probability computation in the package.

The quadrature family is Gauss-Hermite with the substitution
phi = sqrt(2)*sigma*t, so the Gaussian weight is absorbed exactly and
convergence is spectral for the entire integrands that occur here.  The
adaptive average evaluates its first two orders in one integrand call on
their concatenated nodes, so an integrand must act elementwise on the
phases: the value at a node may not depend on the other nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, roots_hermite

from .constellation import check_count

BASE_ORDER = 32
MAX_ORDER = 512
# The relative tolerance of every phase average that is not given one.
DEFAULT_TOLERANCE = 1e-10

_SQRT_PI = math.sqrt(math.pi)


@functools.lru_cache(maxsize=32)
def _hermite_base(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Node computation is by far the most expensive part of a rule and is
    # sigma-independent, so base rules are cached read-only per order.
    # scipy's implementation stays finite at the order cap, where numpy's
    # hermgauss overflows.
    t, w = roots_hermite(order)
    return _read_only(t), _read_only(w)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ConvergenceError(RuntimeError):
    """Adaptive phase average failed to converge before the order cap."""

    def __init__(self, message: str, coarse: float, fine: float):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


@dataclass(frozen=True)
class PhaseNoise:
    """Gaussian phase diffusion of standard deviation ``sigma`` (radians).

    The one place the law is written down: its quadrature rule
    (:func:`build_rule`), its characteristic function and its quantile
    function.  Every other module reaches the law through these.
    """

    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    def characteristic(self, n):
        """``<exp(i*n*phi)>_phi = exp(-(sigma*n)^2/2)``, elementwise over ``n``."""
        return np.exp(-0.5 * (self.sigma * n) ** 2)

    def quantile(self, u):
        """The phase whose CDF value is ``u`` in (0, 1), elementwise over ``u``."""
        return self.sigma * ndtri(u)


@dataclass(frozen=True)
class QuadratureRule:
    """Discretization of the Gaussian phase average.

    ``sum(weights * f(nodes))`` approximates ``<f>_phi``.  The weights are
    normalized to sum to 1 (the rule integrates constants exactly).  A rule
    from ``build_rule(noise, order)`` has ``order`` nodes, one at sigma = 0;
    its folded rule (``fold_even``) keeps only the nodes phi >= 0, about
    half of them, and is exact for the same integrands as long as they are
    even in phi.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @functools.cached_property
    def cos(self) -> np.ndarray:
        """``cos(nodes)``, read-only, computed once per rule."""
        return _read_only(np.cos(self.nodes))

    @functools.cached_property
    def sin(self) -> np.ndarray:
        """``sin(nodes)``, read-only, computed once per rule."""
        return _read_only(np.sin(self.nodes))

    def average(self, values: np.ndarray) -> float | np.ndarray:
        """Weighted sum of integrand samples taken at ``nodes``.

        ``values`` of shape ``(n,)``, for the ``n`` nodes, give a float; a
        stack of shape ``(m, n)`` gives the ``m`` weighted sums along the
        last axis, each row summed alone, bit for bit its own average.
        """
        if values.ndim == 1:
            return float(np.dot(self.weights, values))
        return (values[..., None, :] @ self.weights)[..., 0]

    def fold_even(self) -> QuadratureRule:
        """The rule for integrands even in phi, ``f(-phi) == f(phi)``.

        Keeps the nodes phi > 0 with their weights doubled, and the centre
        node phi = 0 of an odd order once, so it needs half the integrand
        values and, for an even integrand, agrees with this rule up to the
        rounding of the sum.  The sigma = 0 single-node rule comes back
        unchanged.

        Raises
        ------
        ValueError
            If the nodes and weights are not exactly mirrored about phi = 0.
        """
        if not (np.array_equal(self.nodes, -self.nodes[::-1])
                and np.array_equal(self.weights, self.weights[::-1])):
            raise ValueError("only a rule mirrored about phi = 0 can be folded")
        half, centre = divmod(self.nodes.size, 2)
        weights = self.weights[half:].copy()
        weights[centre:] *= 2.0
        return QuadratureRule(nodes=self.nodes[half:], weights=weights)


def check_tolerance(tolerance: float) -> None:
    """Reject a quadrature tolerance outside (0, inf); the one check behind
    every ``tolerance`` input."""
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def build_rule(noise: PhaseNoise, order: int) -> QuadratureRule:
    """Build a Gauss-Hermite rule rescaled to the phase distribution.

    Parameters
    ----------
    noise : PhaseNoise
        Phase-diffusion strength; ``sigma = 0`` degenerates to the single
        node phi = 0 with weight 1.
    order : int
        Number of quadrature nodes, >= 1.

    Returns
    -------
    QuadratureRule
        Nodes ``sqrt(2)*sigma*t_i`` and weights ``w_i/sqrt(pi)`` where
        (t_i, w_i) is the physicists' Gauss-Hermite rule.
    """
    order = check_count("quadrature order", order, 1)
    if noise.sigma == 0.0:
        return QuadratureRule(nodes=np.zeros(1), weights=np.ones(1))
    t, w = _hermite_base(order)
    return QuadratureRule(nodes=math.sqrt(2.0) * noise.sigma * t, weights=w / _SQRT_PI)


def average(noise: PhaseNoise, f, tolerance: float = DEFAULT_TOLERANCE) -> float | np.ndarray:
    """Evaluate ``<f>_phi`` to a requested tolerance.

    ``f`` must accept an ndarray of phases and return the integrand values
    elementwise, either as an array of the same shape (a scalar integrand,
    averaged to a float) or stacked as shape ``(m, n)`` for ``n`` phases
    (``m`` integrands sharing the nodes, averaged to an array of ``m``
    values).  The rule order is doubled from ``BASE_ORDER`` up to
    ``MAX_ORDER`` until two successive estimates agree to ``tolerance`` in
    every component (relative, or absolute once the value itself is below
    the tolerance); the finer estimate is returned.  Orders ``BASE_ORDER``
    and ``2*BASE_ORDER`` share one call of ``f`` on their concatenated
    nodes, split along the last axis, and each further order is one call;
    every estimate equals that of a separate call per order because ``f``
    is elementwise in the phases.

    Raises
    ------
    ConvergenceError
        If the order cap is reached without agreement; carries the last two
        estimates of the component that misses the tolerance by the most.
    """
    check_tolerance(tolerance)

    def estimate(order: int) -> float | np.ndarray:
        rule = build_rule(noise, order)
        return rule.average(np.asarray(f(rule.nodes)))

    def converged(coarse, fine) -> bool:
        if isinstance(fine, float):
            return _miss(coarse, fine, tolerance) <= tolerance
        return all(_miss(a, b, tolerance) <= tolerance
                   for a, b in zip(coarse.tolist(), fine.tolist()))

    # The first two orders share one integrand call: per call, numpy's
    # overhead on these short arrays outweighs the arithmetic.  At sigma = 0
    # both are the one-node rule, so the two estimates agree at once.
    base, doubled = build_rule(noise, BASE_ORDER), build_rule(noise, 2 * BASE_ORDER)
    values = np.asarray(f(np.concatenate((base.nodes, doubled.nodes))))
    coarse = base.average(values[..., :base.nodes.size])
    fine = doubled.average(values[..., base.nodes.size:])
    order = 2 * BASE_ORDER
    while not converged(coarse, fine):
        if order >= MAX_ORDER:
            raise _not_converged(coarse, fine, tolerance)
        order *= 2
        coarse, fine = fine, estimate(order)
    return fine


def _not_converged(coarse, fine, tolerance: float) -> ConvergenceError:
    """The error for estimates that still disagree at ``MAX_ORDER``; a stacked
    average reports the component that misses the tolerance by the most."""
    if isinstance(fine, float):
        where = ""
    else:
        worst = max(range(fine.size), key=lambda i: _miss(coarse[i], fine[i], tolerance))
        where = f" in component {worst}"
        coarse, fine = float(coarse[worst]), float(fine[worst])
    return ConvergenceError(
        f"phase average did not converge by order {MAX_ORDER}{where}: estimate "
        f"{coarse!r} at order {MAX_ORDER // 2} vs {fine!r} at order "
        f"{MAX_ORDER} exceeds tolerance {tolerance}",
        coarse=coarse,
        fine=fine,
    )


def _miss(a: float, b: float, tol: float) -> float:
    """How far ``a`` is from ``b``: relative to ``b``, or absolute once
    ``|b|`` is not above ``tol``; two estimates agree when it is at most
    ``tol``."""
    return abs(a - b) / (abs(b) if abs(b) > tol else 1.0)
