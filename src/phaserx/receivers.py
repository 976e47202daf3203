"""Error probabilities for structured binary-constellation receivers.

Covers direct detection of on-off keying, shot-noise limited homodyne
readout of phase-shift keying, and the displaced photon-counting receiver
(a Kennedy receiver generalized to an arbitrary displacement ``beta`` and a
count threshold ``K`` resolved by a PNR detector).  All phase-noise averages
go through :mod:`phaserx.phasenoise`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.special import erfc, gammaln, pdtr, pdtrc, xlogy

from .constellation import BinaryConstellation, check_amplitude, check_count, check_nbar
from .phasenoise import PhaseNoise, average

# Decision-rule orientations: which bit value is assigned to counts above
# the threshold K.
BIT1_HIGH = "bit1_high"
BIT0_HIGH = "bit0_high"
# The largest mean the Poisson recurrence takes: -log(tiny) ~ 708.4, tiny
# being the smallest normal double, so that exp(-mu) is a normal double too.
_RECURRENCE_LIMIT = -math.log(sys.float_info.min)


@dataclass(frozen=True)
class ReceiverConfig:
    """Displaced photon-counting receiver settings.

    ``beta`` is the displacement applied in the complex amplitude plane,
    ``threshold_k`` the count threshold of the bit decision, and
    ``pnr_ceiling`` the largest photon number the detector resolves.  The
    threshold must stay below the ceiling.
    """

    beta: complex
    threshold_k: int
    pnr_ceiling: int

    def __post_init__(self):
        object.__setattr__(self, "beta", check_amplitude("beta", self.beta))
        object.__setattr__(self, "pnr_ceiling", check_count("pnr_ceiling", self.pnr_ceiling, 1))
        object.__setattr__(self, "threshold_k", check_count("threshold_k", self.threshold_k, 0))
        if self.threshold_k >= self.pnr_ceiling:
            raise ValueError(
                f"threshold_k = {self.threshold_k} must stay below the PNR "
                f"ceiling {self.pnr_ceiling}"
            )


@dataclass(frozen=True)
class PhotocountDistribution:
    """Photocount probabilities ``p_0 .. p_N``, ``N = probs.size - 1``, plus
    the mass beyond ``N``."""

    probs: np.ndarray = field(repr=False)
    tail_mass: float


def displaced_intensity(alpha, beta, phases) -> np.ndarray:
    """Mean photocount ``|alpha*exp(i*phi) + beta|**2`` per phase sample.

    The displacement is applied after the phase noise: the local oscillator
    is assumed phase-locked, so only ``alpha`` picks up ``exp(i*phi)``.
    ``alpha``, ``beta`` and ``phases`` broadcast against each other.
    """
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    cos = np.cos(phases)
    sin = np.sin(phases)
    # A real beta is left out of ``im`` and the squares are taken in place:
    # on the optimizer's table of symbol amplitudes against its beta axis
    # each full-size temporary slows the grid scan measurably.
    re = alpha.real * cos - alpha.imag * sin + beta.real
    im = alpha.real * sin + alpha.imag * cos
    if np.iscomplexobj(beta):
        im = im + beta.imag
    re *= re
    im *= im
    re += im
    return re


def _poisson_cdfs(mu):
    """Poisson ``P(count <= 0), P(count <= 1), ...`` for mean(s) ``mu``.

    The package's one Poisson recurrence: all-positive terms
    ``exp(-mu) * mu**j / j!`` summed in order.  It is accurate to about
    1e-15 relative for means up to ``_RECURRENCE_LIMIT``, where
    ``exp(-mu)`` is still a normal double.  Above that it loses relative
    precision (and reads 0 from about 745 up, where ``exp(-mu)``
    underflows), but its absolute error stays negligible while the count is
    well below the mean: below 1e-190 against ``scipy.special.pdtr`` for
    counts up to 100 at means 700 to 1200, and first visible from counts
    near 400 (3.8e-2 at count 700, mean 745).  ``poisson_cdf`` takes
    ``pdtr`` above the limit and the reference sampler ``poisson_inverse``
    refuses such means; the grid scan, which averages it over a table of
    symbol amplitudes and whose ``0.5 + 0.5*gap`` rounds to ~1e-16
    absolute anyway, uses the recurrence at every mean.
    """
    term = np.exp(-mu)
    cdf = term
    yield cdf
    j = 0
    while True:
        j += 1
        term = term * mu / j
        cdf = cdf + term
        yield cdf


def poisson_cdf(k: int, mu: np.ndarray) -> np.ndarray:
    """Poisson ``P(count <= k)`` for every finite mean.

    Means up to ``_RECURRENCE_LIMIT`` take the stable all-positive term
    recurrence, accurate to about 1e-15 relative.  Larger means take
    ``scipy.special.pdtr`` instead, so the recurrence never sees them.
    """
    k = check_count("k", k, 0)
    mu = np.asarray(mu, dtype=float)
    large = mu > _RECURRENCE_LIMIT
    if large.any():
        return np.where(large, pdtr(k, mu), poisson_cdf(k, np.where(large, 0.0, mu)))
    return next(islice(_poisson_cdfs(mu), k, None))


def _poisson_pmf(k, mu):
    """Poisson ``P(count = k)`` for count(s) ``k`` and mean(s) ``mu``.

    Evaluated in log space, so large ``k`` cannot overflow; ``k`` and ``mu``
    broadcast against each other.
    """
    return np.exp(xlogy(k, mu) - mu - gammaln(k + 1.0))


def perr_ook_dd(nbar: float) -> float:
    """OOK with direct detection: ``exp(-2*nbar)/2``.

    Errors occur only when the bright symbol yields zero counts; phase noise
    leaves this scheme untouched.
    """
    check_nbar(nbar)
    return 0.5 * math.exp(-2.0 * nbar)


def perr_bpsk_hom(nbar: float, noise: PhaseNoise, tolerance: float = 1e-10) -> float:
    """BPSK with homodyne readout under phase noise.

    The quadrature integral over the x < 0 decision region is done in closed
    form, leaving ``< erfc(sqrt(2*nbar)*cos(phi))/2 >_phi``.  At sigma = 0
    this reduces exactly to ``(1 - erf(sqrt(2*nbar)))/2``.
    """
    check_nbar(nbar)
    amp = math.sqrt(2.0 * nbar)

    def integrand(phases: np.ndarray) -> np.ndarray:
        return 0.5 * erfc(amp * np.cos(phases))

    return average(noise, integrand, tolerance)


def photocount_distribution(
    alpha: complex,
    beta: complex,
    noise: PhaseNoise,
    truncation: int,
    tolerance: float = 1e-10,
) -> PhotocountDistribution:
    """Photocount probabilities up to ``truncation``, tail mass by complement.

    ``p_k = < mu(phi)**k * exp(-mu(phi)) / k! >_phi`` with
    ``mu(phi) = |alpha*exp(i*phi) + beta|**2``, all ``k`` in one phase
    average.  The integrand is evaluated in log space so large ``k`` cannot
    overflow.  The complement is good to about 1e-16 absolute; a rounding
    below zero is reported as 0.
    """
    check_amplitude("alpha", alpha)
    check_amplitude("beta", beta)
    truncation = check_count("truncation", truncation, 0)
    k = np.arange(truncation + 1.0)[:, None]

    def integrand(phases: np.ndarray) -> np.ndarray:
        return _poisson_pmf(k, displaced_intensity(alpha, beta, phases))

    probs = average(noise, integrand, tolerance)
    return PhotocountDistribution(probs=probs, tail_mass=max(1.0 - float(probs.sum()), 0.0))


def generalized_kennedy_detail(
    c: BinaryConstellation,
    cfg: ReceiverConfig,
    noise: PhaseNoise,
    tolerance: float = 1e-10,
) -> tuple[float, str]:
    """Error probability of the displaced photon-counting receiver.

    Counts above ``threshold_k`` decode to bit 1, so the error probability
    is ``P(count <= K | alpha1)/2 + P(count > K | alpha0)/2``, clipped to
    [0, 1].  The tail ``P(count > K)`` comes from ``scipy.special.pdtrc``,
    not by complement of the partial sum, so a small error keeps its
    relative precision.  Both symbols' intensities are computed as one
    ``(2, n)`` batch per set of phases.  The constant ``BIT1_HIGH`` label
    stays only because the benchmark unpacks it for ``simulate_perr``.
    """
    k = cfg.threshold_k
    alphas = np.array([[c.alpha1], [c.alpha0]])

    def integrand(phases: np.ndarray) -> np.ndarray:
        mu1, mu0 = displaced_intensity(alphas, cfg.beta, phases)
        return 0.5 * poisson_cdf(k, mu1) + 0.5 * pdtrc(k, mu0)

    perr = average(noise, integrand, tolerance)
    return min(max(perr, 0.0), 1.0), BIT1_HIGH


def perr_generalized_kennedy(
    c: BinaryConstellation,
    cfg: ReceiverConfig,
    noise: PhaseNoise,
    tolerance: float = 1e-10,
) -> float:
    """Error of the displaced PNR receiver under its better labelling,
    ``min(x, 1 - x)`` for ``generalized_kennedy_detail``'s error ``x``; the
    ``bit0_high`` error ``1 - x`` loses relative precision once small."""
    x, _ = generalized_kennedy_detail(c, cfg, noise, tolerance)
    return min(x, 1.0 - x)


def perr_sql_baseline(nbar: float, noise: PhaseNoise, tolerance: float = 1e-10) -> float:
    """Conventional-detection limit: best of OOK/DD and BPSK/homodyne.

    OOK/DD is immune to phase noise while BPSK/homodyne degrades with sigma,
    so the binding branch switches as the noise grows.
    """
    return min(perr_ook_dd(nbar), perr_bpsk_hom(nbar, noise, tolerance))


def perr_helstrom_noiseless(c: BinaryConstellation) -> float:
    """Quantum-optimal error probability for two pure coherent states.

    ``(1 - sqrt(1 - exp(-|a1 - a0|**2)))/2``, evaluated in the rearranged
    form ``exp(-d2) / (2 * (1 + sqrt(1 - exp(-d2))))`` which has no
    cancellation for well-separated symbols.
    """
    d2 = c.separation() ** 2
    return 0.5 * math.exp(-d2) / (1.0 + math.sqrt(-math.expm1(-d2)))
