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
from .phasenoise import DEFAULT_TOLERANCE, PhaseNoise, average

# The label of the one decision rule: counts above the threshold K decode
# bit 1.
BIT1_HIGH = "bit1_high"
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
    return _intensity(alpha, beta, np.cos(phases), np.sin(phases))


def _intensity(alpha, beta, cos, sin) -> np.ndarray:
    """``displaced_intensity`` at the phases whose cosines and sines are
    ``cos`` and ``sin``, for a caller that keeps them, such as a
    ``QuadratureRule``'s; neither is written to."""
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    # Real amplitudes and a real beta leave out the zero imaginary terms,
    # which change no intensity, and the squares are taken in place: on the
    # optimizer's table of symbol amplitudes against its beta axis each
    # full-size temporary slows the grid scan measurably.  ``dtype.kind``
    # is read, as ``np.iscomplexobj`` slows one Kennedy error measurably.
    if alpha.dtype.kind == "c":
        re = alpha.real * cos - alpha.imag * sin + beta.real
        im = alpha.real * sin + alpha.imag * cos
    else:
        re = alpha * cos + beta.real
        im = alpha * sin
    if beta.dtype.kind == "c":
        im = im + beta.imag
    re *= re
    im *= im
    re += im
    return re


def _poisson_terms(mu, first):
    """Poisson terms ``first * mu**j / j!``, j = 0, 1, ..., for mean(s)
    ``mu``: the probabilities ``P(count = j)`` when ``first`` is
    ``exp(-mu)``, and a weighted copy of them when ``first`` carries a
    weight too, as the grid scan's ``w*exp(-mu)`` does.

    The package's one Poisson recurrence, free of division: each term is
    the last times ``mu``, then times ``1.0/j``, a multiply where a
    division by ``j`` costs about three times as much on a full array.
    ``first`` is yielded as given and never written to; every later term
    is one array updated in place, so a caller that keeps a term past the
    next draw copies it.
    """
    yield first
    term = first * mu
    yield term
    j = 1
    while True:
        j += 1
        term *= mu
        term *= 1.0 / j
        yield term


def _poisson_cdfs(mu):
    """Poisson ``P(count <= 0), P(count <= 1), ...`` for mean(s) ``mu``:
    the running sum, in order, of ``_poisson_terms(mu, exp(-mu))``, so that
    ``poisson_cdf``, ``poisson_inverse`` and the Monte Carlo decision share
    one recurrence bit for bit.

    It is accurate to a few 1e-15 relative for means up to
    ``_RECURRENCE_LIMIT``, where ``exp(-mu)`` is still a normal double.
    Against the 40-digit regularized incomplete gamma of ``mpmath`` it is
    within 6e-16 at counts 0 to 40 and means 0.01 to 35, and within 4e-15
    at counts up to 60 either side of means 100 to 708, where
    ``scipy.stats.poisson.cdf`` is itself off by up to 1.7e-14; it agrees
    with that to 1e-13.  Above the limit it loses relative precision (and
    reads 0 from about 745 up, where ``exp(-mu)`` underflows), but its
    absolute error stays negligible while the count is well below the mean:
    below 1e-190 against ``scipy.special.pdtr`` for counts up to 100 at
    means 700 to 1200, and first visible from counts near 400 (3.8e-2 at
    count 700, mean 745).  ``poisson_cdf`` takes ``pdtr`` above the limit
    and the reference sampler ``poisson_inverse`` refuses such means; the
    grid scan, which sums the weighted terms over a table of symbol
    amplitudes and whose ``0.5 + 0.5*gap`` rounds to ~1e-16 absolute
    anyway, takes the recurrence at every mean.

    Each yielded array but the first is overwritten by the next draw: the
    partial sums are updated in place, so a caller that keeps one past the
    next draw copies it.
    """
    terms = _poisson_terms(mu, np.exp(-mu))
    cdf = next(terms)
    yield cdf
    cdf = cdf + next(terms)
    while True:
        yield cdf
        cdf += next(terms)


def _check_means(mu) -> np.ndarray:
    """``mu`` as a float array; a negative or nan mean raises ``ValueError``."""
    mu = np.asarray(mu, dtype=float)
    # the least mean is nan if any is
    if not mu.min(initial=math.inf) >= 0.0:
        raise ValueError(f"Poisson means must be >= 0, got {float(mu.min())!r}")
    return mu


def poisson_cdf(k: int, mu: np.ndarray) -> np.ndarray:
    """Poisson ``P(count <= k)`` for every finite mean ``mu >= 0``.

    Means up to ``_RECURRENCE_LIMIT`` take the stable all-positive term
    recurrence, accurate to a few 1e-15 relative.  Larger means take
    ``scipy.special.pdtr`` instead, so the recurrence never sees them.  A
    negative or nan mean raises ``ValueError``.
    """
    k = check_count("k", k, 0)
    mu = _check_means(mu)
    if mu.max(initial=-math.inf) > _RECURRENCE_LIMIT:
        large = mu > _RECURRENCE_LIMIT
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


def perr_bpsk_hom(nbar: float, noise: PhaseNoise, tolerance: float = DEFAULT_TOLERANCE) -> float:
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
    tolerance: float = DEFAULT_TOLERANCE,
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


def _kennedy_error(k: int, mu: np.ndarray) -> np.ndarray:
    """``generalized_kennedy_detail``'s integrand at intensities ``(mu1, mu0)``."""
    return 0.5 * poisson_cdf(k, mu[0]) + 0.5 * pdtrc(k, mu[1])


def generalized_kennedy_detail(
    c: BinaryConstellation,
    cfg: ReceiverConfig,
    noise: PhaseNoise,
    tolerance: float = DEFAULT_TOLERANCE,
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
    alphas = np.array([[c.alpha1], [c.alpha0]])

    def integrand(phases: np.ndarray) -> np.ndarray:
        return _kennedy_error(cfg.threshold_k, displaced_intensity(alphas, cfg.beta, phases))

    perr = average(noise, integrand, tolerance)
    return min(max(perr, 0.0), 1.0), BIT1_HIGH


def perr_generalized_kennedy(
    c: BinaryConstellation,
    cfg: ReceiverConfig,
    noise: PhaseNoise,
    tolerance: float = DEFAULT_TOLERANCE,
) -> float:
    """Error of the displaced PNR receiver under its better labelling,
    ``min(x, 1 - x)`` for ``generalized_kennedy_detail``'s error ``x``; the
    ``bit0_high`` error ``1 - x`` loses relative precision once small."""
    x, _ = generalized_kennedy_detail(c, cfg, noise, tolerance)
    return min(x, 1.0 - x)


def perr_sql_baseline(nbar: float, noise: PhaseNoise,
                      tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Conventional-detection limit: best of OOK/DD and BPSK/homodyne.

    OOK/DD is immune to phase noise while BPSK/homodyne degrades with sigma,
    so the binding branch switches as the noise grows.
    """
    return min(perr_ook_dd(nbar), perr_bpsk_hom(nbar, noise, tolerance))

