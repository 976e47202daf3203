"""Sampling oracle for every analytic error probability in the package.

Simulates transmission symbol by symbol: a uniform bit choice, a phase kick
drawn from the noise law, then either a Poisson photocount compared against
the threshold (displaced photon-counting receiver) or a Gaussian quadrature
outcome compared against a decision point (homodyne).

Determinism contract
--------------------
All randomness derives from the Philox (4x64, 10 rounds) counter-based
generator.  Trials are processed in fixed blocks of ``BLOCK_SIZE``; block
``b`` of seed ``s`` draws from a fresh generator whose 128-bit key holds
``s`` in its low 64-bit word and ``b`` in its high word (``s + (b << 64)``),
so no two (seed, block) pairs share a stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  Per trial the uniform triple
``(u_bit, u_phase, u_outcome)`` is consumed in row-major order.  Every
outcome is produced by inversion of its uniform: the bit as ``u < 1/2``,
the phase through ``noise.quantile``, the photon-counting decision as
``u >= P(count <= K)`` (the event that the inverse-CDF photocount exceeds
``K``: ``poisson_cdf`` and ``poisson_inverse`` share one recurrence for
means up to ``-log(tiny) ~ 708.4``, and above it ``poisson_cdf`` takes
``pdtr`` while ``poisson_inverse`` raises), and the homodyne outcome
through the inverse normal CDF.
Results therefore depend only on (seed, trial count, block size):
identical ``TrialConfig``s give bit-identical results, and block error
counts merge by integer addition in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .constellation import BinaryConstellation, check_count
from .phasenoise import PhaseNoise
from .receivers import (
    BIT1_HIGH,
    _RECURRENCE_LIMIT,
    ReceiverConfig,
    _check_means,
    _poisson_cdfs,
    displaced_intensity,
    poisson_cdf,
)

BLOCK_SIZE = 1_000_000
SCHEME_KENNEDY = "generalized-kennedy"
SCHEME_HOMODYNE = "homodyne"

# Uniforms are nudged off the closed endpoints before CDF inversion; this
# clips the Gaussian at ~8.2 sigma, far below any observable effect.
_U_EPS = 2.0 ** -53


@dataclass(frozen=True)
class TrialConfig:
    """Trial count, RNG seed, and which receiver to simulate."""

    trials: int
    seed: int
    scheme: str = SCHEME_KENNEDY

    def __post_init__(self):
        object.__setattr__(self, "trials", check_count("trials", self.trials, 1))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        if self.seed >= 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        if self.scheme not in (SCHEME_KENNEDY, SCHEME_HOMODYNE):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def poisson_inverse(u: np.ndarray, mu: np.ndarray, max_count: int = 2000) -> np.ndarray:
    """Poisson samples by CDF inversion: smallest k with ``u < P(X <= k)``.

    The simulator only needs whether the sample exceeds the threshold and
    reads that off :func:`~phaserx.receivers.poisson_cdf`; this full sampler
    is the reference that decision is tested against.  Sequential search
    along :func:`~phaserx.receivers._poisson_cdfs`, the package's one
    Poisson recurrence; exact, and equal to that decision, for means up to
    ``-log(tiny) ~ 708.4``.  A larger mean raises ``ValueError``: there
    ``poisson_cdf`` takes ``pdtr``, which the recurrence does not match,
    and a negative or nan mean raises as it does there.  ``max_count`` only
    guards against a (probability ~2^-53) stall once the term recurrence
    has underflowed.
    """
    mu = _check_means(mu)
    if np.any(mu > _RECURRENCE_LIMIT):
        raise ValueError(f"Poisson mean {np.max(mu)} is above the recurrence "
                         f"limit {_RECURRENCE_LIMIT:.4f} of poisson_inverse")
    k = np.zeros(u.shape, dtype=np.int64)
    for j, cdf in enumerate(_poisson_cdfs(mu)):
        pending = u >= cdf
        if not pending.any():
            break
        if j >= max_count:
            k[pending] = max_count
            break
        k[pending] += 1
    return k


def simulate_perr(
    c: BinaryConstellation,
    cfg: ReceiverConfig | float,
    noise: PhaseNoise,
    t: TrialConfig,
    orientation: str = BIT1_HIGH,
) -> tuple[float, float]:
    """Empirical error rate and its binomial standard error.

    ``cfg`` is the receiver configuration for the photon-counting scheme, or
    the quadrature decision point (a float, usually 0, not nan; +-inf are
    valid) for homodyne.  Each block counts the errors of the ``bit1_high``
    rule: an outcome above K, or above the decision point, decodes bit 1; a
    receiver labelled the other way is simulated as its twin, with the
    symbols swapped.  ``orientation`` accepts only ``BIT1_HIGH``; it stays
    because the benchmark passes ``generalized_kennedy_detail``'s constant
    label, and goes with the benchmark change of ROADMAP item 15.
    """
    if orientation != BIT1_HIGH:
        raise ValueError(f"only the {BIT1_HIGH!r} rule is simulated, got {orientation!r}")
    if t.scheme == SCHEME_KENNEDY:
        if not isinstance(cfg, ReceiverConfig):
            raise TypeError("the photon-counting scheme needs a ReceiverConfig")
    else:
        cfg = float(cfg)
        if math.isnan(cfg):
            raise ValueError("the homodyne decision point must not be nan")

    errors = 0
    for block, start in enumerate(range(0, t.trials, BLOCK_SIZE)):
        n = min(BLOCK_SIZE, t.trials - start)
        errors += _run_block(c, cfg, noise, t.seed + (block << 64), n, t.scheme)

    estimate = errors / t.trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / t.trials)
    return estimate, std_error


def _run_block(c, cfg, noise, key, n, scheme) -> int:
    """Errors of the ``bit1_high`` rule over the ``n`` trials of the block
    keyed ``key``: a trial errs when its outcome lands high and bit 0 was
    sent, or not high and bit 1 was."""
    rng = np.random.Generator(np.random.Philox(key=key))
    u = rng.random((n, 3))
    bits = u[:, 0] < 0.5
    phases = noise.quantile(np.clip(u[:, 1], _U_EPS, 1.0 - _U_EPS))
    alpha = np.where(bits, c.alpha1, c.alpha0)

    u_out = np.clip(u[:, 2], _U_EPS, 1.0 - _U_EPS)
    if scheme == SCHEME_KENNEDY:
        mu = displaced_intensity(alpha, cfg.beta, phases)
        high = u_out >= poisson_cdf(cfg.threshold_k, mu)
    else:
        sent = alpha * np.exp(1j * phases)
        mean = math.sqrt(2.0) * np.real(sent)
        x = mean + math.sqrt(0.5) * ndtri(u_out)
        high = x > cfg

    return int(np.count_nonzero(high != bits))
