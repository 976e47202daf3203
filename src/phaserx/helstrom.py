"""Quantum-optimal discrimination of phase-diffused coherent states.

A coherent state sent through the Gaussian phase-noise channel becomes a
mixed state whose Fock-basis matrix elements are those of the pure state
damped by ``exp(-(m - n)**2 * sigma**2 / 2)``, the closed form of the
Gaussian average ``<exp(i*(m - n)*phi)>_phi``.  The minimum achievable
error probability for two such states is half of one minus half the trace
norm of their difference; at ``sigma = 0`` it reduces to the pure-state
closed form in :func:`phaserx.receivers.perr_helstrom_noiseless`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import (
    BinaryConstellation,
    check_amplitude,
    check_count,
    check_nbar,
    parametrize,
)
from .golden import golden_minimize
from .phasenoise import PhaseNoise
from .receivers import _poisson_pmf

# optimize_helstrom: constellation angles scanned on [0, pi), and the
# golden-section bracket width that refines the best of them.
HELSTROM_GRID = 121
HELSTROM_XTOL = 1e-6


@dataclass(frozen=True)
class FockDensityMatrix:
    """Hermitian matrix of a state truncated to Fock levels ``0 .. dim-1``."""

    dim: int
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.elements
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {m.shape}")
        # a non-finite element fails the bound (inf - inf is nan) without a warning
        with np.errstate(invalid="ignore"):
            hermitian = np.all(np.abs(m - m.conj().T) <= 1e-12)
        if not hermitian:
            raise ValueError("matrix is not Hermitian within 1e-12")

    def trace(self) -> float:
        return float(np.real(np.trace(self.elements)))

    def purity(self) -> float:
        """``tr(rho^2)``; 1 for a pure state up to truncation loss."""
        return float(np.real(np.sum(self.elements * self.elements.conj().T)))


def required_dim(peak_photon_number: float) -> int:
    """Fock-space truncation leaving Poisson tail mass below ~1e-12.

    Sized as ``mu + 10*sqrt(mu + 1) + 20`` for the largest symbol photon
    number ``mu`` in play; adequate for the photon numbers in scope
    (``mu`` up to a few tens).
    """
    mu = max(peak_photon_number, 0.0)
    return math.ceil(mu + 10.0 * math.sqrt(mu + 1.0) + 20.0)


def phase_diffused_state(
    alpha: complex,
    noise: PhaseNoise,
    dim: int | None = None,
) -> FockDensityMatrix:
    """Fock-basis density matrix of a dephased coherent state.

    ``rho = (a a^dagger) * G`` elementwise, with the pure-state amplitudes
    ``a[m] = <m|alpha> = sqrt(p_m(|alpha|^2)) * exp(i*m*arg(alpha))``, where
    ``p_m`` is the Poisson pmf (log space, so large ``m`` cannot overflow),
    and the dephasing kernel ``G[m, n] = exp(-(m - n)^2 * sigma^2 / 2)``.
    A real ``alpha`` gives a real, exactly symmetric matrix.  ``dim``
    defaults to ``required_dim(|alpha|^2)``; passing a smaller value raises
    with the required size in the message.
    """
    alpha = check_amplitude("alpha", alpha)
    mu = abs(alpha) ** 2
    need = required_dim(mu)
    dim = need if dim is None else check_count("dim", dim, 1)
    if dim < need:
        raise ValueError(
            f"dim = {dim} is too small for |alpha|^2 = {mu:.6g}; "
            f"need at least {need} to keep the truncated tail below ~1e-12"
        )

    m = np.arange(dim)
    amp = np.sqrt(_poisson_pmf(m, mu)) * np.exp(1j * cmath.phase(alpha) * m)
    if alpha.imag == 0.0:
        # cos(pi*m) rounds to exactly +-1, so a real alpha stays real
        amp = amp.real
    diff = m[:, None] - m[None, :]
    elements = np.outer(amp, amp.conj()) * np.exp(-0.5 * (noise.sigma * diff) ** 2)
    return FockDensityMatrix(dim=dim, elements=elements)


def trace_distance(a: FockDensityMatrix, b: FockDensityMatrix) -> float:
    """Half the trace norm of ``a - b`` (sum of |eigenvalues| of the difference)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = a.elements - b.elements
    eigs = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.abs(eigs).sum())


def perr_helstrom(
    c: BinaryConstellation,
    noise: PhaseNoise,
    dim: int | None = None,
) -> float:
    """Minimum error probability over all measurements, for dephased symbols.

    Builds both symbol states at a common truncation and evaluates
    ``(1 - trace_distance)/2``.  That difference carries about 1e-15 of
    absolute rounding, so a value below about 1e-12 has no relative
    precision (ROADMAP item 7).
    """
    if dim is None:
        dim = required_dim(max(abs(c.alpha0) ** 2, abs(c.alpha1) ** 2))
    rho0 = phase_diffused_state(c.alpha0, noise, dim)
    rho1 = phase_diffused_state(c.alpha1, noise, dim)
    perr = 0.5 * (1.0 - trace_distance(rho0, rho1))
    return min(max(perr, 0.0), 0.5)


def optimize_helstrom(nbar: float, noise: PhaseNoise) -> tuple[BinaryConstellation, float]:
    """Best Helstrom error over real-axis constellations at fixed power.

    Scans the power-preserving angle parametrization, then refines the best
    grid cell by golden-section search.  Used for the bound optimized
    independently of any concrete receiver.
    """
    check_nbar(nbar, positive=True)
    thetas = np.linspace(0.0, math.pi, HELSTROM_GRID, endpoint=False)
    # common truncation across all candidates: peak symbol energy is 2*nbar
    dim = required_dim(2.0 * nbar)

    def objective(theta: float) -> float:
        return perr_helstrom(parametrize(theta, nbar), noise, dim)

    values = [objective(t) for t in thetas]
    i = int(np.argmin(values))
    step = thetas[1] - thetas[0]
    theta, perr = golden_minimize(
        objective, thetas[i] - step, thetas[i] + step, xtol=HELSTROM_XTOL
    )
    if values[i] < perr:
        theta, perr = thetas[i], values[i]
    return parametrize(theta, nbar), perr
