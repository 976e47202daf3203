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
from scipy.special import gammaln

from .constellation import BinaryConstellation, check_count, check_nbar, parametrize
from .golden import golden_minimize
from .phasenoise import PhaseNoise

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
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=1e-12):
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

    ``rho[m, n] = exp(-|alpha|^2) * alpha^m * conj(alpha)^n / sqrt(m! n!)
    * exp(-(m - n)^2 * sigma^2 / 2)``, built in log space so factorials and
    large powers cannot overflow.  ``dim`` defaults to
    ``required_dim(|alpha|^2)``; passing a smaller value raises with the
    required size in the message.
    """
    alpha = complex(alpha)
    mu = abs(alpha) ** 2
    need = required_dim(mu)
    dim = need if dim is None else check_count("dim", dim, 1)
    if dim < need:
        raise ValueError(
            f"dim = {dim} is too small for |alpha|^2 = {mu:.6g}; "
            f"need at least {need} to keep the truncated tail below ~1e-12"
        )

    if mu == 0.0:
        elements = np.zeros((dim, dim))
        elements[0, 0] = 1.0
        return FockDensityMatrix(dim=dim, elements=elements)

    m = np.arange(dim)
    lg = gammaln(m + 1.0)
    diff = m[:, None] - m[None, :]
    # log |rho[m, n]|; every piece is symmetric in (m, n) so the magnitude
    # matrix comes out exactly symmetric.
    logmag = (
        -mu
        + (m[:, None] + m[None, :]) * (0.5 * math.log(mu))
        - 0.5 * (lg[:, None] + lg[None, :])
        - 0.5 * (noise.sigma * diff) ** 2
    )
    mag = np.exp(logmag)
    theta = cmath.phase(alpha)
    if alpha.imag == 0.0 and alpha.real > 0.0:
        elements = mag
    elif alpha.imag == 0.0:
        # negative real axis: phase factor (-1)**(m - n)
        elements = mag * np.where(diff % 2 == 0, 1.0, -1.0)
    else:
        elements = mag * np.exp(1j * theta * diff)
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
    ``(1 - trace_distance)/2``.
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
