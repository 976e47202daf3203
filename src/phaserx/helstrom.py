"""Quantum-optimal discrimination of phase-diffused coherent states.

A coherent state sent through the phase-noise channel becomes a mixed
state whose Fock-basis matrix elements are those of the pure state damped
by ``<exp(i*(m - n)*phi)>_phi``, the phase law's characteristic function
``noise.characteristic(m - n)``.  The minimum achievable
error probability for two such states is half of one minus half the trace
norm of their difference, or, where the channel keeps the states pure,
the pure-state closed form.
"""

from __future__ import annotations

import cmath
import functools
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

# optimize_helstrom: angles scanned on [pi/4, 3*pi/4], the Helstrom error's
# fundamental domain, and the golden bracket width refining the best of them.
HELSTROM_GRID = 63
HELSTROM_XTOL = 1e-6
# optimize_helstrom scans its angles in chunks whose stack of real density
# matrices holds at most this many bytes, or one angle where a single matrix
# is larger (dim > 128).  Of budgets from 32 KiB to 8 MiB, 128 KiB ran the
# scan fastest at the sweep's dims (43-50).
HELSTROM_STACK_BYTES = 1 << 17


@dataclass(frozen=True)
class FockDensityMatrix:
    """Hermitian matrix of a state truncated to Fock levels ``0 .. dim-1``,
    or a stack of them: ``elements`` has shape ``(..., dim, dim)``.  Each
    matrix's trace and purity are read off ``elements``."""

    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.elements
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"expected square matrices, got shape {m.shape}")
        # a non-finite element fails the bound (inf - inf is nan) without a warning
        with np.errstate(invalid="ignore"):
            hermitian = (np.abs(m - m.conj().swapaxes(-1, -2)) <= 1e-12).all()
        if not hermitian:
            raise ValueError("matrix is not Hermitian within 1e-12")

    @property
    def dim(self) -> int:
        """Number of Fock levels kept, the size of each matrix."""
        return self.elements.shape[-1]


def fock_dim(amplitudes, dim: int | None = None) -> int:
    """The one truncation rule: Fock levels ``0 .. dim-1`` leaving Poisson
    tail mass below ~1e-12, ``ceil(mu + 10*sqrt(mu + 1) + 20)`` for the
    brightest ``mu = abs(a) ** 2`` among ``amplitudes``; adequate for the
    photon numbers in scope (``mu`` up to a few tens).  ``mu`` is squared
    by Python (C pow), since numpy's square of ``np.abs`` differs by an ulp
    for some amplitudes.  An explicit ``dim`` is returned once checked not
    to fall below it."""
    peak = max(abs(a) ** 2 for a in amplitudes)
    need = math.ceil(peak + 10.0 * math.sqrt(peak + 1.0) + 20.0)
    dim = need if dim is None else check_count("dim", dim, 1)
    if dim < need:
        raise ValueError(
            f"dim = {dim} is too small for |alpha|^2 = {peak:.6g}; "
            f"need at least {need} to keep the truncated tail below ~1e-12"
        )
    return dim


@functools.lru_cache(maxsize=8)
def _dephasing_kernel(noise: PhaseNoise, dim: int) -> np.ndarray:
    # G[m, n] = noise.characteristic(m - n), cached read-only: the two
    # symbol states of one Helstrom error, and every golden probe of one
    # optimize_helstrom, share it
    m = np.arange(dim)
    kernel = noise.characteristic(m[:, None] - m[None, :])
    kernel.setflags(write=False)
    return kernel


def phase_diffused_state(
    alpha,
    noise: PhaseNoise,
    dim: int | None = None,
) -> FockDensityMatrix:
    """Fock-basis density matrix of a dephased coherent state, or the stack
    of them for an array of amplitudes.

    ``rho = (a a^dagger) * G`` elementwise, with the pure-state amplitudes
    ``a[m] = <m|alpha> = sqrt(p_m(|alpha|^2)) * exp(i*m*arg(alpha))``, where
    ``p_m`` is the Poisson pmf (log space, so large ``m`` cannot overflow),
    and the dephasing kernel ``G[m, n] = noise.characteristic(m - n)``, the
    phase average of ``exp(i*(m - n)*phi)``, built once per ``(noise, dim)``.
    An ``alpha`` of shape ``S`` gives ``elements`` of shape ``S + (dim, dim)``,
    each matrix equal to the one its amplitude gives alone; a scalar is the
    0-d case.  A real ``alpha`` gives a real, exactly symmetric matrix; the
    stack is real when every amplitude is.  ``dim`` defaults to
    ``fock_dim`` of the amplitudes; passing a smaller value raises with the
    required size in the message.
    """
    alpha = np.asarray(alpha)
    alphas = [check_amplitude("alpha", a) for a in alpha.ravel().tolist()]
    # Python's abs(a) ** 2, the photon numbers fock_dim sizes the matrix by
    mus = [abs(a) ** 2 for a in alphas]
    dim = fock_dim(alphas, dim)

    m = np.arange(dim)
    rows = alpha.shape + (1,)
    mu = np.array(mus).reshape(rows)
    phase = np.array([1j * cmath.phase(a) for a in alphas]).reshape(rows)
    amp = np.sqrt(_poisson_pmf(m, mu)) * np.exp(phase * m)
    # cos(pi*m) rounds to exactly +-1, so a real alpha's row is real
    real = [a.imag == 0.0 for a in alphas]
    amp = amp.real if all(real) else np.where(np.reshape(real, rows), amp.real, amp)
    elements = amp[..., :, None] * amp.conj()[..., None, :]
    elements *= _dephasing_kernel(noise, dim)
    return FockDensityMatrix(elements)


def trace_distance(a: FockDensityMatrix, b: FockDensityMatrix):
    """Half the trace norm of ``a - b`` (sum of |eigenvalues| of the difference).

    A float for two matrices; for two stacks of the same shape, the array of
    the matched pairs' distances from one batched eigensolve, each equal to
    its pair's own call.  The one exception is a pair of real matrices in a
    complex stack: it is solved as complex Hermitian, which can move its
    distance in the last bit.
    """
    if a.elements.shape != b.elements.shape:
        raise ValueError(f"dimension mismatch: {a.elements.shape} vs {b.elements.shape}")
    eigs = np.linalg.eigvalsh(a.elements - b.elements)
    distance = 0.5 * np.abs(eigs).sum(axis=-1)
    return distance if distance.ndim else float(distance)


def _helstrom_error(alpha0, alpha1, noise: PhaseNoise, dim: int):
    """Helstrom error of the symbol pairs, 0-d for two amplitudes, an array
    for two stacks: where ``noise.characteristic(1) == 1`` keeps the states
    pure, the closed form ``exp(-d)/(2*(1 + sqrt(1 - exp(-d))))``, ``d = |a1
    - a0|**2``; else ``(1 - trace_distance)/2`` at ``dim``, clipped to [0, 1/2]."""
    if noise.characteristic(1) == 1.0:
        d = np.abs(np.subtract(alpha1, alpha0)) ** 2
        return np.exp(-d) / (2.0 * (1.0 + np.sqrt(-np.expm1(-d))))
    distance = trace_distance(phase_diffused_state(alpha0, noise, dim),
                              phase_diffused_state(alpha1, noise, dim))
    return np.minimum(np.maximum(0.5 * (1.0 - distance), 0.0), 0.5)


def perr_helstrom(
    c: BinaryConstellation,
    noise: PhaseNoise,
    dim: int | None = None,
) -> float:
    """Minimum error probability over all measurements, for dephased symbols.

    Where the channel keeps the states pure, the exact closed form; else
    builds both symbol states at a common truncation and evaluates
    ``(1 - trace_distance)/2``, whose ~1e-15 of absolute rounding leaves a
    value below about 1e-12 no relative precision (ROADMAP item 7).
    """
    dim = fock_dim((c.alpha0, c.alpha1), dim)
    return float(_helstrom_error(c.alpha0, c.alpha1, noise, dim))


def optimize_helstrom(nbar: float, noise: PhaseNoise) -> tuple[BinaryConstellation, float]:
    """Best Helstrom error over real-axis constellations at fixed power.

    Scans ``HELSTROM_GRID`` angles of the power-preserving parametrization
    on [pi/4, 3*pi/4], from the degenerate pair through OOK (pi/2) to BPSK
    (3*pi/4), then refines the best grid cell by golden-section search.
    That interval covers every constellation: theta -> theta + pi negates
    both amplitudes, a rotation that commutes with the phase-noise channel,
    and theta -> pi/2 - theta swaps the labels, which leaves the error of
    equal priors unchanged.  The refined angle stays within one grid step
    of the interval, so where OOK is best ``alpha0`` is the dim symbol.
    The scan takes chunks of angles whose stack of real matrices fits in
    ``HELSTROM_STACK_BYTES``, each from one batched eigensolve, or from the
    closed form where the channel keeps the states pure; every value
    equals the ``perr_helstrom`` of its angle.  Used for the bound optimized
    independently of any concrete receiver.
    """
    check_nbar(nbar, positive=True)
    thetas = np.linspace(math.pi / 4, 3 * math.pi / 4, HELSTROM_GRID)
    grid = [parametrize(t, nbar) for t in thetas]
    alpha0 = [c.alpha0 for c in grid]
    alpha1 = [c.alpha1 for c in grid]
    # one truncation for every candidate: no refined angle's amplitude
    # exceeds the scan's brightest, sqrt(2*nbar) at theta = pi/2
    dim = fock_dim(alpha0 + alpha1)
    chunk = max(1, HELSTROM_STACK_BYTES // (8 * dim * dim))
    values = np.concatenate([
        _helstrom_error(alpha0[lo:lo + chunk], alpha1[lo:lo + chunk], noise, dim)
        for lo in range(0, HELSTROM_GRID, chunk)
    ]).tolist()

    def objective(theta: float) -> float:
        return perr_helstrom(parametrize(theta, nbar), noise, dim)

    i = int(np.argmin(values))
    step = thetas[1] - thetas[0]
    # each bracket end is a grid neighbour, or the mirror image of one, so
    # no lower than the grid point up to rounding: golden probes only the
    # interior, and the grid point stands in for the ends; a tie goes to the
    # refined angle
    refined = golden_minimize(objective, thetas[i] - step, thetas[i] + step, xtol=HELSTROM_XTOL)
    theta, perr = min(refined, (thetas[i], values[i]), key=lambda point: point[1])
    return parametrize(theta, nbar), perr
