"""Binary constellations and the average-power constraint.

Complex field amplitudes are kept in units where ``|alpha|**2`` is the mean
photon number of the symbol, so the average optical power of a binary
constellation is ``nbar = (|alpha0|**2 + |alpha1|**2) / 2``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from scipy.constants import c as _SPEED_OF_LIGHT
from scipy.constants import h as _PLANCK


@dataclass(frozen=True)
class BinaryConstellation:
    """Pair of equiprobable complex amplitudes carrying the two bit values."""

    alpha0: complex
    alpha1: complex

    def __post_init__(self):
        for name in ("alpha0", "alpha1"):
            object.__setattr__(self, name, check_amplitude(name, getattr(self, name)))

    def mean_photon_number(self) -> float:
        """Average photon number per symbol, ``(|a0|^2 + |a1|^2)/2``."""
        return 0.5 * (abs(self.alpha0) ** 2 + abs(self.alpha1) ** 2)


def check_amplitude(name: str, value: complex) -> complex:
    """``value`` as a complex number, rejecting a non-finite component; the
    one check behind every amplitude and displacement input."""
    a = complex(value)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ValueError(f"{name} must be finite, got {a}")
    return a


def check_nbar(nbar: float, positive: bool = False) -> None:
    """Reject a mean photon number that is not finite, negative, or (with
    ``positive``) zero; the one check behind every ``nbar`` input."""
    if not math.isfinite(nbar) or nbar < 0.0 or (positive and nbar == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"nbar must be finite and {bound}, got {nbar}")


def check_count(name: str, value: int, minimum: int) -> int:
    """``value`` as a Python int, rejecting a non-integer (a float such as
    ``2.0`` as well) or a value below ``minimum``; numpy integers pass.
    The one check behind every count, threshold, size and seed input."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def make_ook(nbar: float) -> BinaryConstellation:
    """On-off keying: ``(0, sqrt(2*nbar))``, mean photon number ``nbar``."""
    check_nbar(nbar)
    return BinaryConstellation(0.0, math.sqrt(2.0 * nbar))


def make_bpsk(nbar: float) -> BinaryConstellation:
    """Binary phase shift keying: ``(-sqrt(nbar), +sqrt(nbar))``."""
    check_nbar(nbar)
    a = math.sqrt(nbar)
    return BinaryConstellation(-a, a)


def parametrize(theta: float, nbar: float) -> BinaryConstellation:
    """Real-axis constellation meeting the power constraint exactly.

    ``alpha0 = sqrt(2*nbar)*cos(theta)`` and ``alpha1 = sqrt(2*nbar)*sin(theta)``,
    so the mean photon number is ``nbar`` for every ``theta``:
    ``theta = pi/2`` gives OOK, ``theta = 3*pi/4`` gives BPSK up to a global
    sign.
    """
    check_nbar(nbar)
    s = math.sqrt(2.0 * nbar)
    return BinaryConstellation(s * math.cos(theta), s * math.sin(theta))


def psd_watts_per_hz(nbar: float, wavelength: float) -> float:
    """Signal power spectral density of ``nbar`` photons per symbol.

    Uses the single-mode convention of one symbol per unit time-bandwidth
    product, giving ``nbar * h * c / wavelength`` in W/Hz.  The wavelength is
    in meters.
    """
    check_nbar(nbar)
    if not (math.isfinite(wavelength) and wavelength > 0.0):
        raise ValueError(f"wavelength must be finite and > 0, got {wavelength}")
    return nbar * _PLANCK * _SPEED_OF_LIGHT / wavelength
