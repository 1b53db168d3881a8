"""Independent FFT propagator used to cross-check the closed-form field.

Free evolution is diagonal in momentum space: each Fourier mode picks up
exp(-i hbar k**2 t / (2 m)). Starting from a sampled initial profile this
route shares no algebra with the closed form beyond the t = 0 state, so
agreement at later times is a genuine two-sided check.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, GridMismatchError, GridTooSmallError
from .wavefunction import WaveParams

__all__ = [
    "SpectralGrid",
    "SpectralField",
    "FieldComparison",
    "analytic_field",
    "spectral_propagate",
    "compare_fields",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic, endpoint-excluded grid centered on x = 0.

    nx must be a power of two so the FFT stays in its fast regime and the
    mode set is symmetric.
    """

    length: float
    nx: int

    def __post_init__(self):
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise DomainError(f"length must be positive and finite, got {self.length}")
        if self.nx < 2 or (self.nx & (self.nx - 1)) != 0:
            raise DomainError(f"nx must be a power of two >= 2, got {self.nx}")

    @property
    def dx(self) -> float:
        return self.length / self.nx

    def xs(self) -> np.ndarray:
        return -0.5 * self.length + self.dx * np.arange(self.nx)

    def ks(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.nx, d=self.dx)


@dataclass(frozen=True)
class SpectralField:
    grid: SpectralGrid
    t: float
    values: np.ndarray


@dataclass(frozen=True)
class FieldComparison:
    """Raw and phase-aligned error metrics between two sampled fields.

    The aligned metrics remove one global phase (fitted where the reference
    is largest) before differencing, since a spatially constant phase carries
    no physics.
    """

    max_abs_error: float
    l2_error: float
    norm_a: float
    norm_b: float
    aligned_max_abs_error: float
    aligned_l2_error: float


def analytic_field(params: WaveParams, grid: SpectralGrid, t: float) -> SpectralField:
    """Closed-form field sampled on a spectral grid."""
    values = _kernels.psi_profile(
        grid.xs(), params.n, t, params.t_c, params.m, params.hbar)
    return SpectralField(grid=grid, t=t, values=values)


def _moment_scales(field: SpectralField, m: float, hbar: float):
    """Center, spreads, and x-p covariance of a sampled field."""
    xs = field.grid.xs()
    dx = field.grid.dx
    prob_x = np.abs(field.values) ** 2
    total = prob_x.sum() * dx
    if total <= 0.0:
        raise DomainError("field has zero norm")
    mean_x = float((xs * prob_x).sum() * dx / total)
    var_x = float(((xs - mean_x) ** 2 * prob_x).sum() * dx / total)

    spectrum = np.fft.fft(field.values)
    prob_k = np.abs(spectrum) ** 2
    ks = field.grid.ks()
    wsum = prob_k.sum()
    mean_k = float((ks * prob_k).sum() / wsum)
    mean_p = hbar * mean_k
    var_p = hbar * hbar * float(((ks - mean_k) ** 2 * prob_k).sum() / wsum)

    # symmetrized covariance <{x,p}>/2 - <x><p> via spectral differentiation
    deriv = np.fft.ifft(1j * ks * spectrum)
    sym = hbar * float((xs * (np.conj(field.values) * deriv).imag).sum()
                       * dx / total)
    cov = sym - mean_x * mean_p
    return mean_x, var_x, mean_p, var_p, cov


def spectral_propagate(initial: SpectralField, t: float, m: float,
                       hbar: float) -> SpectralField:
    """Evolve ``initial`` to time ``t`` with the exact free-space multiplier.

    Refuses (GridTooSmallError) when the packet, spread to its estimated
    width at the target time, would sit within six sigma of the box edge:
    a periodic grid silently wraps leakage back into the window instead of
    losing it, so a too-small box corrupts the answer without warning. It
    likewise refuses when the momentum content reaches past the grid's
    Nyquist wavenumber, |<k>| + 6 sigma_k > pi / dx, since aliased modes
    pick up the wrong phase. The box is checked first.
    """
    if m <= 0.0 or hbar <= 0.0:
        raise DomainError("m and hbar must be positive")
    dt = t - initial.t
    mean_x, var_x, mean_p, var_p, cov = _moment_scales(initial, m, hbar)
    drift = mean_x + mean_p * dt / m
    # free evolution makes the variance exactly quadratic in time
    var_t = max(var_x + 2.0 * cov * dt / m + var_p * dt * dt / (m * m), 0.0)
    reach = abs(drift) + 6.0 * math.sqrt(var_t)
    half = 0.5 * initial.grid.length
    if reach > half:
        raise GridTooSmallError(
            f"packet needs |x| <= {reach:.3g} at t = {t} but the box ends at "
            f"{half:.3g}; enlarge length or nx")
    k_reach = (abs(mean_p) + 6.0 * math.sqrt(var_p)) / hbar
    nyquist = math.pi / initial.grid.dx
    if k_reach > nyquist:
        raise GridTooSmallError(
            f"packet needs |k| <= {k_reach:.3g} but the grid's Nyquist "
            f"wavenumber is {nyquist:.3g}; raise nx")
    ks = initial.grid.ks()
    spectrum = np.fft.fft(initial.values)
    spectrum *= np.exp(-0.5j * hbar * ks * ks * dt / m)
    return SpectralField(grid=initial.grid, t=t,
                         values=np.fft.ifft(spectrum))


def compare_fields(a: SpectralField, b: SpectralField) -> FieldComparison:
    """Error metrics between two fields on the same grid at the same time."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    if a.t != b.t:
        raise GridMismatchError(f"times differ: {a.t} vs {b.t}")
    dx = a.grid.dx
    diff = a.values - b.values
    norm_a = math.sqrt(float((np.abs(a.values) ** 2).sum() * dx))
    norm_b = math.sqrt(float((np.abs(b.values) ** 2).sum() * dx))

    j = int(np.argmax(np.abs(a.values)))
    ref = a.values[j]
    if ref == 0.0:
        phase = 1.0 + 0.0j
    else:
        phase = (b.values[j] / ref)
        mag = abs(phase)
        phase = phase / mag if mag > 0.0 else 1.0 + 0.0j
    adiff = a.values * phase - b.values
    return FieldComparison(
        max_abs_error=float(np.abs(diff).max()),
        l2_error=math.sqrt(float((np.abs(diff) ** 2).sum() * dx)),
        norm_a=norm_a,
        norm_b=norm_b,
        aligned_max_abs_error=float(np.abs(adiff).max()),
        aligned_l2_error=math.sqrt(float((np.abs(adiff) ** 2).sum() * dx)),
    )
