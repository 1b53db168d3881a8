"""Spreading Hermite wavepackets of a free particle.

A family of exact free-particle solutions indexed by an integer order ``n``
and a coherence time ``t_c``. At t = 0 each member coincides with a harmonic
oscillator eigenfunction of frequency 1/t_c; for t != 0 the envelope spreads
as sqrt(t_c**2 + t**2) while staying node-for-node self-similar.

Two independent evaluation routes are kept deliberately separate: ``psi`` is
the time-dependent closed form, ``psi_initial`` re-builds the t = 0 profile
from oscillator quantities. Tests compare them rather than deriving one from
the other. Orders up to ``MAX_ORDER`` (650) are accepted.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
# hermite_pair is not called here; it stays importable as
# ``wavefunction.hermite_pair`` because perfbench/tracing.py wraps that name.
from .core_math import hermite_pair, integrate  # noqa: F401
from .errors import DomainError

MAX_ORDER = _kernels.MAX_ORDER

__all__ = [
    "MAX_ORDER",
    "WaveParams",
    "GridSpec",
    "ComplexField",
    "RealField",
    "psi",
    "psi_initial",
    "psi_dx",
    "psi_phase_flipped",
    "density",
    "density_grid",
    "sample_field",
    "total_probability",
    "energy",
    "schrodinger_residual",
    "residual_convergence",
]


_LN2 = math.log(2.0)
_RESCALE_ABOVE = 2.0 ** 500  # psi_initial's raw H_n is rescaled past this


@dataclass(frozen=True)
class WaveParams:
    """Parameters of one wavepacket: order, coherence time, units.

    Orders above ``MAX_ORDER`` are refused: the evaluation core cannot
    represent their outer lobes in double precision (see ``_kernels``).
    """

    n: int
    t_c: float = 1.0
    hbar: float = 1.0
    m: float = 0.5

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise DomainError(f"order must be a non-negative integer, got {self.n}")
        if self.n > MAX_ORDER:
            raise DomainError(f"order {self.n} is above the supported limit "
                              f"{MAX_ORDER}")
        if not (self.t_c > 0.0 and math.isfinite(self.t_c)):
            raise DomainError(f"t_c must be positive and finite, got {self.t_c}")
        if not all(v > 0.0 and math.isfinite(v) for v in (self.hbar, self.m)):
            raise DomainError("hbar and m must be positive and finite")

    @property
    def omega(self) -> float:
        """Frequency of the t = 0 oscillator profile."""
        return 1.0 / self.t_c

    def alpha(self, t: float) -> float:
        """alpha(t) = m t_c / (hbar (t_c**2 + t**2)); the envelope is
        exp(-alpha x**2 / 2)."""
        return _kernels.alpha(t, self.t_c, self.m, self.hbar)


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid, endpoint inclusive in x (and t when present)."""

    x_min: float
    x_max: float
    nx: int
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    nt: Optional[int] = None

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.t_min, self.t_max)
        if not all(math.isfinite(b) for b in bounds if b is not None):
            raise DomainError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise DomainError("need x_min < x_max")
        if self.nx < 2:
            raise DomainError("need nx >= 2")
        t_parts = (self.t_min, self.t_max, self.nt)
        if any(p is not None for p in t_parts):
            if any(p is None for p in t_parts):
                raise DomainError("t_min, t_max, nt must be given together")
            if not self.t_min <= self.t_max:
                raise DomainError("need t_min <= t_max")
            if self.nt < 1:
                raise DomainError("need nt >= 1")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ts(self) -> np.ndarray:
        if self.nt is None:
            raise DomainError("grid has no time axis")
        if self.nt == 1:
            return np.array([self.t_min])
        return np.linspace(self.t_min, self.t_max, self.nt)


@dataclass(frozen=True)
class ComplexField:
    grid: GridSpec
    t: float
    values: np.ndarray


@dataclass(frozen=True)
class RealField:
    grid: GridSpec
    t: float
    values: np.ndarray


def psi(params: WaveParams, x: float, t: float) -> complex:
    """Scalar closed-form wavefunction at (x, t)."""
    if not (math.isfinite(x) and math.isfinite(t)):
        raise DomainError("x and t must be finite")
    scale = params.alpha(t)
    phi, _ = _kernels.hermite_function_pair(params.n, math.sqrt(scale) * x)
    return scale ** 0.25 * phi * _carrier(params, x, t)[1]


def _carrier(params: WaveParams, x, t: float):
    """(chirp, exp(i (chirp x**2 - gouy))): the phase factor of psi, for a
    float or a float64 array ``x``."""
    chirp, gouy = _kernels.phase_terms(params.n, t, params.t_c, params.m,
                                       params.hbar)
    exp = np.exp if isinstance(x, np.ndarray) else cmath.exp
    return chirp, exp(1j * (chirp * x * x - gouy))


def psi_initial(params: WaveParams, x: float) -> complex:
    """Oscillator-eigenfunction route to the t = 0 profile.

    Built from omega alone: (m omega / (pi hbar))**(1/4) / sqrt(2**n n!)
    times exp(-m omega x**2 / (2 hbar)) H_n(sqrt(m omega / hbar) x). H_n
    comes from the raw recurrence, rescaled by powers of two so that it
    cannot overflow, and the prefactor from lgamma; nothing is shared with
    the normalized recurrence behind ``psi``.
    """
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    n = params.n
    scale = params.m * params.omega / params.hbar
    y = math.sqrt(scale) * x
    hn, hnm1, exponent = 1.0, 0.0, 0
    for k in range(n):
        hnm1, hn = hn, 2.0 * y * hn - 2.0 * k * hnm1
        if abs(hn) > _RESCALE_ABOVE:
            _, shift = math.frexp(hn)
            hn, hnm1 = math.ldexp(hn, -shift), math.ldexp(hnm1, -shift)
            exponent += shift
    log_norm = (0.25 * math.log(scale / math.pi)
                - 0.5 * (n * _LN2 + math.lgamma(n + 1.0)))
    return complex(hn * math.exp(log_norm - 0.5 * y * y + exponent * _LN2))


def psi_dx(params: WaveParams, x, t: float):
    """Analytic d(psi)/dx at time t, for a float or a float64 array ``x``.

    Uses phi_n'(xi) = sqrt(2n) phi_{n-1}(xi) - xi phi_n(xi).
    """
    scale = params.alpha(t)
    root = math.sqrt(scale)
    xi = root * x
    phi, phi_prev = _kernels.hermite_function_pair(params.n, xi)
    chirp, carrier = _carrier(params, x, t)
    slope = root * (math.sqrt(2.0 * params.n) * phi_prev - xi * phi)
    return scale ** 0.25 * (slope + 2j * chirp * x * phi) * carrier


def psi_phase_flipped(params: WaveParams, x: float, t: float) -> complex:
    """Deliberately wrong field: quadratic phase sign inverted.

    Negative control. It has the correct density for every (x, t) yet fails
    the evolution equation by an O(1) margin, which is what the residual
    diagnostics are meant to catch.
    """
    chirp, _ = _carrier(params, x, t)
    return psi(params, x, t) * cmath.exp(-2j * chirp * x * x)


def density(params: WaveParams, x: float, t: float) -> float:
    """|psi|**2 with the phases cancelled analytically (no complex arithmetic)."""
    root = math.sqrt(params.alpha(t))
    phi, _ = _kernels.hermite_function_pair(params.n, root * x)
    return root * phi * phi


def density_grid(params: WaveParams, grid: GridSpec, t: float) -> RealField:
    """Vectorized |psi|**2 on the grid's x axis (hot path, kernel backed)."""
    values = _kernels.density_profile(
        grid.xs(), params.n, t, params.t_c, params.m, params.hbar)
    return RealField(grid=grid, t=t, values=values)


def sample_field(params: WaveParams, grid: GridSpec, t: float) -> ComplexField:
    """Vectorized complex psi on the grid's x axis (hot path, kernel backed)."""
    values = _kernels.psi_profile(
        grid.xs(), params.n, t, params.t_c, params.m, params.hbar)
    return ComplexField(grid=grid, t=t, values=values)


def _support_halfwidth(params: WaveParams, t: float) -> float:
    """|x| beyond which the density is negligible at double precision."""
    turning_xi = math.sqrt(2.0 * params.n + 1.0)
    return (turning_xi + 10.0) / math.sqrt(params.alpha(t))


def total_probability(params: WaveParams, t: float, tol: float = 1e-10) -> float:
    """Quadrature of the density over the real line (truncated where it dies)."""
    lim = _support_halfwidth(params, t)
    res = integrate(lambda x: density(params, x, t), -lim, lim, tol=tol)
    return res.value


def energy(params: WaveParams) -> float:
    """Conserved energy (n + 1/2) hbar / (2 t_c) of the packet."""
    return 0.5 * (params.n + 0.5) * params.hbar / params.t_c


def schrodinger_residual(params: WaveParams, x: float, t: float,
                         h_x: float = 1e-4, h_t: float = 1e-4,
                         field=None) -> float:
    """|i hbar d(psi)/dt + (hbar**2 / 2m) d2(psi)/dx2| by central differences.

    Identically zero in exact arithmetic for the true field; the finite
    difference value decays as O(h**2). ``field`` may substitute another
    (params, x, t) -> complex callable, e.g. the phase-flipped control.
    """
    if h_x <= 0.0 or h_t <= 0.0:
        raise DomainError("step sizes must be positive")
    f = psi if field is None else field
    d_t = (f(params, x, t + h_t) - f(params, x, t - h_t)) / (2.0 * h_t)
    d_xx = (
        f(params, x + h_x, t) - 2.0 * f(params, x, t) + f(params, x - h_x, t)
    ) / (h_x * h_x)
    hb = params.hbar
    return abs(1j * hb * d_t + (hb * hb / (2.0 * params.m)) * d_xx)


def residual_convergence(params: WaveParams, x: float, t: float,
                         steps=(1e-2, 5e-3, 2.5e-3), field=None):
    """Residual at each step h paired with the ratio residual(h)/residual(h/2).

    Returns a list of (h, residual_h, ratio) rows. Ratios near 4 certify the
    second-order shrinkage of the discretization error, i.e. that the field
    really satisfies the evolution equation; a field that does not solve it
    converges to its true nonzero residual instead and the ratios collapse
    toward 1.
    """
    rows = []
    for h in steps:
        r_h = schrodinger_residual(params, x, t, h_x=h, h_t=h, field=field)
        r_half = schrodinger_residual(params, x, t, h_x=0.5 * h, h_t=0.5 * h,
                                      field=field)
        rows.append((h, r_h, r_h / r_half))
    return rows
