"""Spreading Hermite wavepackets of a free particle.

A family of exact free-particle solutions indexed by an integer order ``n``
and a coherence time ``t_c``. At t = 0 each member coincides with a harmonic
oscillator eigenfunction of frequency 1/t_c; for t != 0 the envelope spreads
as sqrt(t_c**2 + t**2) while staying node-for-node self-similar.

Two independent evaluation routes are kept deliberately separate: ``psi`` is
the time-dependent closed form, ``psi_initial`` re-builds the t = 0 profile
from oscillator quantities. Tests compare them rather than deriving one from
the other.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core_math import hermite_pair, integrate, log_norm_constant
from .errors import DomainError

__all__ = [
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


@dataclass(frozen=True)
class WaveParams:
    """Parameters of one wavepacket: order, coherence time, units."""

    n: int
    t_c: float = 1.0
    hbar: float = 1.0
    m: float = 0.5

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise DomainError(f"order must be a non-negative integer, got {self.n}")
        if not (self.t_c > 0.0 and math.isfinite(self.t_c)):
            raise DomainError(f"t_c must be positive and finite, got {self.t_c}")
        if not all(v > 0.0 and math.isfinite(v) for v in (self.hbar, self.m)):
            raise DomainError("hbar and m must be positive and finite")

    @property
    def omega(self) -> float:
        """Frequency of the t = 0 oscillator profile."""
        return 1.0 / self.t_c


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


def _spread_denominator(params: WaveParams, t: float) -> float:
    return params.t_c ** 2 + t ** 2


def _inverse_width_sq(params: WaveParams, t: float) -> float:
    """alpha(t) = m t_c / (hbar (t_c**2 + t**2)); envelope is exp(-alpha x**2 / 2)."""
    return params.m * params.t_c / (params.hbar * _spread_denominator(params, t))


def psi(params: WaveParams, x: float, t: float) -> complex:
    """Scalar closed-form wavefunction at (x, t).

    Prefactor assembled in the log domain so large orders stay finite; the
    Hermite factor uses the raw upward recurrence.
    """
    if not (math.isfinite(x) and math.isfinite(t)):
        raise DomainError("x and t must be finite")
    alpha = _inverse_width_sq(params, t)
    xi = math.sqrt(alpha) * x
    denom = _spread_denominator(params, t)
    log_env = (
        log_norm_constant(params)
        - 0.25 * math.log1p((t / params.t_c) ** 2)
        - 0.5 * alpha * x * x
    )
    phase = (
        params.m * x * x * t / (2.0 * params.hbar * denom)
        - (params.n + 0.5) * math.atan2(t, params.t_c)
    )
    h = hermite_pair(params.n, xi).h_n
    return h * math.exp(log_env) * cmath.exp(1j * phase)


def psi_initial(params: WaveParams, x: float) -> complex:
    """Oscillator-eigenfunction route to the t = 0 profile.

    Built from omega alone: (m omega / (pi hbar))**(1/4) / sqrt(2**n n!)
    times exp(-m omega x**2 / (2 hbar)) H_n(sqrt(m omega / hbar) x).
    """
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    w = params.omega
    scale = params.m * w / params.hbar
    y = math.sqrt(scale) * x
    norm = (scale / math.pi) ** 0.25 / math.sqrt(
        2.0 ** params.n * math.factorial(params.n))
    return complex(norm * math.exp(-0.5 * y * y) * hermite_pair(params.n, y).h_n)


def psi_dx(params: WaveParams, x: float, t: float) -> complex:
    """Analytic d(psi)/dx at (x, t)."""
    alpha = _inverse_width_sq(params, t)
    denom = _spread_denominator(params, t)
    sqrt_a = math.sqrt(alpha)
    xi = sqrt_a * x
    pair = hermite_pair(params.n, xi)
    big_a = params.m * t / (2.0 * params.hbar * denom)
    log_env = (
        log_norm_constant(params)
        - 0.25 * math.log1p((t / params.t_c) ** 2)
        - 0.5 * alpha * x * x
    )
    carrier = math.exp(log_env) * cmath.exp(
        1j * (big_a * x * x - (params.n + 0.5) * math.atan2(t, params.t_c)))
    return carrier * (
        (2j * big_a - alpha) * x * pair.h_n
        + 2.0 * params.n * sqrt_a * pair.h_nm1
    )


def psi_phase_flipped(params: WaveParams, x: float, t: float) -> complex:
    """Deliberately wrong field: quadratic phase sign inverted.

    Negative control. It has the correct density for every (x, t) yet fails
    the evolution equation by an O(1) margin, which is what the residual
    diagnostics are meant to catch.
    """
    value = psi(params, x, t)
    alpha = _inverse_width_sq(params, t)
    denom = _spread_denominator(params, t)
    big_a = params.m * t / (2.0 * params.hbar * denom)
    return value * cmath.exp(-2j * big_a * x * x)


def density(params: WaveParams, x: float, t: float) -> float:
    """|psi|**2 with the phases cancelled analytically (no complex arithmetic)."""
    alpha = _inverse_width_sq(params, t)
    xi = math.sqrt(alpha) * x
    h = hermite_pair(params.n, xi).h_n
    log_env = (
        2.0 * log_norm_constant(params)
        - 0.5 * math.log1p((t / params.t_c) ** 2)
        - alpha * x * x
    )
    return h * h * math.exp(log_env)


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
    alpha = _inverse_width_sq(params, t)
    return (math.sqrt(2.0 * params.n + 1.0) + 10.0) / math.sqrt(alpha)


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
