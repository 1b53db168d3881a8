"""Classical-path companion to the spreading wavepackets.

Free trajectories launched from the phase-space ellipse of the matching
oscillator state: x0 = sqrt(2E/(m omega**2)) cos(theta), p0 = sqrt(2mE)
sin(theta). Each path is a straight line, the family sweeps out a sheared
ellipse of invariant area, and its fold envelope (the caustic) traces the
same hyperbola as the outer density ridge of the order-2 packet.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .core_math import find_root, hermite_pair
from .errors import DomainError
from .wavefunction import WaveParams, energy

__all__ = [
    "PhasePoint",
    "PathFamily",
    "CausticPair",
    "CausticBranch",
    "initial_conditions",
    "path_family",
    "evolve_path",
    "phase_space_snapshot",
    "enclosed_area",
    "expected_area",
    "caustic",
    "caustic_branches",
    "peak_condition_residual",
    "find_peaks",
    "peak_hyperbola_n2",
]


@dataclass(frozen=True)
class PhasePoint:
    """One classical phase-space point, tagged by its launch angle."""

    x: float
    p: float
    theta: float


@dataclass(frozen=True)
class PathFamily:
    """A ring of initial conditions sharing one parameter set."""

    params: WaveParams
    thetas: Tuple[float, ...]
    points: Tuple[PhasePoint, ...]


class CausticPair(NamedTuple):
    x_plus: float
    x_minus: float


@dataclass(frozen=True)
class CausticBranch:
    """Samples (t, x) along one signed branch of the fold envelope."""

    sign: int
    samples: np.ndarray


def initial_conditions(params: WaveParams, theta: float) -> PhasePoint:
    """Launch point on the energy-E ellipse at angle theta."""
    e = energy(params)
    w = params.omega
    x0 = math.sqrt(2.0 * e / (params.m * w * w)) * math.cos(theta)
    p0 = math.sqrt(2.0 * params.m * e) * math.sin(theta)
    return PhasePoint(x=x0, p=p0, theta=theta)


def path_family(params: WaveParams, thetas: Sequence[float]) -> PathFamily:
    thetas = tuple(float(th) for th in thetas)
    if len(thetas) < 3:
        raise DomainError("need at least 3 launch angles")
    pts = tuple(initial_conditions(params, th) for th in thetas)
    return PathFamily(params=params, thetas=thetas, points=pts)


def evolve_path(point: PhasePoint, t: float, m: float) -> PhasePoint:
    """Free flight: x moves linearly, momentum is conserved.

    Broadcasts: ``t``, or the point's coordinates, may be numpy arrays.
    """
    if m <= 0.0:
        raise DomainError("mass must be positive")
    return PhasePoint(x=point.x + point.p * t / m, p=point.p, theta=point.theta)


def phase_space_snapshot(family: PathFamily, t: float) -> np.ndarray:
    """(N, 2) array of (x, p) rows at time t, ordered as the launch angles."""
    m = family.params.m
    out = np.empty((len(family.points), 2))
    for i, pt in enumerate(family.points):
        moved = evolve_path(pt, t, m)
        out[i, 0] = moved.x
        out[i, 1] = moved.p
    return out


def enclosed_area(vertices: np.ndarray) -> float:
    """Shoelace area of a closed polygon given as (N, 2) vertex rows.

    The closing edge from the last vertex back to the first is implicit.
    Exactly invariant under the shear (x, p) -> (x + p t / m, p), which is
    the discrete footprint of Liouville's theorem for this system.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise DomainError("vertices must be an (N >= 3, 2) array")
    x = v[:, 0]
    p = v[:, 1]
    cross = x * np.roll(p, -1) - np.roll(x, -1) * p
    return 0.5 * abs(math.fsum(cross.tolist()))


def expected_area(params: WaveParams) -> float:
    """Closed-form ellipse area 2 pi E t_c = pi (n + 1/2) hbar."""
    return 2.0 * math.pi * energy(params) * params.t_c


def caustic(params: WaveParams, t: float) -> CausticPair:
    """Fold envelope of the straight-line family at time t.

    max over theta of x(theta, t) is sqrt(2E/m) sqrt(t_c**2 + t**2); the
    envelope is the pair of hyperbola branches +-that value.
    """
    r = math.sqrt(2.0 * energy(params) / params.m) * math.hypot(params.t_c, t)
    return CausticPair(x_plus=r, x_minus=-r)


def caustic_branches(params: WaveParams, ts: Sequence[float]):
    """Both branches sampled along ``ts``; each holds (t, x) rows."""
    ts = np.asarray(ts, dtype=float)
    upper = np.empty((ts.size, 2))
    lower = np.empty((ts.size, 2))
    for i, t in enumerate(ts):
        pair = caustic(params, float(t))
        upper[i] = (t, pair.x_plus)
        lower[i] = (t, pair.x_minus)
    return (CausticBranch(sign=+1, samples=upper),
            CausticBranch(sign=-1, samples=lower))


def peak_condition_residual(params: WaveParams, x: float, t: float) -> float:
    """2n H_{n-1}(xi) - xi H_n(xi) at the scaled coordinate xi(x, t).

    The x-derivative of the density factorizes as
    -2 sqrt(alpha) H_n(xi) * (this expression) * exp(-xi**2) * const,
    so its zeros away from the nodes of H_n are exactly the density ridges.
    """
    alpha = params.m * params.t_c / (params.hbar * (params.t_c ** 2 + t ** 2))
    xi = math.sqrt(alpha) * x
    pair = hermite_pair(params.n, xi)
    return 2.0 * params.n * pair.h_nm1 - xi * pair.h_n


def find_peaks(params: WaveParams, t: float) -> np.ndarray:
    """All density maxima in x at time t, ascending.

    Scans the peak condition over |xi| <= sqrt(2n + 1) + 4 (the classically
    allowed region plus tail), refines each sign change by bisection/secant,
    then keeps only roots where the density curvature is negative. There are
    n + 1 of them.
    """
    n = params.n
    alpha = params.m * params.t_c / (params.hbar * (params.t_c ** 2 + t ** 2))
    sqrt_a = math.sqrt(alpha)
    xi_max = math.sqrt(2.0 * n + 1.0) + 4.0

    def g(xi):
        pair = hermite_pair(n, xi)
        return 2.0 * n * pair.h_nm1 - xi * pair.h_n

    grid = np.linspace(-xi_max, xi_max, 4096)
    vals = np.array([g(v) for v in grid])
    roots = []
    for i in range(grid.size - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(grid[i])
        elif (a > 0.0) != (b > 0.0):
            roots.append(find_root(g, grid[i], grid[i + 1], tol=1e-14))
    if vals[-1] == 0.0:
        roots.append(grid[-1])

    def dens(xi):
        h = hermite_pair(n, xi).h_n
        return h * h * math.exp(-xi * xi)

    kept = []
    step = 1e-4
    for xi0 in roots:
        curv = dens(xi0 + step) - 2.0 * dens(xi0) + dens(xi0 - step)
        if curv < 0.0:
            kept.append(xi0 / sqrt_a)
    return np.array(sorted(kept))


def peak_hyperbola_n2(params: WaveParams, t: float) -> CausticPair:
    """Closed form for the outer ridge pair of the order-2 packet.

    The outer maxima sit at xi = +-sqrt(5/2), i.e.
    x = +-sqrt(5 hbar / (2 m t_c)) sqrt(t_c**2 + t**2). Coincides with the
    classical caustic at energy E_2, which is the point of the comparison.
    """
    if params.n != 2:
        raise DomainError("closed form is specific to order n = 2")
    r = math.sqrt(5.0 * params.hbar / (2.0 * params.m * params.t_c)) * \
        math.hypot(params.t_c, t)
    return CausticPair(x_plus=r, x_minus=-r)
