"""Classical-path companion to the spreading wavepackets.

Free trajectories launched from the phase-space ellipse of the matching
oscillator state: x0 = sqrt(2E/(m omega**2)) cos(theta), p0 = sqrt(2mE)
sin(theta). Each path is a straight line, the family sweeps out a sheared
ellipse of invariant area, and its fold envelope (the caustic) traces the
same hyperbola as the outer density ridge of the order-2 packet.

``path_family`` holds the launch points as one ring, a ``PhasePoint`` of
float64 arrays with one entry per angle; ``evolve_path`` moves it to a time,
or to a (time, angle) grid, rounding each element as for scalars. The
``paths`` and ``phasespace`` commands write that ring.

The density ridges are fixed in xi = sqrt(alpha(t)) x: ``xi_ridges`` solves
them once per order, and each time slice divides them by sqrt(alpha(t)), so
a ridge moves as x_k(t) = xi_k / sqrt(alpha(t)). ``find_peaks`` does both
for one slice; the ``peaks`` command solves once and scales every slice.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from . import _kernels
# hermite_pair is not called here; it stays importable as
# ``semiclassics.hermite_pair`` because perfbench/tracing.py wraps that name.
from .core_math import find_root, hermite_pair  # noqa: F401
from .errors import ConvergenceError, DomainError
from .wavefunction import WaveParams, energy

__all__ = [
    "PhasePoint",
    "PathFamily",
    "CausticPair",
    "shell_axes",
    "initial_conditions",
    "path_family",
    "evolve_path",
    "phase_space_snapshot",
    "enclosed_area",
    "expected_area",
    "caustic",
    "xi_ridges",
    "find_peaks",
    "peak_hyperbola_n2",
]


@dataclass(frozen=True)
class PhasePoint:
    """A phase-space point tagged by its launch angle; arrays make a ring."""

    x: float
    p: float
    theta: float


@dataclass(frozen=True)
class PathFamily:
    """A ring of initial conditions sharing one parameter set: ``ring``'s
    arrays hold, per launch angle in the order given, exactly what
    ``initial_conditions`` gives at that angle."""

    params: WaveParams
    ring: PhasePoint


class CausticPair(NamedTuple):
    x_plus: float
    x_minus: float


def shell_axes(params: WaveParams) -> Tuple[float, float]:
    """Semi-axes sqrt(2E / (m w**2)) and sqrt(2 m E) of the energy-E
    ellipse; DomainError unless both are positive finite numbers."""
    e, w = energy(params), params.omega
    try:
        axes = (math.sqrt(2.0 * e / (params.m * w * w)),
                math.sqrt(2.0 * params.m * e))
    except ZeroDivisionError:  # m w**2 underflowed to 0
        axes = (math.inf, math.inf)
    if not all(0.0 < a < math.inf for a in axes):
        raise DomainError(f"energy-shell semi-axes {axes} are not both "
                          f"positive finite numbers")
    return axes


def initial_conditions(params: WaveParams, theta: float) -> PhasePoint:
    """Launch point on the energy-E ellipse at angle theta."""
    x_axis, p_axis = shell_axes(params)
    return PhasePoint(x=x_axis * math.cos(theta), p=p_axis * math.sin(theta),
                      theta=theta)


def path_family(params: WaveParams, thetas: Sequence[float]) -> PathFamily:
    thetas = [float(th) for th in thetas]
    if len(thetas) < 3:
        raise DomainError("need at least 3 launch angles")
    # one shell for the ring; per angle the same scalar products as
    # initial_conditions, so each launch point keeps its bits
    x_axis, p_axis = shell_axes(params)
    ring = PhasePoint(x=np.array([x_axis * math.cos(th) for th in thetas]),
                      p=np.array([p_axis * math.sin(th) for th in thetas]),
                      theta=np.array(thetas))
    return PathFamily(params=params, ring=ring)


def evolve_path(point: PhasePoint, t: float, m: float) -> PhasePoint:
    """Free flight: x moves linearly, momentum is conserved.

    Broadcasts: ``t``, or the point's coordinates, may be numpy arrays.
    """
    if m <= 0.0:
        raise DomainError("mass must be positive")
    return PhasePoint(x=point.x + point.p * t / m, p=point.p, theta=point.theta)


def phase_space_snapshot(family: PathFamily, t: float) -> np.ndarray:
    """(N, 2) array of (x, p) rows at time t, ordered as the launch angles."""
    moved = evolve_path(family.ring, t, family.params.m)
    return np.column_stack((moved.x, moved.p))


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


def xi_ridges(n: int) -> np.ndarray:
    """All n + 1 density maxima of the order-n packet in xi, ascending.

    The density is a function of xi = sqrt(alpha(t)) x alone, so these
    roots hold at every t. With phi_n the normalized Hermite function,
    rho'(xi) is proportional to phi_n(xi) g(xi), where g = phi_n' =
    sqrt(2n) phi_{n-1} - xi phi_n stays O(1) at every order. The zeros of
    g interlace with those of phi_n, where rho vanishes, so every root of
    g is a maximum and there is no curvature test to make. Scans g over
    |xi| <= min(sqrt(2n + 1) + 4, 38) (the classically allowed region plus
    tail) and polishes each sign change with Brent's method. The cut at 38
    keeps the scan where the seed exp(-xi^2/2) is nonzero: beyond 38.6 it
    underflows and g is exactly 0, which must not read as a root, while a
    true zero of g on a grid point counts once. Raises ConvergenceError
    unless the scan finds exactly n + 1 roots.
    """
    xi_max = min(math.sqrt(2.0 * n + 1.0) + 4.0, 38.0)
    root_2n = math.sqrt(2.0 * n)

    def g(xi):
        phi, phi_prev = _kernels.hermite_function_pair(n, xi)
        return root_2n * phi_prev - xi * phi

    # Python floats: the recurrence keeps its argument's type
    grid = np.linspace(-xi_max, xi_max, 4096).tolist()
    vals = [g(v) for v in grid]
    roots = []
    for i in range(len(grid) - 1):
        # a zero on the grid is a root once, not also a bracket end
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(grid[i])
        elif b != 0.0 and (a > 0.0) != (b > 0.0):
            roots.append(find_root(g, grid[i], grid[i + 1], tol=1e-14))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    if len(roots) != n + 1:
        raise ConvergenceError(
            f"ridge scan for n = {n} found {len(roots)} ridges, not "
            f"{n + 1}")
    return np.array(roots)


def find_peaks(params: WaveParams, t: float) -> np.ndarray:
    """All n + 1 density maxima in x at time t, ascending: ``xi_ridges``
    scaled to the slice, x_k(t) = xi_k / sqrt(alpha(t)). A caller with
    many slices of one order solves ``xi_ridges`` once and scales it the
    same way, which gives the same bits."""
    return xi_ridges(params.n) / math.sqrt(params.alpha(t))


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
