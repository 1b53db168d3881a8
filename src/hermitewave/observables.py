"""Moments, uncertainty products, and the spreading law.

Every closed-form moment of the Hermite packet has a numeric twin built
from trapezoid sums on the sampled field, and the tests insist the two
routes agree. The damped-Airy rows are closed form only, with no numeric
twin. They are included for contrast: the Airy position spread grows with
the same (t_c + t**2/t_c) law. No code here follows the Airy lobe, and its
path is not the undamped parabola a t**2/2: at v = a = 1, m = 1/2, hbar = 1
an FFT propagation put the density maximum 0.30 from its start at t = 1 and
1.61 at t = 3, against 0.5 and 4.5 for the parabola.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError
from .wavefunction import WaveParams, _support_halfwidth, energy, psi_dx
# integrate, psi and density are not called here; they stay importable as
# ``observables.<name>`` because perfbench/tracing.py wraps those names.
from .core_math import integrate  # noqa: F401
from .wavefunction import density, psi  # noqa: F401

__all__ = [
    "MomentRow",
    "AiryParams",
    "numeric_moments",
    "closed_form_moments",
    "spreading_check",
    "airy_closed_forms",
    "table_report",
]


@dataclass(frozen=True)
class MomentRow:
    """First and second moments of x and p at one instant."""

    t: float
    mean_x: float
    mean_x2: float
    mean_p: float
    mean_p2: float
    var_x: float
    var_p: float
    uncertainty_product_sq: float


@dataclass(frozen=True)
class AiryParams:
    """Damped-Airy initial profile Ai(q(x - u)) exp(m v (x - u) / hbar).

    ``v`` sets the exponential tilt, ``a`` the self-acceleration of the
    ridge pattern, ``u`` translates the packet. The combination v/a plays
    the role of the coherence time. The Airy scale is
    q = (2 m**2 a / hbar**2)**(1/3), so that ``a`` is the ridge
    acceleration; ``airy_closed_forms`` assumes this relation.
    """

    v: float
    a: float
    u: float = 0.0

    def __post_init__(self):
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise DomainError(f"v must be positive and finite, got {self.v}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError(f"a must be positive and finite, got {self.a}")
        if not math.isfinite(self.u):
            raise DomainError(f"u must be finite, got {self.u}")

    @property
    def t_c(self) -> float:
        return self.v / self.a


def numeric_moments(params: WaveParams, t: float, tol: float = 1e-10) -> MomentRow:
    """Moments by trapezoid sums on one sampled grid.

    Position moments sum x**k |psi|**2. Momentum moments use the derivative
    forms <p> = hbar Int Im(conj(psi) psi') dx and
    <p**2> = hbar**2 Int |psi'|**2 dx. None of these integrands carries the
    packet's phase, so a grid that resolves the envelope in xi = sqrt(alpha) x
    serves every t; its size depends on n alone, and the sums converge
    geometrically on such smooth, decaying integrands (Trefethen & Weideman,
    SIAM Review 56, 2014). ``tol`` bounds |1 - sampled norm|; a larger
    defect, or a sum that is not finite, raises ConvergenceError.
    """
    lim = _support_halfwidth(params, t)
    nx = math.ceil((math.sqrt(2.0 * params.n + 1.0) + 10.0) ** 2) + 1
    xs = np.linspace(-lim, lim, nx)
    # linspace's own step would cost up to 1e-13 relative
    dx = 2.0 * lim / (nx - 1)
    field = _kernels.psi_profile(xs, params.n, t, params.t_c, params.m,
                                 params.hbar)
    slope = psi_dx(params, xs, t)

    def integral(values):
        # the trapezoid rule: the integrands vanish at +-lim, so its end
        # corrections are below rounding
        return dx * float(values.sum())

    # a sum that overflows is caught below, so numpy need not warn of it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rho = (field.conjugate() * field).real
        norm = integral(rho)
        mean_x = integral(xs * rho)
        mean_x2 = integral(xs * xs * rho)
        # hbar goes last, or a tiny hbar underflows <p**2> to 0
        hb = params.hbar
        mean_p = hb * integral((field.conjugate() * slope).imag)
        mean_p2 = hb * (hb * integral((slope.conjugate() * slope).real))
    sums = (norm, mean_x, mean_x2, mean_p, mean_p2)
    # both tests are written so that a NaN fails them
    if not all(math.isfinite(v) for v in sums):
        raise ConvergenceError(f"moment sums are not finite at t={t!r}")
    if not abs(norm - 1.0) <= tol:
        raise ConvergenceError(f"sampled norm {norm!r} at t={t!r} misses 1 "
                               f"by more than tol {tol!r}")

    var_x = mean_x2 - mean_x * mean_x
    var_p = mean_p2 - mean_p * mean_p
    return MomentRow(t=t, mean_x=mean_x, mean_x2=mean_x2, mean_p=mean_p,
                     mean_p2=mean_p2, var_x=var_x, var_p=var_p,
                     uncertainty_product_sq=var_x * var_p)


def closed_form_moments(params: WaveParams, t: float) -> MomentRow:
    """Exact moments.

    <x**2>(t) = (2n + 1) hbar (t_c**2 + t**2) / (2 m t_c) spreads with the
    envelope, <p**2> = (2n + 1) hbar m / (2 t_c) is conserved, and the odd
    moments vanish by parity.
    """
    n, t_c, hb, m = params.n, params.t_c, params.hbar, params.m
    half_levels = n + 0.5
    mean_x2 = half_levels * hb * (t_c ** 2 + t ** 2) / (m * t_c)
    mean_p2 = half_levels * hb * m / t_c
    return MomentRow(t=t, mean_x=0.0, mean_x2=mean_x2, mean_p=0.0,
                     mean_p2=mean_p2, var_x=mean_x2, var_p=mean_p2,
                     uncertainty_product_sq=mean_x2 * mean_p2)


def spreading_check(params: WaveParams, t: float, tol=None):
    """Both sides of (dx)**2(t) = (dx)**2(0) + (dp/m)**2 t**2.

    The right side is always assembled from the exact t = 0 quantities. With
    ``tol`` set, the left side comes from trapezoid sums on the sampled field
    (``numeric_moments``, whose sampled norm must lie within ``tol`` of 1);
    with tol=None both sides are closed form and the check is an identity.
    Returns (lhs, rhs).
    """
    base = closed_form_moments(params, 0.0)
    rhs = base.var_x + (base.var_p / params.m ** 2) * t * t
    if tol is None:
        lhs = closed_form_moments(params, t).var_x
    else:
        lhs = numeric_moments(params, t, tol=tol).var_x
    return lhs, rhs


def airy_closed_forms(airy: AiryParams, m: float, hbar: float,
                      t: float) -> MomentRow:
    """Exact moments of the damped-Airy profile under free evolution.

    The momentum distribution is a zero-mean Gaussian with
    <p**2> = hbar m / (2 t_c), so the packet mean never moves even though
    the ridge pattern accelerates. The position spread obeys
    (dx)**2 = (1/8)(hbar/(m v))**2 + (hbar/(2 m))(t_c + t**2/t_c).
    The reported uncertainty product is var_x * var_p, kept internally
    consistent with the other columns of the same row.
    """
    if m <= 0.0 or hbar <= 0.0:
        raise DomainError("m and hbar must be positive")
    t_c = airy.t_c
    mean_x = airy.u + airy.v ** 2 / (2.0 * airy.a) - hbar / (4.0 * m * airy.v)
    var_x = (0.125 * (hbar / (m * airy.v)) ** 2
             + 0.5 * (hbar / m) * (t_c + t * t / t_c))
    var_p = 0.5 * hbar * m / t_c
    return MomentRow(t=t, mean_x=mean_x, mean_x2=var_x + mean_x * mean_x,
                     mean_p=0.0, mean_p2=var_p, var_x=var_x, var_p=var_p,
                     uncertainty_product_sq=var_x * var_p)


def table_report(params_list, airy, times, tol=None):
    """Moment table for a list of packets plus one optional Airy profile.

    When ``tol`` is given every packet row is also computed numerically and
    the worst relative gap is tracked: |numeric - closed| over the
    closed-form scale, sqrt(<x**2>) for <x>, <x**2> for itself, and likewise
    for p. ``all_within_tolerance`` then reports whether it stayed within
    ``tol``; an impossible ``tol`` yields failure flags, and a NaN gap is
    kept as the worst. The Airy rows are closed form only. Returns a
    JSON-ready dict.
    """
    report = {"packets": [], "heisenberg_ok": True,
              "all_within_tolerance": None}
    gaps = []
    for params in params_list:
        entry = {
            "n": params.n,
            "t_c": params.t_c,
            "hbar": params.hbar,
            "m": params.m,
            "energy": energy(params),
            "rows": [],
        }
        for t in times:
            closed = closed_form_moments(params, float(t))
            row = asdict(closed)
            if closed.uncertainty_product_sq < 0.25 * params.hbar ** 2 - 1e-12:
                report["heisenberg_ok"] = False
            if tol is not None:
                numeric = numeric_moments(params, float(t))
                for key, sq in (("mean_x", "mean_x2"), ("mean_p", "mean_p2")):
                    scale = getattr(closed, sq)
                    gaps += [(getattr(numeric, key) - getattr(closed, key),
                              math.sqrt(scale)),
                             (getattr(numeric, sq) - scale, scale)]
                row["numeric_mean_x2"] = numeric.mean_x2
                row["numeric_mean_p2"] = numeric.mean_p2
            entry["rows"].append(row)
        report["packets"].append(entry)
    if airy is not None:
        if params_list:
            a_m, a_hb = params_list[0].m, params_list[0].hbar
        else:
            a_m, a_hb = 0.5, 1.0
        a_entry = {"v": airy.v, "a": airy.a, "u": airy.u, "t_c": airy.t_c,
                   "rows": []}
        for t in times:
            row = airy_closed_forms(airy, a_m, a_hb, float(t))
            if row.uncertainty_product_sq < 0.25 * a_hb ** 2 - 1e-12:
                report["heisenberg_ok"] = False
            a_entry["rows"].append(asdict(row))
        report["airy"] = a_entry
    if tol is not None:
        # a closed form that underflowed to 0 gives an inf or NaN gap, which
        # fails the tolerance; np.max keeps a NaN, where max() would drop it
        gap, scale = np.reshape(gaps, (-1, 2)).T
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            worst = float(np.max(np.abs(gap) / scale, initial=0.0))
        report["worst_numeric_gap"] = worst
        report["all_within_tolerance"] = bool(worst <= tol)
    return report
