"""Scalar numerical building blocks.

Hermite polynomial pairs by upward recurrence on Python floats, an adaptive
Gauss-Kronrod quadrature, and a bracketed root finder by Brent's method.
Everything here is pure and reentrant.
"""

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ConvergenceError, DomainError

_EPS = sys.float_info.epsilon

__all__ = [
    "HermitePair",
    "QuadratureResult",
    "hermite_pair",
    "integrate",
    "find_root",
]


@dataclass(frozen=True)
class HermitePair:
    """Values H_n(y) and H_{n-1}(y) of the physicists' Hermite polynomials."""

    h_n: float
    h_nm1: float
    n: int
    y: float


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


# 2k for k = 0, 1, ...: the recurrence's second coefficient as Python
# floats. The tuple only ever grows, by replacement, so readers never see
# it change under them.
_TWO_K = ()


def hermite_pair(n: int, y: float) -> HermitePair:
    """Evaluate (H_n(y), H_{n-1}(y)) by upward recurrence.

    H_0 = 1, H_1 = 2y, H_{k+1} = 2y H_k - 2k H_{k-1}. For n = 0 the h_nm1
    slot is reported as 0 so the derivative identity H_n' = 2n H_{n-1}
    degenerates gracefully.

    The loop runs on Python floats whatever the type of ``y``, with 2y
    formed once and 2k read from a cached tuple. The products are the
    same IEEE operations as in ``2.0 * y * h_k - 2.0 * k * h_km1``, so the
    values are bit for bit those of that loop, inf and nan included; an
    overflow gives inf without a numpy warning.
    """
    global _TWO_K
    if n < 0 or n != int(n):
        raise DomainError(f"order must be a non-negative integer, got {n}")
    if not math.isfinite(y):
        raise DomainError(f"argument must be finite, got {y}")
    n = int(n)
    if len(_TWO_K) < n:
        _TWO_K = tuple(2.0 * k for k in range(2 * n))
    two_y = 2.0 * float(y)
    hn, hnm1 = 1.0, 0.0
    for two_k in _TWO_K[:n]:
        hnm1, hn = hn, two_y * hn - two_k * hnm1
    return HermitePair(h_n=hn, h_nm1=hnm1, n=n, y=y)


# ---------------------------------------------------------------------------
# adaptive quadrature: 7-point Gauss / 15-point Kronrod panels with greedy
# bisection of the worst panel. Node/weight constants are the published
# values; the test suite pins them down via weight sums and polynomial
# exactness through degree 22.

_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _gk_panel(f, lo, hi):
    """One Gauss-Kronrod pass over [lo, hi]: (integral, error estimate, evals)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(center)
    acc_k = _WGK[7] * fc
    acc_g = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        f_lo = f(center - dx)
        f_hi = f(center + dx)
        acc_k += _WGK[j] * (f_lo + f_hi)
        if j % 2 == 1:  # odd slots are the embedded Gauss-7 nodes
            acc_g += _WG[j // 2] * (f_lo + f_hi)
    return half * acc_k, abs(half * (acc_k - acc_g)), 15


def integrate(f, lo: float, hi: float, tol: float = 1e-10,
              max_evals: int = 200_000) -> QuadratureResult:
    """Adaptively integrate ``f`` over [lo, hi] to absolute tolerance ``tol``.

    Parameters
    ----------
    f : callable
        Real-valued integrand of one real variable.
    lo, hi : float
        Finite integration bounds with lo < hi.
    tol : float
        Target on the summed panel error estimates.
    max_evals : int
        Evaluation budget; exceeding it raises ConvergenceError whose
        ``best`` attribute carries the best estimate reached.

    Returns
    -------
    QuadratureResult
        value, abs_error_estimate (<= tol on success), evaluations.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"need finite lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    edges = np.linspace(lo, hi, 9)
    heap = []
    evals = 0
    seq = 0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e, ne = _gk_panel(f, a, b)
        heapq.heappush(heap, (-e, seq, a, b, v, e))
        seq += 1
        evals += ne

    def _totals():
        value = math.fsum(item[4] for item in heap)
        err = math.fsum(item[5] for item in heap)
        return value, err

    min_width = 64.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    while True:
        value, err = _totals()
        if err <= tol:
            return QuadratureResult(value=value, abs_error_estimate=err,
                                    evaluations=evals)
        _, _, a, b, v, e = heap[0]
        if evals + 30 > max_evals or (b - a) <= min_width:
            best = QuadratureResult(value=value, abs_error_estimate=err,
                                    evaluations=evals)
            raise ConvergenceError(
                f"quadrature stalled at error {err:.3e} after {evals} "
                f"evaluations (tol {tol:.3e})", best=best)
        heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for a2, b2 in ((a, mid), (mid, b)):
            v2, e2, ne = _gk_panel(f, a2, b2)
            heapq.heappush(heap, (-e2, seq, a2, b2, v2, e2))
            seq += 1
            evals += ne


def find_root(f, lo: float, hi: float, tol: float = 1e-12,
              max_iter: int = 200) -> float:
    """Locate a root of ``f`` inside a sign-changing bracket [lo, hi].

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps
    while they shrink the bracket fast enough, bisection otherwise, so
    convergence is superlinear on smooth roots and never slower than
    bisection. Terminates when the bracket is narrower than
    ``tol + 4 eps |x|`` (``tol`` absolute in x), on an exact zero, or after
    ``max_iter`` evaluations past the endpoints. Returns the best estimate:
    on convergence, the bracket end with the smaller ``|f|``.
    """
    fa = f(lo)
    if fa == 0.0:
        return lo
    fb = f(hi)
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise BracketingError(
            f"f({lo}) = {fa} and f({hi}) = {fb} do not bracket a sign change")
    # b is the best estimate, c keeps the sign change with b, a is the
    # previous b; d is the last step and e the one before it
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
        if fb == 0.0:
            return b
    return b
