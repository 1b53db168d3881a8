"""Hot numeric kernels: array evaluation of Hermite recurrences and wavepacket
profiles.

Two interchangeable implementations live here. The default path compiles the
per-point loops with numba; the fallback is vectorized numpy. Selection is by
the env flag HERMITEWAVE_BACKEND (``numba`` or ``numpy``); unset picks numba
whenever it imports. Both paths run the same arithmetic and the test suite
holds them to 1e-14 of each other.

Stability note: profiles are built from the normalized Hermite-function
recurrence (envelope folded in at every step), which stays O(1) for any order,
instead of multiplying a huge raw polynomial by a tiny exponential.
"""

import math
import os

import numpy as np

from .errors import DomainError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dependency in CI
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


_PI_QRT_INV = math.pi ** -0.25  # pi^(-1/4), seed of the normalized recurrence

_ENV_FLAG = "HERMITEWAVE_BACKEND"


def backend() -> str:
    """Resolve the active backend name from the environment."""
    choice = os.environ.get(_ENV_FLAG, "").strip().lower()
    if choice == "":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise DomainError(f"{_ENV_FLAG}=numba requested but numba is not importable")
        return "numba"
    raise DomainError(f"{_ENV_FLAG} must be 'numba' or 'numpy', got {choice!r}")


_COEFF_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _fn_coeffs(n: int):
    """Recurrence coefficients sqrt(2/(k+1)), sqrt(k/(k+1)) for k < n."""
    cached = _COEFF_CACHE.get(n)
    if cached is None:
        ks = np.arange(n, dtype=np.float64)
        cached = (np.sqrt(2.0 / (ks + 1.0)), np.sqrt(ks / (ks + 1.0)))
        _COEFF_CACHE[n] = cached
    return cached


# ---------------------------------------------------------------------------
# numpy implementations


def _hermite_fn_numpy(xi, c1, c2):
    # phi_0 = pi^(-1/4) exp(-xi^2/2); phi_{k+1} = c1[k] xi phi_k - c2[k] phi_{k-1}
    fk = _PI_QRT_INV * np.exp(-0.5 * xi * xi)
    fkm1 = np.zeros_like(xi)
    for k in range(c1.shape[0]):
        fkm1, fk = fk, c1[k] * xi * fk - c2[k] * fkm1
    return fk


# ---------------------------------------------------------------------------
# numba implementations (same arithmetic, explicit loops)


@njit(cache=True, nogil=True)
def _hermite_fn_numba(xi, c1, c2):  # pragma: no cover - exercised via dispatch
    out = np.empty_like(xi)
    nstep = c1.shape[0]
    for i in range(xi.shape[0]):
        z = xi[i]
        fk = _PI_QRT_INV * math.exp(-0.5 * z * z)
        fkm1 = 0.0
        for k in range(nstep):
            fkm1, fk = fk, c1[k] * z * fk - c2[k] * fkm1
        out[i] = fk
    return out


# ---------------------------------------------------------------------------
# public profile kernels


def hermite_function_profile(n: int, xi) -> np.ndarray:
    """Normalized Hermite function phi_n(xi) = H_n(xi) e^{-xi^2/2} / sqrt(2^n n! sqrt(pi))."""
    xi = np.ascontiguousarray(xi, dtype=np.float64)
    c1, c2 = _fn_coeffs(n)
    if backend() == "numba":
        return _hermite_fn_numba(xi, c1, c2)
    return _hermite_fn_numpy(xi, c1, c2)


def density_profile(xs, n, t, t_c, m, hbar) -> np.ndarray:
    """Probability density sampled over xs at one time."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    denom = t_c * t_c + t * t
    alpha = m * t_c / (hbar * denom)
    root = math.sqrt(alpha)
    f = hermite_function_profile(n, root * xs)
    return root * f * f


def psi_profile(xs, n, t, t_c, m, hbar) -> np.ndarray:
    """Complex wavefunction sampled over xs at one time."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    denom = t_c * t_c + t * t
    alpha = m * t_c / (hbar * denom)
    f = hermite_function_profile(n, math.sqrt(alpha) * xs)
    phase = (m * t / (2.0 * hbar * denom)) * xs * xs - (n + 0.5) * math.atan(t / t_c)
    return (alpha ** 0.25) * f * np.exp(1j * phase)
