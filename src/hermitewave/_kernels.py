"""The one evaluation core: the normalized Hermite-function recurrence, the
packet's scale alpha(t) and its phase.

Every packet route goes through ``hermite_function_pair``: the array profiles
here, the scalar closed forms in ``wavefunction`` and the ridge scan in
``semiclassics``. The recurrence carries phi_k(xi) = H_k(xi) e^{-xi^2/2} /
sqrt(2^k k! sqrt(pi)) with the envelope folded in at every step, so it stays
O(1) for any order instead of multiplying a huge raw polynomial by a tiny
exponential (Bunck, BIT 49, 2009). Its coefficients are Python floats, so
the same loop runs on a float or on a float64 array; only the seed ``exp``
differs.

Order limit: the seed pi^(-1/4) exp(-xi^2/2) underflows for |xi| > 38.6,
while the packet reaches out to its turning point |xi| = sqrt(2n + 1). On a
resolved grid the density integrates to 1 within 1e-14 up to n = 680 but
loses 4e-10 of its mass at n = 700 and 0.34 at n = 1000, so ``WaveParams``
refuses orders above ``MAX_ORDER``.
"""

import functools
import math

import numpy as np

MAX_ORDER = 650

_PI_QRT_INV = math.pi ** -0.25  # pi^(-1/4), seed of the normalized recurrence


def backend() -> str:
    """Name of the array backend; vectorized numpy is the only one."""
    return "numpy"


def alpha(t, t_c, m, hbar) -> float:
    """alpha(t) = m t_c / (hbar (t_c^2 + t^2)); the envelope is
    exp(-alpha x^2 / 2) and the scaled coordinate xi = sqrt(alpha) x."""
    return m * t_c / (hbar * (t_c * t_c + t * t))


def phase_terms(n, t, t_c, m, hbar):
    """(chirp, gouy): the packet's phase is chirp x^2 - gouy."""
    chirp = m * t / (2.0 * hbar * (t_c * t_c + t * t))
    return chirp, (n + 0.5) * math.atan(t / t_c)


@functools.lru_cache(maxsize=None)
def _fn_coeffs(n: int):
    """Recurrence coefficients sqrt(2/(k+1)), sqrt(k/(k+1)) for k < n."""
    return (tuple(math.sqrt(2.0 / (k + 1.0)) for k in range(n)),
            tuple(math.sqrt(k / (k + 1.0)) for k in range(n)))


def hermite_function_pair(n: int, xi):
    """(phi_n(xi), phi_{n-1}(xi)) for a float or a float64 array ``xi``.

    phi_0 = pi^(-1/4) exp(-xi^2/2), phi_{-1} = 0 and
    phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1}.
    """
    exp = np.exp if isinstance(xi, np.ndarray) else math.exp
    fk = _PI_QRT_INV * exp(-0.5 * xi * xi)
    fkm1 = 0.0 * fk
    c1, c2 = _fn_coeffs(n)
    for a, b in zip(c1, c2):
        fkm1, fk = fk, a * xi * fk - b * fkm1
    return fk, fkm1


def density_profile(xs, n, t, t_c, m, hbar) -> np.ndarray:
    """Probability density sampled over xs at one time."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    root = math.sqrt(alpha(t, t_c, m, hbar))
    with np.errstate(over="ignore"):  # phi_n is 0 far before the clamp
        xi = np.clip(root * xs, -1e150, 1e150)  # so xi * xi stays finite
    f, _ = hermite_function_pair(n, xi)
    return root * f * f


def psi_profile(xs, n, t, t_c, m, hbar) -> np.ndarray:
    """Complex wavefunction sampled over xs at one time."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    scale = alpha(t, t_c, m, hbar)
    f, _ = hermite_function_pair(n, math.sqrt(scale) * xs)
    chirp, gouy = phase_terms(n, t, t_c, m, hbar)
    return (scale ** 0.25) * f * np.exp(1j * (chirp * xs * xs - gouy))
