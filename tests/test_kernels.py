import math

import numpy as np
import pytest

from hermitewave import _kernels
from hermitewave.wavefunction import WaveParams, density, psi, psi_dx


def test_backend_selection():
    assert _kernels.backend() == "numpy"


def _as_input(xi, kind):
    """The same points as one float64 array or as a list of floats."""
    return [xi] if kind == "numpy" else [float(v) for v in xi]


@pytest.mark.parametrize("kind", ["numpy", "scalar"])
def test_hermite_function_profile(kind):
    rng = np.random.default_rng(31337)
    xi = rng.uniform(-6, 6, size=400)
    for n in (0, 1, 2, 5, 17, 30):
        got = np.hstack([_kernels.hermite_function_pair(n, v)[0]
                         for v in _as_input(xi, kind)])
        # reference: raw polynomial times log-domain normalization
        log_c = -0.5 * (math.lgamma(n + 1) + n * math.log(2.0)
                        + 0.5 * math.log(math.pi))
        ref = np.array([
            np.polynomial.hermite.hermval(v, [0.0] * n + [1.0])
            * math.exp(log_c - 0.5 * v * v) for v in xi])
        assert np.abs(got - ref).max() < 1e-10


@pytest.mark.parametrize("kind", ["numpy", "scalar"])
def test_hermite_function_high_order_stays_finite(kind):
    xi = np.linspace(-40, 40, 2001)
    vals = np.hstack([_kernels.hermite_function_pair(500, v)[0]
                      for v in _as_input(xi, kind)])
    assert np.all(np.isfinite(vals))
    # normalized functions are uniformly bounded by the ground state peak
    assert np.abs(vals).max() <= math.pi ** -0.25 + 1e-9


def test_scalar_and_array_recurrence_agree():
    xi = np.linspace(-30.0, 30.0, 601)
    for n in (0, 1, 7, 120, 650):
        arr = np.array(_kernels.hermite_function_pair(n, xi))
        # only the seed differs: math.exp for a float, np.exp for an array
        scalar = np.array([_kernels.hermite_function_pair(n, v)
                           for v in xi.tolist()]).T
        assert np.abs(scalar - arr).max() < 1e-14


def test_profiles_match_scalar_routes():
    rng = np.random.default_rng(2718)
    xs = np.linspace(-7, 7, 301)
    for _ in range(6):
        n = int(rng.integers(0, 6))
        t = float(rng.uniform(-3, 3))
        t_c = float(rng.uniform(0.5, 2.0))
        p = WaveParams(n=n, t_c=t_c)
        prof = _kernels.psi_profile(xs, n, t, t_c, p.m, p.hbar)
        dens = _kernels.density_profile(xs, n, t, t_c, p.m, p.hbar)
        ref = np.array([psi(p, float(x), t) for x in xs])
        refd = np.array([density(p, float(x), t) for x in xs])
        refdx = np.array([psi_dx(p, float(x), t) for x in xs])
        assert np.abs(prof - ref).max() < 1e-12
        assert np.abs(dens - refd).max() < 1e-13
        assert np.abs(psi_dx(p, xs, t) - refdx).max() < 1e-12


@pytest.mark.parametrize("nx", [257, 256])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 120, 650])
def test_density_is_bitwise_even_on_a_symmetric_grid(n, nx):
    # H_n(-xi) = (-1)^n H_n(xi) and every step of the recurrence is exact
    # under a sign flip, so |psi|^2 reads the same backwards, bit for bit;
    # the artifact writer formats only half of such a slice
    t_c, m, hbar = 1.7, 0.3, 1.9
    for t in (-2.3, 0.0, 0.8):
        alpha = _kernels.alpha(t, t_c, m, hbar)
        half = 1.25 * math.sqrt((2 * n + 1) / alpha) + 2.0
        xs = np.linspace(-half, half, nx)
        xs = 0.5 * (xs - xs[::-1])  # exactly antisymmetric
        assert np.array_equal(xs, -xs[::-1])
        dens = _kernels.density_profile(xs, n, t, t_c, m, hbar)
        assert dens.max() > 0.0
        bits = dens.view(np.uint64)
        assert np.array_equal(bits, bits[::-1])


def test_alpha_squares_by_multiplication():
    # t**2 rounds differently from t*t for this t; every route squares as
    # the array kernels always have, through the one helper
    t = 1.3975151634782197
    assert t ** 2 != t * t
    expect = 0.5 * 1.0 / (1.0 * (1.0 * 1.0 + t * t))
    assert _kernels.alpha(t, 1.0, 0.5, 1.0) == expect
    assert WaveParams(n=3).alpha(t) == expect


def test_coefficient_cache_reuse():
    a1 = _kernels._fn_coeffs(12)
    a2 = _kernels._fn_coeffs(12)
    assert a1[0] is a2[0] and a1[1] is a2[1]
