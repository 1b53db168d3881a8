"""Every accepted order against 30-digit references, and the order limit."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitewave import _kernels
from hermitewave.errors import DomainError
from hermitewave.observables import closed_form_moments, numeric_moments
from hermitewave.wavefunction import (MAX_ORDER, WaveParams, density, psi,
                                      psi_dx, psi_initial)

_PI_QRT_INV = math.pi ** -0.25


def mp_reference(n, x, t, t_c, m, hbar):
    """(psi, d psi / dx, density) at 30 digits from the raw polynomial.

    H_n comes from its own recurrence in multiprecision, where it cannot
    overflow, and the derivative from H_n' = 2n H_{n-1}, so nothing is
    shared with the normalized recurrence under test.
    """
    with mp.workdps(30):
        x, t, t_c, m, hbar = map(mp.mpf, (x, t, t_c, m, hbar))
        spread = t_c * t_c + t * t
        alpha = m * t_c / (hbar * spread)
        xi = mp.sqrt(alpha) * x
        h_prev, h = mp.mpf(0), mp.mpf(1)
        for k in range(n):
            h_prev, h = h, 2 * xi * h - 2 * k * h_prev
        norm = (alpha ** mp.mpf(0.25) * mp.exp(-xi * xi / 2)
                / mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi)))
        chirp = m * t / (2 * hbar * spread)
        carrier = mp.expj(chirp * x * x - (n + mp.mpf(0.5)) * mp.atan(t / t_c))
        value = norm * h * carrier
        slope = norm * (mp.sqrt(alpha) * (2 * n * h_prev - xi * h)
                        + 2j * chirp * x * h) * carrier
        return complex(value), complex(slope), float(abs(value) ** 2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, MAX_ORDER), u=st.floats(-1.1, 1.1),
       t=st.floats(-3.0, 3.0), t_c=st.floats(0.5, 2.0), m=st.floats(0.25, 2.0),
       hbar=st.floats(0.5, 2.0))
def test_scalar_routes_match_mpmath(n, u, t, t_c, m, hbar):
    params = WaveParams(n=n, t_c=t_c, hbar=hbar, m=m)
    alpha = params.alpha(t)
    # u spans the packet out past its turning point |xi| = sqrt(2n + 1)
    x = u * (math.sqrt(2.0 * n + 1.0) + 3.0) / math.sqrt(alpha)
    ref_psi, ref_dx, ref_rho = mp_reference(n, x, t, t_c, m, hbar)
    unit = 1e-12 * _PI_QRT_INV * alpha ** 0.25
    chirp, _ = _kernels.phase_terms(n, t, t_c, m, hbar)
    slope_unit = unit * (math.sqrt(alpha * (2 * n + 2)) + 2.0 * abs(chirp * x))
    assert abs(psi(params, x, t) - ref_psi) <= unit
    assert abs(psi_dx(params, x, t) - ref_dx) <= slope_unit
    rho_unit = unit * _PI_QRT_INV * alpha ** 0.25
    assert abs(density(params, x, t) - ref_rho) <= rho_unit


def test_order_limit_is_refused():
    WaveParams(n=MAX_ORDER)
    with pytest.raises(DomainError, match="limit"):
        WaveParams(n=MAX_ORDER + 1)


@pytest.mark.parametrize("n, loss", [(MAX_ORDER, 1e-14), (1000, 0.3)])
def test_mass_at_and_past_the_order_limit(n, loss):
    # trapezoid sums converge exponentially here, the box [-60, 60] holds
    # the packet and the step 2**-7 is exact. Past the limit the seed
    # exp(-xi**2 / 2) underflows inside the packet and mass goes missing.
    dx = 2.0 ** -7
    xs = np.arange(-60 * 128, 60 * 128 + 1) * dx
    rho = _kernels.density_profile(xs, n, 0.0, 1.0, 0.5, 1.0)
    mass = rho.sum() * dx
    if n <= MAX_ORDER:
        assert abs(mass - 1.0) < loss
    else:
        assert 1.0 - mass > loss


@pytest.mark.parametrize("n", [170, 171, 200, MAX_ORDER])
def test_initial_profile_identity_past_factorial_overflow(n):
    params = WaveParams(n=n)
    xs = np.linspace(-45.0, 45.0, 181).tolist()
    gap = max(abs(psi(params, x, 0.0) - psi_initial(params, x)) for x in xs)
    assert gap < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, MAX_ORDER), log_t_c=st.floats(-6.0, 6.0),
       log_hbar=st.floats(-6.0, 6.0), log_m=st.floats(-6.0, 6.0),
       ratio=st.floats(-1e6, 1e6))
def test_numeric_moments_match_closed_forms(n, log_t_c, log_hbar, log_m,
                                            ratio):
    params = WaveParams(n=n, t_c=10.0 ** log_t_c, hbar=10.0 ** log_hbar,
                        m=10.0 ** log_m)
    t = ratio * params.t_c
    num = numeric_moments(params, t)
    ref = closed_form_moments(params, t)
    # odd moments relative to their spreads, even moments to themselves
    assert abs(num.mean_x) <= 1e-12 * math.sqrt(ref.mean_x2)
    assert abs(num.mean_p) <= 1e-12 * math.sqrt(ref.mean_p2)
    assert abs(num.mean_x2 - ref.mean_x2) <= 1e-12 * ref.mean_x2
    assert abs(num.mean_p2 - ref.mean_p2) <= 1e-12 * ref.mean_p2


def test_numeric_moments_at_order_120():
    params = WaveParams(n=120)
    for t in (0.0, 1.5):
        num = numeric_moments(params, t)
        ref = closed_form_moments(params, t)
        for key in ("mean_x", "mean_p", "mean_x2", "mean_p2"):
            assert abs(getattr(num, key) - getattr(ref, key)) < 1e-9, key
