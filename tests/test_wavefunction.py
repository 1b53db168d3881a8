import cmath
import math

import numpy as np
import pytest

from hermitewave.errors import DomainError
from hermitewave.wavefunction import (ComplexField, GridSpec, RealField,
                                      WaveParams, density, density_grid,
                                      energy, psi, psi_dx, psi_initial,
                                      psi_phase_flipped, residual_convergence,
                                      sample_field, schrodinger_residual,
                                      total_probability)


def test_wave_params_validation():
    with pytest.raises(DomainError):
        WaveParams(n=-1)
    with pytest.raises(DomainError):
        WaveParams(n=0, t_c=0.0)
    with pytest.raises(DomainError):
        WaveParams(n=0, t_c=-1.0)
    with pytest.raises(DomainError):
        WaveParams(n=0, hbar=0.0)
    with pytest.raises(DomainError):
        WaveParams(n=0, m=-0.5)


def test_omega_is_inverse_coherence_time():
    assert WaveParams(n=0, t_c=2.0).omega == 0.5
    assert WaveParams(n=3, t_c=0.25).omega == 4.0


def test_grid_spec_basics():
    g = GridSpec(x_min=-2.0, x_max=2.0, nx=5)
    assert g.dx == 1.0
    assert np.allclose(g.xs(), [-2, -1, 0, 1, 2])
    with pytest.raises(DomainError):
        g.ts()  # no time axis configured

    gt = GridSpec(x_min=0.0, x_max=1.0, nx=2, t_min=0.0, t_max=2.0, nt=3)
    assert np.allclose(gt.ts(), [0, 1, 2])
    single = GridSpec(x_min=0.0, x_max=1.0, nx=2, t_min=0.5, t_max=0.5, nt=1)
    assert np.allclose(single.ts(), [0.5])


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(x_min=1.0, x_max=0.0, nx=4)
    with pytest.raises(DomainError):
        GridSpec(x_min=0.0, x_max=1.0, nx=1)
    with pytest.raises(DomainError):
        GridSpec(x_min=0.0, x_max=1.0, nx=4, t_min=0.0)
    with pytest.raises(DomainError):
        GridSpec(x_min=0.0, x_max=1.0, nx=4, t_min=1.0, t_max=0.0, nt=3)


def test_psi_frozen_values():
    # ground state at the origin: (m/(hbar t_c pi))**(1/4)
    got = psi(WaveParams(n=0), 0.0, 0.0)
    assert got.real == pytest.approx(0.6316187777460647, abs=1e-14)
    assert got.imag == 0.0
    # order 2 at x=sqrt(2): H_2 argument hits a node of neither factor
    got2 = psi_initial(WaveParams(n=2), math.sqrt(2.0))
    assert got2.real == pytest.approx(0.2708898883067991, abs=1e-13)
    # H_2(sqrt(0.5)) = 0 makes x=1 a node at t=0 for defaults
    assert abs(psi(WaveParams(n=2), 1.0, 0.0)) < 1e-15


def test_initial_profile_identity():
    rng = np.random.default_rng(77)
    for _ in range(150):
        n = int(rng.integers(0, 7))
        t_c = float(rng.choice([0.5, 1.0, 2.0]))
        x = float(rng.uniform(-6, 6))
        p = WaveParams(n=n, t_c=t_c)
        assert abs(psi(p, x, 0.0) - psi_initial(p, x)) < 1e-12


def test_density_equals_abs_square():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(0, 6))
        p = WaveParams(n=n, t_c=float(rng.uniform(0.5, 2.0)))
        x = float(rng.uniform(-5, 5))
        t = float(rng.uniform(-3, 3))
        assert density(p, x, t) == pytest.approx(
            abs(psi(p, x, t)) ** 2, rel=1e-12, abs=1e-300)


def test_density_frozen_value():
    assert density(WaveParams(n=2), 0.0, 0.0) == pytest.approx(
        0.19947114020071638, abs=1e-15)


def test_total_probability_is_one():
    for n in (0, 3):
        for t in (0.0, 1.5, -4.0):
            p = WaveParams(n=n)
            assert abs(total_probability(p, t) - 1.0) < 1e-9


@pytest.mark.parametrize("n, m, t", [
    (31, 1e100, 0.0), (2, 1e300, 0.0), (50, 1e200, 3.0), (31, 5.4e276, 0.0),
    (31, 1e10, 0.0)])
def test_total_probability_of_a_packet_far_narrower_than_one(n, m, t):
    # the support is ~sqrt(hbar t_c / m) wide, 1e-49 at m = 1e100, so the
    # quadrature's smallest panel must scale with the interval, not with 1
    p = WaveParams(n=n, m=m)
    assert abs(total_probability(p, t) - 1.0) < 1e-10


def test_energy_ladder():
    assert energy(WaveParams(n=0)) == 0.25
    assert energy(WaveParams(n=1)) == 0.75
    assert energy(WaveParams(n=2)) == 1.25
    # scale checks: E ~ hbar / t_c
    assert energy(WaveParams(n=0, t_c=2.0)) == 0.125
    assert energy(WaveParams(n=0, hbar=3.0)) == 0.75


def test_psi_dx_matches_finite_difference():
    rng = np.random.default_rng(555)
    h = 1e-5
    for _ in range(60):
        n = int(rng.integers(0, 5))
        p = WaveParams(n=n)
        x = float(rng.uniform(-4, 4))
        t = float(rng.uniform(-2, 2))
        numeric = (psi(p, x + h, t) - psi(p, x - h, t)) / (2 * h)
        exact = psi_dx(p, x, t)
        assert abs(exact - numeric) < 1e-7 * max(1.0, abs(exact))


def test_residual_small_for_true_field():
    r = schrodinger_residual(WaveParams(n=2), 1.3, 0.7)
    assert r < 1e-6


def test_residual_ratios_near_four():
    rows = residual_convergence(WaveParams(n=2), 1.3, 0.7)
    for h, res, ratio in rows:
        assert 3.6 <= ratio <= 4.4


def test_residual_flags_phase_flip():
    p = WaveParams(n=2)
    # corrupted field keeps the density but breaks the evolution equation
    assert abs(psi_phase_flipped(p, 1.3, 0.7)) == pytest.approx(
        abs(psi(p, 1.3, 0.7)), rel=1e-12)
    r = schrodinger_residual(p, 1.3, 0.7, field=psi_phase_flipped)
    assert r > 0.1
    rows = residual_convergence(p, 1.3, 0.7, field=psi_phase_flipped)
    # residual converges to a nonzero constant, so ratios collapse to ~1
    assert all(row[2] < 1.5 for row in rows)


def test_residual_rejects_bad_steps():
    with pytest.raises(DomainError):
        schrodinger_residual(WaveParams(n=0), 0.0, 0.0, h_x=0.0)
    with pytest.raises(DomainError):
        psi(WaveParams(n=0), float("nan"), 0.0)


def test_sample_field_matches_scalar():
    p = WaveParams(n=3)
    g = GridSpec(x_min=-6.0, x_max=6.0, nx=201)
    field = sample_field(p, g, 1.2)
    assert isinstance(field, ComplexField)
    assert field.values.shape == (201,)
    ref = np.array([psi(p, float(x), 1.2) for x in g.xs()])
    assert np.abs(field.values - ref).max() < 1e-13


def test_density_grid_matches_scalar():
    p = WaveParams(n=2)
    g = GridSpec(x_min=-5.0, x_max=5.0, nx=101)
    field = density_grid(p, g, -0.8)
    assert isinstance(field, RealField)
    ref = np.array([density(p, float(x), -0.8) for x in g.xs()])
    assert np.abs(field.values - ref).max() < 1e-15


def test_global_phase_convention():
    # at x=0 the phase is exactly -(n + 1/2) arctan(t/t_c); use n=0 and n=2
    # since odd orders have a node there
    t = 1.7
    got0 = psi(WaveParams(n=0), 0.0, t)
    assert got0 / abs(got0) == pytest.approx(
        cmath.exp(-0.5j * math.atan(t)), abs=1e-12)
    got2 = psi(WaveParams(n=2), 0.0, t)
    assert got2 / abs(got2) == pytest.approx(
        -cmath.exp(-2.5j * math.atan(t)), abs=1e-12)  # H_2(0) = -2 < 0
