import math

import numpy as np
import pytest

from hermitewave.errors import (DomainError, GridMismatchError,
                                GridTooSmallError)
from hermitewave.propagator_oracle import (FieldComparison, SpectralField,
                                           SpectralGrid, analytic_field,
                                           compare_fields, spectral_propagate)
from hermitewave.wavefunction import WaveParams


def grid80():
    return SpectralGrid(length=80.0, nx=4096)


def test_spectral_grid_validation():
    g = grid80()
    assert g.dx == pytest.approx(80.0 / 4096)
    with pytest.raises(DomainError):
        SpectralGrid(length=10.0, nx=1000)  # not a power of two
    with pytest.raises(DomainError):
        SpectralGrid(length=10.0, nx=1)
    with pytest.raises(DomainError):
        SpectralGrid(length=0.0, nx=64)


def test_spectral_grid_axes():
    g = SpectralGrid(length=8.0, nx=8)
    xs = g.xs()
    assert xs[0] == -4.0 and xs[-1] == 3.0  # endpoint excluded
    assert 0.0 in xs
    ks = g.ks()
    # symmetric mode set apart from the lone Nyquist frequency
    pos = np.sort(ks[ks > 0])
    neg = np.sort(-ks[ks < 0])
    assert np.allclose(pos, neg[:-1])


def test_analytic_field_norm():
    for n in (0, 2, 5):
        f = analytic_field(WaveParams(n=n), grid80(), 0.0)
        norm = (np.abs(f.values) ** 2).sum() * f.grid.dx
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_zero_time_roundtrip():
    f = analytic_field(WaveParams(n=2), grid80(), 0.0)
    out = spectral_propagate(f, 0.0, 0.5, 1.0)
    assert np.abs(out.values - f.values).max() < 1e-13


def test_unitarity():
    f = analytic_field(WaveParams(n=3), grid80(), 0.0)
    out = spectral_propagate(f, 2.0, 0.5, 1.0)
    n0 = (np.abs(f.values) ** 2).sum() * f.grid.dx
    n1 = (np.abs(out.values) ** 2).sum() * f.grid.dx
    assert abs(n1 - n0) < 1e-12


def test_group_property_and_reversal():
    f = analytic_field(WaveParams(n=2), grid80(), 0.0)
    two_step = spectral_propagate(
        spectral_propagate(f, 0.5, 0.5, 1.0), 2.0, 0.5, 1.0)
    one_step = spectral_propagate(f, 2.0, 0.5, 1.0)
    assert np.abs(two_step.values - one_step.values).max() < 1e-12
    back = spectral_propagate(one_step, 0.0, 0.5, 1.0)
    assert np.abs(back.values - f.values).max() < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_oracle_equivalence(n):
    p = WaveParams(n=n)
    g = grid80()
    init = analytic_field(p, g, 0.0)
    for t in (0.5, 1.0, 2.0):
        evolved = spectral_propagate(init, t, p.m, p.hbar)
        ref = analytic_field(p, g, t)
        c = compare_fields(evolved, ref)
        assert c.aligned_max_abs_error < 1e-6
        # phase conventions agree too, so even the raw gap is tiny
        assert c.max_abs_error < 1e-6


def test_gaussian_case_tight_bound():
    p = WaveParams(n=0)
    g = grid80()
    evolved = spectral_propagate(analytic_field(p, g, 0.0), 2.0, p.m, p.hbar)
    c = compare_fields(evolved, analytic_field(p, g, 2.0))
    assert c.max_abs_error < 1e-8


def test_compare_fields_metrics():
    f = analytic_field(WaveParams(n=1), grid80(), 0.0)
    same = compare_fields(f, f)
    assert isinstance(same, FieldComparison)
    assert same.max_abs_error == 0.0 and same.l2_error == 0.0
    assert same.norm_a == pytest.approx(1.0, abs=1e-12)

    rotated = SpectralField(grid=f.grid, t=f.t,
                            values=f.values * np.exp(0.7j))
    c = compare_fields(f, rotated)
    assert c.max_abs_error > 1e-2  # raw difference sees the global phase
    assert c.aligned_max_abs_error < 1e-12  # alignment removes it


def test_compare_fields_rejects_mismatch():
    a = analytic_field(WaveParams(n=0), grid80(), 0.0)
    b = analytic_field(WaveParams(n=0), SpectralGrid(length=40.0, nx=2048), 0.0)
    with pytest.raises(GridMismatchError):
        compare_fields(a, b)
    c = analytic_field(WaveParams(n=0), grid80(), 1.0)
    with pytest.raises(GridMismatchError):
        compare_fields(a, c)


def test_refusal_when_box_too_small():
    p = WaveParams(n=2)
    small = SpectralGrid(length=10.0, nx=1024)
    init = analytic_field(p, small, 0.0)
    with pytest.raises(GridTooSmallError):
        spectral_propagate(init, 2.0, p.m, p.hbar)
    # same request on the default box is fine
    spectral_propagate(analytic_field(p, grid80(), 0.0), 2.0, p.m, p.hbar)


def test_refusal_when_grid_too_coarse():
    p = WaveParams(n=2)
    coarse = SpectralGrid(length=80.0, nx=64)  # pi / dx = 2.5 < 6 sigma_k
    init = analytic_field(p, coarse, 0.0)
    with pytest.raises(GridTooSmallError, match="Nyquist"):
        spectral_propagate(init, 2.0, p.m, p.hbar)
    # a box that is too small and too coarse is reported as a box problem
    tiny = analytic_field(p, SpectralGrid(length=10.0, nx=4), 0.0)
    with pytest.raises(GridTooSmallError, match="box ends at"):
        spectral_propagate(tiny, 2.0, p.m, p.hbar)


def test_propagate_rejects_bad_constants():
    f = analytic_field(WaveParams(n=0), grid80(), 0.0)
    with pytest.raises(DomainError):
        spectral_propagate(f, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        spectral_propagate(f, 1.0, 0.5, -1.0)
