import math

import numpy as np
import pytest

from hermitewave import observables
from hermitewave.errors import ConvergenceError, DomainError
from hermitewave.observables import (AiryParams, MomentRow, airy_closed_forms,
                                     closed_form_moments, numeric_moments,
                                     spreading_check, table_report)
from hermitewave.wavefunction import WaveParams, energy


def test_closed_form_initial_spreads():
    # au defaults: <x^2>(0) = 2n+1, <p^2> = (2n+1)/4
    for n, x2, p2 in ((0, 1.0, 0.25), (1, 3.0, 0.75), (2, 5.0, 1.25)):
        row = closed_form_moments(WaveParams(n=n), 0.0)
        assert row.mean_x2 == pytest.approx(x2, abs=1e-15)
        assert row.mean_p2 == pytest.approx(p2, abs=1e-15)
        assert row.mean_x == 0.0 and row.mean_p == 0.0


def test_momentum_spread_is_conserved():
    p = WaveParams(n=3)
    vals = [closed_form_moments(p, t).mean_p2 for t in (0.0, 1.0, 5.0)]
    assert max(vals) - min(vals) == 0.0


def test_kinetic_energy_equals_level():
    for n in range(6):
        p = WaveParams(n=n, t_c=1.3)
        row = closed_form_moments(p, 2.0)
        assert row.mean_p2 / (2 * p.m) == pytest.approx(energy(p), rel=1e-15)


def test_numeric_matches_closed():
    for n in (0, 1, 2):
        p = WaveParams(n=n)
        for t in (0.0, 1.0, 2.0):
            num = numeric_moments(p, t, tol=1e-11)
            ref = closed_form_moments(p, t)
            assert abs(num.mean_x) < 1e-10
            assert abs(num.mean_p) < 1e-10
            assert num.mean_x2 == pytest.approx(ref.mean_x2, abs=1e-9)
            assert num.mean_p2 == pytest.approx(ref.mean_p2, abs=1e-9)


def test_numeric_moments_tol_bounds_the_norm_defect():
    # the sampled norm of the ground state at t = 0 is 1 - 2.2e-16
    with pytest.raises(ConvergenceError, match="sampled norm"):
        numeric_moments(WaveParams(n=0), 0.0, tol=1e-16)
    with pytest.raises(ConvergenceError, match="sampled norm"):
        numeric_moments(WaveParams(n=2), 1.0, tol=float("nan"))


def test_spreading_check_closed_is_identity():
    for n in range(4):
        for t in (1.0, 2.0, 3.0):
            lhs, rhs = spreading_check(WaveParams(n=n), t)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_spreading_check_numeric_route():
    lhs, rhs = spreading_check(WaveParams(n=2), 2.0, tol=1e-11)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_uncertainty_floor_and_saturation():
    rng = np.random.default_rng(7)
    floor = 0.25  # hbar^2/4 in au
    for _ in range(100):
        n = int(rng.integers(0, 6))
        t = float(rng.uniform(-3, 3))
        row = closed_form_moments(WaveParams(n=n), t)
        assert row.uncertainty_product_sq >= floor - 1e-12
        if n == 0 and t == 0.0:
            continue  # rng never produces exactly 0.0 anyway
        # strictly above the floor away from the saturating point
        if n > 0 or abs(t) > 1e-3:
            assert row.uncertainty_product_sq > floor + 1e-10
    sat = closed_form_moments(WaveParams(n=0), 0.0)
    assert sat.uncertainty_product_sq == pytest.approx(floor, abs=1e-15)


def test_airy_params_validation():
    a = AiryParams(v=1.0, a=2.0)
    assert a.t_c == 0.5
    assert a.u == 0.0
    with pytest.raises(DomainError):
        AiryParams(v=0.0, a=1.0)
    with pytest.raises(DomainError):
        AiryParams(v=1.0, a=-1.0)
    with pytest.raises(DomainError):
        AiryParams(v=1.0, a=1.0, u=float("nan"))


def test_airy_closed_forms_reference_point():
    airy = AiryParams(v=1.0, a=1.0)
    row = airy_closed_forms(airy, 0.5, 1.0, 0.0)
    # v^2/2a cancels hbar/4mv exactly at this parameter point
    assert row.mean_x == pytest.approx(0.0, abs=1e-15)
    assert row.mean_p == 0.0
    assert row.mean_p2 == pytest.approx(0.25, abs=1e-15)
    assert row.var_x == pytest.approx(1.5, abs=1e-15)
    assert row.uncertainty_product_sq == pytest.approx(0.375, abs=1e-15)


def test_airy_rows_internally_consistent():
    rng = np.random.default_rng(321)
    for _ in range(50):
        airy = AiryParams(v=float(rng.uniform(0.5, 2.0)),
                          a=float(rng.uniform(0.5, 2.0)),
                          u=float(rng.uniform(-1, 1)))
        t = float(rng.uniform(-3, 3))
        row = airy_closed_forms(airy, 0.5, 1.0, t)
        assert row.uncertainty_product_sq == pytest.approx(
            row.var_x * row.var_p, rel=1e-14)
        assert row.mean_x2 == pytest.approx(
            row.var_x + row.mean_x ** 2, rel=1e-14)


def test_airy_spread_growth_and_translation():
    airy = AiryParams(v=1.0, a=1.0)
    r0 = airy_closed_forms(airy, 0.5, 1.0, 0.0)
    r2 = airy_closed_forms(airy, 0.5, 1.0, 2.0)
    # (hbar / 2m) t^2 / t_c = t^2 in au
    assert r2.var_x - r0.var_x == pytest.approx(4.0, abs=1e-13)
    shifted = AiryParams(v=1.0, a=1.0, u=3.0)
    rs = airy_closed_forms(shifted, 0.5, 1.0, 0.0)
    assert rs.mean_x == pytest.approx(3.0, abs=1e-14)
    assert rs.var_x == r0.var_x


def test_airy_satisfies_spreading_law():
    airy = AiryParams(v=1.4, a=0.9)
    m, hb = 0.5, 1.0
    r0 = airy_closed_forms(airy, m, hb, 0.0)
    for t in (1.0, 2.5):
        rt = airy_closed_forms(airy, m, hb, t)
        assert rt.var_x == pytest.approx(
            r0.var_x + r0.var_p / m ** 2 * t * t, rel=1e-13)


def test_table_report_structure():
    packets = [WaveParams(n=k) for k in (0, 1, 2)]
    airy = AiryParams(v=1.0, a=1.0)
    rep = table_report(packets, airy, (0.0, 1.0, 2.0), tol=1e-8)
    assert rep["heisenberg_ok"] is True
    assert rep["all_within_tolerance"] is True
    assert rep["worst_numeric_gap"] < 1e-8
    assert len(rep["packets"]) == 3
    assert rep["packets"][2]["energy"] == pytest.approx(1.25)
    assert len(rep["packets"][0]["rows"]) == 3
    assert rep["airy"]["t_c"] == 1.0
    assert rep["airy"]["rows"][0]["var_x"] == pytest.approx(1.5)


def test_table_report_impossible_tolerance_flags():
    rep = table_report([WaveParams(n=0)], None, (0.0,), tol=1e-30)
    assert rep["all_within_tolerance"] is False
    assert "airy" not in rep


def test_table_report_keeps_a_nan_gap(monkeypatch):
    def nan_moments(params, t):
        row = closed_form_moments(params, t)
        return MomentRow(**{**row.__dict__, "mean_x": float("nan")})

    monkeypatch.setattr(observables, "numeric_moments", nan_moments)
    rep = table_report([WaveParams(n=0), WaveParams(n=1)], None, (0.0, 1.0),
                       tol=1e-8)
    assert math.isnan(rep["worst_numeric_gap"])
    assert rep["all_within_tolerance"] is False


def test_table_report_closed_only():
    rep = table_report([WaveParams(n=1)], None, (0.0, 1.0), tol=None)
    assert rep["all_within_tolerance"] is None
    assert "worst_numeric_gap" not in rep
