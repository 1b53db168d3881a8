"""Acceptance gate: one test per numbered release criterion.

Each test prints a single summary line with the measured worst case next to
its threshold, so `pytest -v` reads as a criterion-by-criterion scoreboard.

Criterion 13 checks the reference row of the damped-Airy profile (mean
position 0, momentum spread 0.25, position variance 1.5, uncertainty product
0.375) and proves the closed forms against direct quadrature of the t = 0
profile. The product 0.75 this criterion once asserted for the row was off by
a factor of 2: the three other values in the row force 1.5 * 0.25 = 0.375,
and the quadrature gives the same.
"""

import math

import numpy as np
import pytest

import hermitewave as hw
from hermitewave.cli import EXIT_OK, main


def _line(num, detail):
    print(f"criterion {num:02d}: {detail}")


# shared numeric moment rows for criteria 9, 10, 12 (computed once each)
_MOMENT_CACHE = {}


def _numeric_row(n, t):
    key = (n, t)
    if key not in _MOMENT_CACHE:
        _MOMENT_CACHE[key] = hw.numeric_moments(
            hw.WaveParams(n=n), t, tol=1e-11)
    return _MOMENT_CACHE[key]


def test_criterion_01_initial_profile_identity():
    xs = np.linspace(-10.0, 10.0, 2001)
    worst = 0.0
    for n in range(6):
        for t_c in (0.5, 1.0, 2.0):
            p = hw.WaveParams(n=n, t_c=t_c)
            gap = max(abs(hw.psi(p, float(x), 0.0) - hw.psi_initial(p, float(x)))
                      for x in xs)
            worst = max(worst, gap)
    _line(1, f"t=0 oscillator identity, worst gap {worst:.3e} (tol 1e-12)")
    assert worst < 1e-12


def test_criterion_02_normalization_constancy():
    worst = 0.0
    for n in range(6):
        p = hw.WaveParams(n=n)
        for t in (-5.0, -2.0, 0.0, 1.0, 2.0, 5.0):
            worst = max(worst, abs(hw.total_probability(p, t, tol=1e-10) - 1.0))
    _line(2, f"norm drift, worst {worst:.3e} (tol 1e-8)")
    assert worst < 1e-8


def test_criterion_03_residual_second_order():
    rows = hw.residual_convergence(hw.WaveParams(n=2), 1.3, 0.7,
                                   steps=(1e-2, 5e-3, 2.5e-3))
    ratios = [r[2] for r in rows]
    _line(3, "residual ratios " + ", ".join(f"{r:.4f}" for r in ratios)
          + " (window [3.6, 4.4])")
    for ratio in ratios:
        assert 3.6 <= ratio <= 4.4


def test_criterion_04_spectral_oracle_equivalence():
    grid = hw.SpectralGrid(length=80.0, nx=4096)
    worst = 0.0
    for n in range(4):
        p = hw.WaveParams(n=n)
        init = hw.analytic_field(p, grid, 0.0)
        for t in (0.5, 1.0, 2.0):
            evolved = hw.spectral_propagate(init, t, p.m, p.hbar)
            ref = hw.analytic_field(p, grid, t)
            c = hw.compare_fields(evolved, ref)
            worst = max(worst, c.aligned_max_abs_error)
    _line(4, f"independent propagator, worst aligned gap {worst:.3e} (tol 1e-6)")
    assert worst < 1e-6


def test_criterion_05_outer_ridge_hyperbolae():
    p = hw.WaveParams(n=2, t_c=1.0)
    worst = 0.0
    for t in (0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0):
        peaks = hw.find_peaks(p, t)
        expect = math.sqrt(5.0) * math.hypot(1.0, t)
        worst = max(worst, abs(peaks[-1] - expect), abs(peaks[0] + expect))
    spot0 = hw.find_peaks(p, 0.0)[-1]
    spot2 = hw.find_peaks(p, 2.0)[-1]
    _line(5, f"ridge vs sqrt(5)sqrt(1+t^2), worst {worst:.3e} (tol 1e-8); "
             f"t=0 -> {spot0:.9f}, t=2 -> {spot2:.9f}")
    assert worst < 1e-8
    assert spot0 == pytest.approx(math.sqrt(5.0), abs=1e-8)
    assert spot2 == pytest.approx(5.0, abs=1e-8)


def test_criterion_06_caustic_equals_outer_ridge():
    p = hw.WaveParams(n=2)
    worst = 0.0
    for t in np.linspace(-4.0, 4.0, 401):
        c = hw.caustic(p, float(t))
        h = hw.peak_hyperbola_n2(p, float(t))
        worst = max(worst, abs(c.x_plus - h.x_plus), abs(c.x_minus - h.x_minus))
    _line(6, f"caustic vs ridge closed forms, worst {worst:.3e} (tol 1e-12)")
    assert worst < 1e-12


def test_criterion_07_caustic_envelopes_paths():
    p = hw.WaveParams(n=2)
    thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    fam = hw.path_family(p, thetas)
    worst_over = -math.inf
    worst_deficit = 0.0
    for t in np.linspace(-4.0, 4.0, 81):
        t = float(t)
        snap = hw.phase_space_snapshot(fam, t)
        edge = hw.caustic(p, t).x_plus
        xs = np.abs(snap[:, 0])
        worst_over = max(worst_over, float(xs.max()) - edge)
        # the grazing angle theta* = atan(t / t_c) belongs to the sample
        # set: treat it as the 4096th+1 probe of the same family
        witness = hw.evolve_path(
            hw.initial_conditions(p, math.atan2(t, p.t_c)), t, p.m).x
        reached = max(float(xs.max()), witness)
        worst_deficit = max(worst_deficit, edge - reached)
        assert witness <= edge + 1e-9
    _line(7, f"bound overshoot {worst_over:.3e} (tol 1e-9), tangency deficit "
             f"{worst_deficit:.3e} (tol 1e-6)")
    assert worst_over <= 1e-9
    assert worst_deficit <= 1e-6


def test_criterion_08_phase_space_area_constant():
    p = hw.WaveParams(n=2)
    fam = hw.path_family(p, np.linspace(0.0, 2.0 * math.pi, 4096,
                                        endpoint=False))
    areas = [hw.enclosed_area(hw.phase_space_snapshot(fam, t))
             for t in (0.0, 0.5, 1.0, 2.0)]
    spread = (max(areas) - min(areas)) / areas[0]
    _line(8, f"area rel spread {spread:.3e} (tol 1e-3), "
             f"area {areas[0]:.6f} vs 2 pi E t_c {hw.expected_area(p):.6f}")
    assert spread < 1e-3


def test_criterion_09_moment_table_rows():
    worst = 0.0
    for n, x2_0, p2_const in ((0, 1.0, 0.25), (1, 3.0, 0.75), (2, 5.0, 1.25)):
        for t in (0.0, 1.0, 2.0):
            num = _numeric_row(n, t)
            ref = hw.closed_form_moments(hw.WaveParams(n=n), t)
            worst = max(worst,
                        abs(num.mean_x - ref.mean_x),
                        abs(num.mean_p - ref.mean_p),
                        abs(num.mean_x2 - ref.mean_x2),
                        abs(num.mean_p2 - ref.mean_p2))
        assert hw.closed_form_moments(
            hw.WaveParams(n=n), 0.0).mean_x2 == pytest.approx(x2_0, abs=1e-15)
        assert hw.closed_form_moments(
            hw.WaveParams(n=n), 1.7).mean_p2 == pytest.approx(p2_const,
                                                              abs=1e-15)
    _line(9, f"numeric vs closed moments, worst {worst:.3e} (tol 1e-8)")
    assert worst < 1e-8


def test_criterion_10_energy_constancy():
    worst = 0.0
    for n in (0, 1, 2):
        p = hw.WaveParams(n=n)
        level = 0.5 * (n + 0.5) * p.hbar / p.t_c
        for t in (0.0, 1.0, 2.0):
            num = _numeric_row(n, t)
            worst = max(worst, abs(num.mean_p2 / (2.0 * p.m) - level))
    _line(10, f"kinetic energy vs level, worst {worst:.3e} (tol 1e-8)")
    assert worst < 1e-8


def test_criterion_11_spreading_law():
    worst_closed = 0.0
    worst_numeric = 0.0
    for n in range(4):
        p = hw.WaveParams(n=n)
        for t in (1.0, 2.0, 3.0):
            lhs, rhs = hw.spreading_check(p, t)
            worst_closed = max(worst_closed, abs(lhs - rhs))
            lhs_n, rhs_n = hw.spreading_check(p, t, tol=1e-11)
            worst_numeric = max(worst_numeric, abs(lhs_n - rhs_n))
    _line(11, f"spread growth, closed {worst_closed:.3e} (exact), "
              f"numeric {worst_numeric:.3e} (tol 1e-8)")
    assert worst_closed < 1e-14
    assert worst_numeric < 1e-8


def test_criterion_12_uncertainty_floor():
    floor = 0.25  # hbar^2 / 4 in au
    products = []
    for n in (0, 1, 2):
        for t in (0.0, 1.0, 2.0):
            products.append((n, t, _numeric_row(n, t).uncertainty_product_sq))
    for n in range(4):
        for t in (0.0, 1.0, 2.0, 3.0):
            products.append(
                (n, t,
                 hw.closed_form_moments(hw.WaveParams(n=n),
                                        t).uncertainty_product_sq))
    low = min(v for _, _, v in products)
    _line(12, f"uncertainty products >= {floor} - 1e-12, lowest {low:.12f}; "
              f"saturation only at n=0, t=0")
    for n, t, v in products:
        assert v >= floor - 1e-12
        saturated = abs(v - floor) <= 1e-10
        assert saturated == (n == 0 and t == 0.0), (n, t, v)


def _airy_quadrature_row(airy, m, hbar):
    """mean_x, var_x, var_p and their product for psi0 by scipy quadrature.

    psi0(x) = Ai(q y) exp(b y) with y = x - u, b = m v / hbar and
    q = (2 m**2 a / hbar**2)**(1/3). psi0 is real, so <p> = 0 and
    var_p = hbar**2 Int psi0'**2 / Int psi0**2.
    """
    special = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")
    q = (2.0 * m * m * airy.a / hbar ** 2) ** (1.0 / 3.0)
    b = m * airy.v / hbar

    def field(x):
        y = x - airy.u
        ai, aip, _, _ = special.airy(q * y)
        g = math.exp(b * y)
        return ai * g, (q * aip + b * ai) * g

    def integral(f):
        # psi0**2 oscillates under exp(2 b y) on the left and falls like
        # exp(-(4/3)(q y)**1.5) on the right: [-80, 20] holds all its weight
        return integrate.quad(f, airy.u - 80.0, airy.u + 20.0, limit=200,
                              epsabs=1e-13, epsrel=1e-12)[0]

    norm = integral(lambda x: field(x)[0] ** 2)
    mean_x = integral(lambda x: x * field(x)[0] ** 2) / norm
    mean_x2 = integral(lambda x: x * x * field(x)[0] ** 2) / norm
    var_p = hbar * hbar * integral(lambda x: field(x)[1] ** 2) / norm
    var_x = mean_x2 - mean_x * mean_x
    return mean_x, var_x, var_p, var_x * var_p


def test_criterion_13_airy_reference_row():
    """Reference row pinned, closed forms checked against quadrature."""
    airy = hw.AiryParams(v=1.0, a=1.0)
    row = hw.airy_closed_forms(airy, 0.5, 1.0, 0.0)
    consistency = abs(row.var_x * row.mean_p2 - row.uncertainty_product_sq)
    # the reference point plus one with every parameter off its default
    names = ("mean_x", "var_x", "var_p", "uncertainty_product_sq")
    gaps = dict.fromkeys(names, 0.0)
    for params, m, hbar in ((airy, 0.5, 1.0),
                            (hw.AiryParams(v=1.3, a=0.7, u=-0.4), 0.8, 1.2)):
        closed = hw.airy_closed_forms(params, m, hbar, 0.0)
        numeric = _airy_quadrature_row(params, m, hbar)
        for name, value in zip(names, numeric):
            gaps[name] = max(gaps[name], abs(getattr(closed, name) - value))
    worst = max(gaps.values())
    _line(13, f"airy row: mean_x {row.mean_x}, p2 {row.mean_p2}, "
              f"var_x {row.var_x}, product {row.uncertainty_product_sq} "
              f"(want 0.375); quadrature gap worst {worst:.3e} (tol 1e-10), "
              f"internal consistency gap {consistency:.1e} (tol 1e-12)")
    assert row.mean_x == pytest.approx(0.0, abs=1e-12)
    assert row.mean_p2 == pytest.approx(0.25, abs=1e-12)
    assert row.var_x == pytest.approx(1.5, abs=1e-12)
    # the product must equal spread times momentum variance from the same row
    assert consistency < 1e-12
    assert row.uncertainty_product_sq == pytest.approx(0.375, abs=1e-12)
    for name, gap in gaps.items():
        assert gap < 1e-10, f"{name} off the quadrature by {gap:.3e}"


def test_criterion_14_cli_determinism_and_verify(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["density", "--nx", "129", "--nt", "33", "--tmin", "-4",
            "--tmax", "4"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    identical = a.read_bytes() == b.read_bytes()
    verify_rc = main(["verify", "--out", str(tmp_path / "v.json")])
    _line(14, f"density reruns identical: {identical}; "
              f"verify exit code {verify_rc} (want {EXIT_OK})")
    assert identical
    assert verify_rc == EXIT_OK
