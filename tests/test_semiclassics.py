import math

import numpy as np
import pytest

from hermitewave.errors import DomainError
from hermitewave.semiclassics import (CausticPair, caustic, enclosed_area,
                                      evolve_path, expected_area, find_peaks,
                                      initial_conditions, path_family,
                                      peak_hyperbola_n2, phase_space_snapshot)
from hermitewave.wavefunction import WaveParams, energy


def test_initial_conditions_on_energy_shell():
    rng = np.random.default_rng(808)
    for _ in range(200):
        n = int(rng.integers(0, 6))
        p = WaveParams(n=n, t_c=float(rng.uniform(0.5, 2.0)))
        theta = float(rng.uniform(0, 2 * math.pi))
        pt = initial_conditions(p, theta)
        h = pt.p ** 2 / (2 * p.m) + 0.5 * p.m * p.omega ** 2 * pt.x ** 2
        assert h == pytest.approx(energy(p), abs=1e-12)
        assert pt.theta == theta


def test_evolve_path_is_straight():
    pt = initial_conditions(WaveParams(n=2), 0.3)
    moved = evolve_path(pt, 2.0, 0.5)
    assert moved.x == pytest.approx(pt.x + pt.p * 4.0, abs=1e-14)
    assert moved.p == pt.p
    assert moved.theta == pt.theta
    with pytest.raises(DomainError):
        evolve_path(pt, 1.0, 0.0)


def test_path_family_needs_enough_angles():
    with pytest.raises(DomainError):
        path_family(WaveParams(n=0), [0.0, 1.0])


def test_phase_space_snapshot_shape_and_t0():
    p = WaveParams(n=2)
    thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    fam = path_family(p, thetas)
    snap = phase_space_snapshot(fam, 0.0)
    assert snap.shape == (64, 2)
    for row, pt in zip(snap, fam.points):
        assert row[0] == pt.x and row[1] == pt.p


def test_enclosed_area_simple_polygons():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert enclosed_area(square) == pytest.approx(1.0, abs=1e-15)
    triangle = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
    assert enclosed_area(triangle) == pytest.approx(2.0, abs=1e-15)
    # orientation must not matter
    assert enclosed_area(square[::-1]) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        enclosed_area(np.zeros((2, 2)))


def test_enclosed_area_shear_invariant():
    rng = np.random.default_rng(99)
    pts = rng.normal(size=(257, 2))
    # sort by angle so the polygon is simple
    order = np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))
    pts = pts[order]
    base = enclosed_area(pts)
    for lam in (-3.0, 0.7, 12.0):
        sheared = pts.copy()
        sheared[:, 0] += lam * sheared[:, 1]
        assert enclosed_area(sheared) == pytest.approx(base, rel=1e-13)


def test_ellipse_area_matches_closed_form():
    p = WaveParams(n=2)
    fam = path_family(p, np.linspace(0, 2 * math.pi, 4096, endpoint=False))
    area = enclosed_area(phase_space_snapshot(fam, 0.0))
    assert expected_area(p) == pytest.approx(2.5 * math.pi, abs=1e-14)
    # inscribed polygon: slightly below the true ellipse area
    assert 0 < expected_area(p) - area < 1e-5 * expected_area(p)
    assert expected_area(WaveParams(n=0)) == pytest.approx(
        0.5 * math.pi, abs=1e-15)


def test_caustic_values():
    p = WaveParams(n=2)
    pair = caustic(p, 2.0)
    assert isinstance(pair, CausticPair)
    assert pair.x_plus == pytest.approx(5.0, abs=1e-12)
    assert pair.x_minus == pytest.approx(-5.0, abs=1e-12)
    # t=0: classical turning point sqrt(2E/m) t_c / t_c... = sqrt(2E) t_c
    assert caustic(p, 0.0).x_plus == pytest.approx(math.sqrt(5), abs=1e-14)
    assert caustic(p, -3.0).x_plus == caustic(p, 3.0).x_plus


def test_find_peaks_small_orders():
    assert np.allclose(find_peaks(WaveParams(n=0), 0.0), [0.0], atol=1e-12)
    pk1 = find_peaks(WaveParams(n=1), 0.0)
    assert np.allclose(pk1, [-math.sqrt(2), math.sqrt(2)], atol=1e-10)
    pk2 = find_peaks(WaveParams(n=2), 0.0)
    assert np.allclose(pk2, [-math.sqrt(5), 0.0, math.sqrt(5)], atol=1e-10)


def test_find_peaks_count_is_order_plus_one():
    rng = np.random.default_rng(60601)
    for n in range(9):
        t = float(rng.uniform(-3, 3))
        peaks = find_peaks(WaveParams(n=n), t)
        assert peaks.size == n + 1
        assert np.all(np.diff(peaks) > 0)


def test_outer_peaks_follow_hyperbola():
    p = WaveParams(n=2)
    for t in (0.0, 1.0, -2.0, 4.0):
        peaks = find_peaks(p, t)
        hyp = peak_hyperbola_n2(p, t)
        assert peaks[-1] == pytest.approx(hyp.x_plus, abs=1e-9)
        assert peaks[0] == pytest.approx(hyp.x_minus, abs=1e-9)


def test_peak_hyperbola_requires_order_two():
    with pytest.raises(DomainError):
        peak_hyperbola_n2(WaveParams(n=1), 0.0)


def test_caustic_equals_peak_hyperbola():
    p = WaveParams(n=2)
    rng = np.random.default_rng(11)
    for t in rng.uniform(-4, 4, size=50):
        c = caustic(p, float(t))
        h = peak_hyperbola_n2(p, float(t))
        assert abs(c.x_plus - h.x_plus) < 1e-12
