import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitewave import semiclassics
from hermitewave.core_math import find_root
from hermitewave.errors import ConvergenceError, DomainError
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
    assert fam.ring.x.shape == fam.ring.p.shape == fam.ring.theta.shape == (64,)
    assert (snap[:, 0] == fam.ring.x).all() and (snap[:, 1] == fam.ring.p).all()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _decades(k):
    return st.floats(-k, k).map(lambda e: 10.0 ** e)


# Within 50 decades of 1 the shell's semi-axes (shell_axes) and x + p t / m
# are all finite, so every element can be compared bit for bit.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 650), t_c=_decades(50), hbar=_decades(50),
       m=_decades(50),
       thetas=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=64),
       t=st.tuples(st.sampled_from((-1.0, 0.0, 1.0)), _decades(50)).map(
           lambda sv: sv[0] * sv[1]))
def test_family_ring_and_snapshot_match_the_scalar_routes(n, t_c, hbar, m,
                                                          thetas, t):
    p = WaveParams(n=n, t_c=t_c, hbar=hbar, m=m)
    fam = path_family(p, thetas)
    points = [initial_conditions(p, th) for th in thetas]
    assert np.array_equal(_bits(fam.ring.x), _bits([pt.x for pt in points]))
    assert np.array_equal(_bits(fam.ring.p), _bits([pt.p for pt in points]))
    assert np.array_equal(_bits(fam.ring.theta), _bits(thetas))
    moved = [evolve_path(pt, t, m) for pt in points]
    assert np.array_equal(_bits(phase_space_snapshot(fam, t)),
                          _bits([(pt.x, pt.p) for pt in moved]))


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


def mp_root_gap(n, xi):
    """Distance from xi to the nearest root of g = 2n H_{n-1} - xi H_n, as
    the Newton step g / g' at 50 digits, with g' = 4n(n-1) H_{n-2} - H_n
    - 2n xi H_{n-1} from H_k' = 2k H_{k-1}."""
    with mp.workdps(50):
        x = mp.mpf(xi)
        h2, h1, h = mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for k in range(n):
            h2, h1, h = h1, h, 2 * x * h - 2 * k * h1
        g = 2 * n * h1 - x * h
        slope = 4 * n * (n - 1) * h2 - h - 2 * n * x * h1
        return float(abs(g / slope))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 186), ratio=st.floats(-30.0, 30.0),
       log_t_c=st.floats(-6.0, 6.0), log_hbar=st.floats(-6.0, 6.0),
       log_m=st.floats(-6.0, 6.0))
def test_find_peaks_matches_mpmath(n, ratio, log_t_c, log_hbar, log_m):
    params = WaveParams(n=n, t_c=10.0 ** log_t_c, hbar=10.0 ** log_hbar,
                        m=10.0 ** log_m)
    t = ratio * params.t_c
    xi = find_peaks(params, t) * math.sqrt(params.alpha(t))
    tol = 1e-14 * math.sqrt(2.0 * n + 1.0)
    # n + 1 ridges, each at a root and no two at one: so every root of g
    assert xi.size == n + 1
    assert np.all(np.diff(xi) > 2.0 * tol)
    assert max(mp_root_gap(n, v) for v in xi.tolist()) <= tol


def test_brent_polish_takes_few_evaluations(monkeypatch):
    # the ridge brackets of find_peaks, then random cubics
    counts = []

    def counted(f, *args, **kwargs):
        counts.append(0)

        def inner(x):
            counts[-1] += 1
            return f(x)
        return find_root(inner, *args, **kwargs)

    monkeypatch.setattr(semiclassics, "find_root", counted)
    for n in (2, 8, 120):
        find_peaks(WaveParams(n=n), 0.7)
    assert len(counts) == 3 + 9 + 121
    rng = np.random.default_rng(4242)
    for r in rng.uniform(-1, 1, size=50).tolist():
        root = counted(lambda x: (x - r) * (x * x + 1.0), -2.0, 2.0)
        assert root == pytest.approx(r, abs=1e-10)
    assert max(counts) <= 12


def test_find_peaks_refuses_an_overflowing_scan():
    # the raw recurrence leaves double range inside the scan from n = 189
    with pytest.raises(ConvergenceError, match="n = 190"):
        find_peaks(WaveParams(n=190), 0.5)


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
