import math

import numpy as np
import pytest

from hermitewave.core_math import _gk_panel, find_root, hermite_pair, integrate
from hermitewave.errors import BracketingError, ConvergenceError, DomainError


def test_hermite_pair_small_orders():
    assert hermite_pair(0, 0.7).h_n == 1.0
    assert hermite_pair(1, 0.7).h_n == 1.4
    # H_2 = 4y^2 - 2, H_3 = 8y^3 - 12y
    assert hermite_pair(2, 1.3).h_n == pytest.approx(4 * 1.69 - 2, abs=1e-14)
    assert hermite_pair(3, 0.5).h_n == pytest.approx(-5.0, abs=1e-14)
    pair = hermite_pair(3, 0.5)
    assert pair.h_nm1 == pytest.approx(4 * 0.25 - 2, abs=1e-14)
    assert pair.n == 3 and pair.y == 0.5


def test_hermite_pair_matches_numpy_basis():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(0, 12))
        y = float(rng.uniform(-3, 3))
        ref = np.polynomial.hermite.hermval(y, [0.0] * n + [1.0])
        got = hermite_pair(n, y).h_n
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def textbook_pair(n, y):
    """(H_n, H_{n-1}) by the recurrence as written, in the type of y."""
    hn, hnm1 = 1.0, 0.0
    for k in range(n):
        hnm1, hn = hn, 2.0 * y * hn - 2.0 * k * hnm1
    return hn, hnm1


def bits(value):
    return np.float64(value).view(np.uint64)


def test_hermite_pair_is_bit_identical_to_the_textbook_loop():
    # at y = +-30 the loop overflows to +-inf at n = 176, and inf - inf
    # gives nan from n = 177 on (at every y by n = 650): both must land in
    # the same places
    ys = (0.0, 0.37, -1.3, 2.5, -7.75, 30.0, -30.0)
    for n in (8, 1000, 0, 1, 2, 120, 176, 650):
        for arg in (*ys, *map(np.float64, ys)):
            got = hermite_pair(n, arg)
            with np.errstate(over="ignore", invalid="ignore"):
                ref = textbook_pair(n, arg)
            assert (bits(got.h_n), bits(got.h_nm1)) == tuple(
                map(bits, ref)), (n, arg)
    assert hermite_pair(176, -30.0).h_n == math.inf
    assert math.isnan(hermite_pair(650, 30.0).h_n)


def test_hermite_pair_rejects_bad_input():
    with pytest.raises(DomainError):
        hermite_pair(-1, 0.0)
    with pytest.raises(DomainError):
        hermite_pair(2, float("inf"))
    with pytest.raises(DomainError):
        hermite_pair(2, float("nan"))


def test_gk_panel_weights_and_exactness():
    # weight sums integrate f=1 exactly over [-1, 1]
    v, err, ne = _gk_panel(lambda x: 1.0, -1.0, 1.0)
    assert ne == 15
    assert v == pytest.approx(2.0, abs=1e-14)
    # Kronrod rule is exact through degree 22
    for deg in range(23):
        v, _, _ = _gk_panel(lambda x, d=deg: x ** d, -1.0, 1.0)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert v == pytest.approx(exact, abs=2e-14)


def test_integrate_known_values():
    res = integrate(lambda x: math.exp(-x * x), -8.0, 8.0, tol=1e-12)
    assert res.value == pytest.approx(1.7724538509055159, abs=1e-13)
    assert res.abs_error_estimate <= 1e-12
    assert res.evaluations % 15 == 0

    res = integrate(math.sin, 0.0, math.pi, tol=1e-10)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_integrate_random_polynomials():
    rng = np.random.default_rng(991)
    for _ in range(25):
        coeffs = rng.uniform(-2, 2, size=int(rng.integers(1, 10)))
        poly = np.polynomial.Polynomial(coeffs)
        anti = poly.integ()
        res = integrate(poly, -1.0, 2.0, tol=1e-11)
        assert res.value == pytest.approx(anti(2.0) - anti(-1.0), abs=1e-9)


def test_integrate_rejects_bad_bounds():
    with pytest.raises(DomainError):
        integrate(math.sin, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(math.sin, 0.0, float("inf"))
    with pytest.raises(DomainError):
        integrate(math.sin, 0.0, 1.0, tol=0.0)


def test_integrate_budget_exhaustion_reports_best():
    with pytest.raises(ConvergenceError) as info:
        integrate(lambda x: math.exp(-x * x), -8.0, 8.0, tol=1e-30)
    best = info.value.best
    assert best is not None
    # unreachable tolerance, but the estimate itself is still excellent
    assert best.value == pytest.approx(1.7724538509055159, abs=1e-12)
    assert best.abs_error_estimate > 1e-30


def test_find_root_known_roots():
    assert find_root(math.cos, 0.0, 2.0) == pytest.approx(
        math.pi / 2, abs=1e-12)
    assert find_root(lambda x: x * x - 2.5, 1.0, 2.0) == pytest.approx(
        1.5811388300841898, abs=1e-12)


def test_find_root_endpoint_hit():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_find_root_requires_bracket():
    with pytest.raises(BracketingError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_random_cubics():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        r = float(rng.uniform(-1, 1))
        root = find_root(lambda x: (x - r) * (x * x + 1.0), -2.0, 2.0)
        assert root == pytest.approx(r, abs=1e-10)
