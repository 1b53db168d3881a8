import math

import numpy as np
import pytest

from hermitewave import _kernels
from hermitewave.errors import DomainError
from hermitewave.wavefunction import WaveParams, density, psi


def test_backend_selection(monkeypatch):
    monkeypatch.delenv("HERMITEWAVE_BACKEND", raising=False)
    assert _kernels.backend() in ("numpy", "numba")
    monkeypatch.setenv("HERMITEWAVE_BACKEND", "numpy")
    assert _kernels.backend() == "numpy"
    monkeypatch.setenv("HERMITEWAVE_BACKEND", "nope")
    with pytest.raises(DomainError):
        _kernels.backend()


def test_backend_numba_unavailable(monkeypatch):
    monkeypatch.setenv("HERMITEWAVE_BACKEND", "numba")
    monkeypatch.setattr(_kernels, "HAVE_NUMBA", False)
    with pytest.raises(DomainError):
        _kernels.backend()


@pytest.mark.parametrize("be", ["numpy", "numba"])
def test_hermite_function_profile(be, monkeypatch):
    if be == "numba" and not _kernels.HAVE_NUMBA:
        pytest.skip("numba not installed")
    monkeypatch.setenv("HERMITEWAVE_BACKEND", be)
    rng = np.random.default_rng(31337)
    xi = rng.uniform(-6, 6, size=400)
    for n in (0, 1, 2, 5, 17, 30):
        got = _kernels.hermite_function_profile(n, xi)
        # reference: raw polynomial times log-domain normalization
        log_c = -0.5 * (math.lgamma(n + 1) + n * math.log(2.0)
                        + 0.5 * math.log(math.pi))
        ref = np.array([
            np.polynomial.hermite.hermval(v, [0.0] * n + [1.0])
            * math.exp(log_c - 0.5 * v * v) for v in xi])
        assert np.abs(got - ref).max() < 1e-10


@pytest.mark.parametrize("be", ["numpy", "numba"])
def test_hermite_function_high_order_stays_finite(be, monkeypatch):
    if be == "numba" and not _kernels.HAVE_NUMBA:
        pytest.skip("numba not installed")
    monkeypatch.setenv("HERMITEWAVE_BACKEND", be)
    xi = np.linspace(-40, 40, 2001)
    vals = _kernels.hermite_function_profile(500, xi)
    assert np.all(np.isfinite(vals))
    # normalized functions are uniformly bounded by the ground state peak
    assert np.abs(vals).max() <= math.pi ** -0.25 + 1e-9


@pytest.mark.parametrize("be", ["numpy", "numba"])
def test_profiles_match_scalar_routes(be, monkeypatch):
    if be == "numba" and not _kernels.HAVE_NUMBA:
        pytest.skip("numba not installed")
    monkeypatch.setenv("HERMITEWAVE_BACKEND", be)
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
        assert np.abs(prof - ref).max() < 1e-12
        assert np.abs(dens - refd).max() < 1e-13


def test_backends_agree(monkeypatch):
    if not _kernels.HAVE_NUMBA:
        pytest.skip("numba not installed")
    xs = np.linspace(-8, 8, 513)
    results = {}
    for be in ("numpy", "numba"):
        monkeypatch.setenv("HERMITEWAVE_BACKEND", be)
        results[be] = (_kernels.psi_profile(xs, 4, 1.5, 1.0, 0.5, 1.0),
                       _kernels.density_profile(xs, 4, 1.5, 1.0, 0.5, 1.0))
    assert np.abs(results["numpy"][0] - results["numba"][0]).max() < 1e-14
    assert np.abs(results["numpy"][1] - results["numba"][1]).max() < 1e-14


def test_coefficient_cache_reuse():
    a1 = _kernels._fn_coeffs(12)
    a2 = _kernels._fn_coeffs(12)
    assert a1[0] is a2[0] and a1[1] is a2[1]
