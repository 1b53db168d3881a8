"""Independent validators for hermitewave artifacts.

Nothing here imports hermitewave. Every reference is rebuilt from the
physics: densities with scipy.special Hermite polynomials, ridge positions as
the roots of n H_{n-1} - H_{n+1}/2 (eigenvalue seed, then Newton in mpmath at
40 digits), classical points back-sheared onto the energy ellipse, and
moments from their closed forms.

``validate(item)`` returns a Verdict; a rejected artifact carries the first
reason found and the rows counted before it. A ridge shortfall is reported
only after every ridge written has been checked, and also as ``defect``.
Run as a script, it reads a JSON manifest of items and prints one JSON
object of verdicts keyed by label, so the parent process never loads an
artifact and its peak memory stays the program's.
"""

import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import mpmath
import numpy as np
from numpy.polynomial import hermite as npherm
from scipy import special

_EPS = 2.0 ** -53
_VERIFY_CHECKS = ("normalization", "t0_identity", "residual_convergence",
                  "spectral_oracle", "caustic_peak_identity")


class Rejected(Exception):
    """The artifact is wrong; the message says how."""


@dataclass
class Verdict:
    ok: bool
    rows: int = 0
    digits: Optional[float] = None
    reason: Optional[str] = None
    # A rejection the workload may declare known, in a fixed wording.
    defect: Optional[str] = None


def digits(rel_err: float) -> float:
    """-log10 of a relative error, floored at one unit roundoff."""
    return -math.log10(max(rel_err, _EPS))


def _require(cond, message):
    if not cond:
        raise Rejected(message)


def _times(p):
    if p["nt"] == 1:
        return np.array([float(p["t_min"])])
    return np.linspace(p["t_min"], p["t_max"], p["nt"])


def _alpha(p, t):
    return p["m"] * p["t_c"] / (p["hbar"] * (p["t_c"] ** 2 + t * t))


def _close(actual, expected, what, rel=1e-13):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(actual.shape == expected.shape,
             f"{what}: shape {actual.shape}, expected {expected.shape}")
    scale = np.maximum(np.abs(expected), 1.0)
    worst = float(np.max(np.abs(actual - expected) / scale, initial=0.0))
    _require(worst <= rel, f"{what}: off by {worst:.3g} (limit {rel:.1g})")


def read_table(path, fmt, header):
    """Numeric rows of a grid artifact as an (N, len(header)) array."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        _require(payload.get("header") == list(header),
                 f"header {payload.get('header')}, expected {list(header)}")
        rows = payload["rows"]
        data = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
        _require(b"\r" not in raw and raw.endswith(b"\n"),
                 "CSV must use LF line endings and end with a newline")
        first, _, body = raw.partition(b"\n")
        _require(first.decode() == ",".join(header),
                 f"header {first.decode()!r}, expected {','.join(header)!r}")
        if body:
            data = np.loadtxt(io.StringIO(body.decode()), delimiter=",",
                              ndmin=2)
        else:
            data = np.empty((0, len(header)))
    _require(data.shape[1] == len(header),
             f"{data.shape[1]} columns, expected {len(header)}")
    return data


# -- grid artifacts ----------------------------------------------------------


def check_density(v, p, path, fmt):
    nx, nt, n = p["nx"], p["nt"], p["n"]
    data = read_table(path, fmt, ("x", "t", "density"))
    v.rows = len(data)
    _require(len(data) == nx * nt, f"{len(data)} rows, expected {nx * nt}")
    x = data[:, 0].reshape(nt, nx)
    t = data[:, 1].reshape(nt, nx)
    rho = data[:, 2].reshape(nt, nx)
    _close(x, np.broadcast_to(np.linspace(p["x_min"], p["x_max"], nx),
                              (nt, nx)), "x axis")
    _close(t, np.broadcast_to(_times(p)[:, None], (nt, nx)), "t axis")
    alpha = _alpha(p, t[:, :1])
    xi = np.sqrt(alpha) * x
    norm = np.sqrt(alpha / math.pi) / (2.0 ** n * math.factorial(n))
    ref = norm * special.eval_hermite(n, xi) ** 2 * np.exp(-xi * xi)
    peak = ref.max(axis=1, keepdims=True)
    err = float(np.max(np.abs(rho - ref) / peak))
    _require(err <= 1e-12, f"density off the reference by {err:.3g} of the "
             f"slice maximum")
    v.digits = digits(err)


@functools.lru_cache(maxsize=None)
def ridge_reference(n):
    """The n + 1 density maxima in xi = x sqrt(alpha), ascending.

    They are the roots of 2n H_{n-1} - xi H_n = n H_{n-1} - H_{n+1}/2.
    """
    coeffs = np.zeros(n + 2)
    if n >= 1:
        coeffs[n - 1] = n
    coeffs[n + 1] = -0.5
    seeds = np.sort(npherm.hermroots(coeffs).real)
    with mpmath.workdps(40):
        def g_and_slope(x):
            h = [mpmath.mpf(1), 2 * x]
            for k in range(1, n + 1):
                h.append(2 * x * h[k] - 2 * k * h[k - 1])
            g = -h[n + 1] / 2 + (n * h[n - 1] if n >= 1 else 0)
            slope = -(n + 1) * h[n] + (2 * n * (n - 1) * h[n - 2]
                                       if n >= 2 else 0)
            return g, slope

        roots = []
        for s in seeds:
            x = mpmath.mpf(float(s))
            for _ in range(50):
                g, slope = g_and_slope(x)
                step = g / slope
                x -= step
                if abs(step) < mpmath.mpf(10) ** -35 * max(1, abs(x)):
                    break
            roots.append(float(x))
    roots = np.array(roots)
    if len(roots) != n + 1 or np.any(np.diff(roots) <= 0.0):
        raise RuntimeError(f"ridge reference for n={n} did not resolve "
                           f"{n + 1} distinct roots")
    return roots


def branch_labels(count):
    """Signed rank about the center; 0 only for an odd count."""
    half = count // 2
    if count % 2:
        return [i - half for i in range(count)]
    return [i - half if i < half else i - half + 1 for i in range(count)]


def check_peaks(v, p, path, fmt):
    """Every ridge written must be a reference root, the same ones in every
    slice. A slice that lacks some of the n + 1 is reported last, as its
    own ``defect``, once everything written has been checked."""
    n = p["n"]
    data = read_table(path, fmt, ("t", "x_peak", "branch"))
    v.rows = len(data)
    times = _times(p)
    ref = ridge_reference(n)
    scale = math.sqrt(2.0 * n + 1.0)
    cuts = np.flatnonzero(np.diff(data[:, 0]) != 0.0) + 1
    groups = np.split(data, cuts) if len(data) else []
    _require(len(groups) == len(times),
             f"{len(groups)} time slices, expected {len(times)}")
    worst = 0.0
    first = None
    for rows, t in zip(groups, times):
        _close(rows[:1, 0], [t], "t axis")
        x = rows[:, 1]
        _require(bool(np.all(np.diff(x) > 0.0)),
                 f"t={t:.6g}: ridges not strictly ascending")
        _require(rows[:, 2].tolist() == branch_labels(len(rows)),
                 f"t={t:.6g}: branch labels {rows[:, 2].tolist()}")
        xi = x * math.sqrt(_alpha(p, float(rows[0, 0])))
        nearest = np.abs(xi[:, None] - ref[None, :]).argmin(axis=1)
        _require(bool(np.all(np.diff(nearest) > 0)),
                 f"t={t:.6g}: two ridges at one reference root")
        if first is None:
            first = nearest
        _require(np.array_equal(nearest, first),
                 f"t={t:.6g}: ridges {nearest.tolist()} of the reference, "
                 f"but {first.tolist()} in the first slice")
        worst = max(worst, float(np.max(np.abs(xi - ref[nearest]))) / scale)
    _require(worst <= 1e-9, f"ridges off the reference by {worst:.3g} of "
             f"sqrt(2n+1)")
    v.digits = digits(worst)
    if len(first) < n + 1:
        missing = sorted(set(range(n + 1)) - set(first.tolist()))
        v.defect = (f"{len(first)} of {n + 1} ridges per slice, "
                    f"missing {missing}")
        raise Rejected(f"ridge shortfall: {v.defect}")


def check_caustic(v, p, path, fmt):
    data = read_table(path, fmt, ("t", "x_plus", "x_minus"))
    v.rows = len(data)
    _require(len(data) == p["nt"], f"{len(data)} rows, expected {p['nt']}")
    t = data[:, 0]
    _close(t, _times(p), "t axis")
    reach = np.sqrt((2 * p["n"] + 1) * p["hbar"] * (p["t_c"] ** 2 + t * t)
                    / (2.0 * p["m"] * p["t_c"]))
    err = float(max(np.max(np.abs(data[:, 1] - reach) / reach),
                    np.max(np.abs(data[:, 2] + reach) / reach)))
    _require(err <= 1e-12, f"caustic off the hyperbola by {err:.3g}")
    v.digits = digits(err)


def _ellipse_error(p, theta, t, x, pm):
    """Back-shear (x, p) to t=0 and measure the distance from the energy
    ellipse and from the launch angle."""
    levels = p["n"] + 0.5
    a = math.sqrt(levels * p["hbar"] * p["t_c"] / p["m"])
    b = math.sqrt(levels * p["hbar"] * p["m"] / p["t_c"])
    u = (x - pm * t / p["m"]) / a
    v = pm / b
    on_ellipse = np.abs(u * u + v * v - 1.0)
    turn = np.angle(np.exp(1j * (np.arctan2(v, u) - theta)))
    return float(max(np.max(on_ellipse, initial=0.0),
                     np.max(np.abs(turn), initial=0.0)))


def check_classical(v, p, path, fmt, theta_major):
    cols = (("theta", "t", "x", "p") if theta_major
            else ("t", "theta", "x", "p"))
    data = read_table(path, fmt, cols)
    v.rows = len(data)
    k, nt = p["thetas"], p["nt"]
    _require(len(data) == k * nt, f"{len(data)} rows, expected {k * nt}")
    angles = 2.0 * math.pi * np.arange(k) / k
    times = _times(p)
    if theta_major:
        theta = data[:, 0].reshape(k, nt)
        t = data[:, 1].reshape(k, nt)
        _close(theta, np.broadcast_to(angles[:, None], (k, nt)), "theta axis")
        _close(t, np.broadcast_to(times, (k, nt)), "t axis")
    else:
        t = data[:, 0].reshape(nt, k)
        theta = data[:, 1].reshape(nt, k)
        _close(theta, np.broadcast_to(angles, (nt, k)), "theta axis")
        _close(t, np.broadcast_to(times[:, None], (nt, k)), "t axis")
    err = _ellipse_error(p, data[:, 0 if theta_major else 1],
                         data[:, 1 if theta_major else 0], data[:, 2],
                         data[:, 3])
    _require(err <= 1e-10, f"points leave the energy ellipse by {err:.3g}")
    v.digits = digits(err)


# -- report artifacts --------------------------------------------------------


def closed_moments(n, t_c, hbar, m, t):
    levels = n + 0.5
    x2 = levels * hbar * (t_c * t_c + t * t) / (m * t_c)
    p2 = levels * hbar * m / t_c
    return {"mean_x": 0.0, "mean_p": 0.0, "mean_x2": x2, "mean_p2": p2,
            "var_x": x2, "var_p": p2, "uncertainty_product_sq": x2 * p2}


def airy_moments(v, a, u, m, hbar, t):
    t_c = v / a
    mean_x = u + v * v / (2.0 * a) - hbar / (4.0 * m * v)
    var_x = (hbar / (m * v)) ** 2 / 8.0 + 0.5 * (hbar / m) * (t_c + t * t / t_c)
    var_p = 0.5 * hbar * m / t_c
    return {"mean_x": mean_x, "mean_x2": var_x + mean_x * mean_x,
            "mean_p": 0.0, "mean_p2": var_p, "var_x": var_x, "var_p": var_p,
            "uncertainty_product_sq": var_x * var_p}


def _rel(actual, expected):
    return abs(actual - expected) / max(abs(expected), 1e-300)


def check_observables(v, p, path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    v.rows = (sum(len(e["rows"]) for e in report["packets"])
              + len(report["airy"]["rows"]))
    times = _times(p)
    orders = [0, 1, 2] + ([p["n"]] if p["n"] not in (0, 1, 2) else [])
    packets = report["packets"]
    _require([e["n"] for e in packets] == orders,
             f"packets {[e['n'] for e in packets]}, expected {orders}")
    exact_err = numeric_err = 0.0
    for entry in packets:
        for key in ("t_c", "hbar", "m"):
            _require(entry[key] == p[key], f"n={entry['n']}: {key} "
                     f"{entry[key]}, expected {p[key]}")
        _require(len(entry["rows"]) == len(times),
                 f"n={entry['n']}: {len(entry['rows'])} rows, "
                 f"expected {len(times)}")
        for row, t in zip(entry["rows"], times):
            _close([row["t"]], [t], "t axis")
            ref = closed_moments(entry["n"], p["t_c"], p["hbar"], p["m"], t)
            for key, value in ref.items():
                err = (abs(row[key]) if value == 0.0
                       else _rel(row[key], value))
                exact_err = max(exact_err, err)
            for key in ("mean_x2", "mean_p2"):
                numeric_err = max(numeric_err,
                                  _rel(row[f"numeric_{key}"], ref[key]))
    airy = report["airy"]
    _require(len(airy["rows"]) == len(times),
             f"airy: {len(airy['rows'])} rows, expected {len(times)}")
    for row, t in zip(airy["rows"], times):
        ref = airy_moments(airy["v"], airy["a"], airy["u"], p["m"],
                           p["hbar"], t)
        for key, value in ref.items():
            exact_err = max(exact_err, abs(row[key]) if value == 0.0
                            else _rel(row[key], value))
    _require(exact_err <= 1e-12, f"closed-form moments off by {exact_err:.3g}")
    _require(numeric_err <= 1e-9,
             f"numeric moments off the closed forms by {numeric_err:.3g}")
    _require(report["heisenberg_ok"] is True, "heisenberg_ok is not true")
    _require(report["all_within_tolerance"] is True,
             "all_within_tolerance is not true")
    tol = report["config"]["tol"]
    _require(report["worst_numeric_gap"] <= tol,
             f"worst_numeric_gap {report['worst_numeric_gap']} above {tol}")
    v.digits = digits(max(exact_err, numeric_err))


def check_verify(v, p, path, expect_refusal):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    checks = report["checks"]
    v.rows = len(checks)
    names = [c["name"] for c in checks]
    _require(names == list(_VERIFY_CHECKS), f"checks {names}")
    for c in checks:
        measured, threshold = c["measured"], c["threshold"]
        if c["name"] == "residual_convergence":
            fine = (all(3.6 <= r <= 4.4 for r in measured["ratios"])
                    and measured["smallest_residual"] < 1e-3)
            _require(c["passed"] == fine, "residual_convergence verdict "
                     "disagrees with its ratios")
        elif measured is None:
            _require(bool(c.get("diagnostic")),
                     f"{c['name']}: no measurement and no diagnostic")
        else:
            _require(c["passed"] == (measured / threshold < 1.0),
                     f"{c['name']}: passed={c['passed']} but "
                     f"{measured} vs {threshold}")
    by_name = {c["name"]: c for c in checks}
    oracle = by_name["spectral_oracle"]
    if expect_refusal:
        _require(oracle["measured"] is None and not oracle["passed"]
                 and "box ends at" in oracle.get("diagnostic", ""),
                 "spectral_oracle did not refuse the small box")
    else:
        _require(oracle["passed"], "spectral_oracle failed on a box that "
                 "holds the packet")
    others = [c for c in checks if c["name"] != "spectral_oracle"]
    failing = [c["name"] for c in others if not c["passed"]]
    _require(not failing, f"checks failed: {failing}")
    _require(report["passed"] == all(c["passed"] for c in checks),
             "report 'passed' disagrees with its checks")
    if p["n"] == 2:
        _require(by_name["caustic_peak_identity"]["measured"] is not None,
                 "caustic_peak_identity skipped at n=2")


def validate(item) -> Verdict:
    """Check one artifact; ``item`` has kind, params, fmt, path and, for
    verify, expect_refusal."""
    kind, p, path, fmt = (item["kind"], item["params"], item["path"],
                          item["fmt"])
    v = Verdict(ok=False)
    try:
        if kind == "density":
            check_density(v, p, path, fmt)
        elif kind == "peaks":
            check_peaks(v, p, path, fmt)
        elif kind == "caustic":
            check_caustic(v, p, path, fmt)
        elif kind in ("paths", "phasespace"):
            check_classical(v, p, path, fmt, theta_major=kind == "paths")
        elif kind == "observables":
            check_observables(v, p, path)
        elif kind == "verify":
            check_verify(v, p, path, item["expect_refusal"])
        else:
            raise Rejected(f"no validator for {kind!r}")
    except Rejected as exc:
        v.reason = str(exc)
        return v
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        v.reason = f"unreadable artifact: {type(exc).__name__}: {exc}"
        return v
    v.ok = True
    return v


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        items = json.load(fh)
    verdicts = {item["key"]: asdict(validate(item)) for item in items}
    print(json.dumps(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
