import csv
import io
import json
import math
import os

import numpy as np
import pytest

from hermitewave import _kernels
from hermitewave.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO,
                             EXIT_NO_CONVERGENCE, EXIT_OK, RunConfig,
                             _branch_labels, _cells, _write_table, main)
from hermitewave.semiclassics import (caustic, evolve_path, find_peaks,
                                      initial_conditions)
from hermitewave.wavefunction import MAX_ORDER, WaveParams


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_runconfig_round_trip():
    cfg = RunConfig(command="density", times=(0.0, 1.0, 2.0), out="x.csv")
    wire = json.loads(json.dumps(cfg.to_dict(), sort_keys=True))
    assert wire["times"] == [0.0, 1.0, 2.0]
    # to_dict keeps every field: the JSON form rebuilds the same config
    assert RunConfig(**{**wire, "times": tuple(wire["times"])}) == cfg


def test_density_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["density", "--nx", "65", "--nt", "17", "--tmin", "-4",
            "--tmax", "4"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF endings only


def test_density_layout_and_header(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["density", "--nx", "33", "--nt", "5", "--tmin", "-2",
                 "--tmax", "2", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["x", "t", "density"]
    assert len(rows) == 33 * 5
    # row-major over (t, x): first block shares t, x ascends
    t_first = [float(r[1]) for r in rows[:33]]
    assert set(t_first) == {-2.0}
    xs = [float(r[0]) for r in rows[:33]]
    assert xs == sorted(xs)


def test_density_ridges_trace_hyperbola(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["density", "--nx", "321", "--nt", "13", "--tmin", "-3",
                 "--tmax", "3", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    dx = 16.0 / 320
    per_t = {}
    for r in rows:
        per_t.setdefault(float(r[1]), []).append((float(r[0]), float(r[2])))
    p = WaveParams(n=2)
    for t, block in per_t.items():
        xs = np.array([b[0] for b in block])
        ds = np.array([b[1] for b in block])
        ridge = abs(xs[int(np.argmax(ds))])
        expect = math.sqrt(5.0) * math.hypot(1.0, t)
        assert abs(ridge - expect) <= dx


def test_density_order_zero_single_ridge(tmp_path):
    out = tmp_path / "d0.csv"
    assert main(["density", "--n", "0", "--nx", "101", "--nt", "5",
                 "--tmin", "-2", "--tmax", "2", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    per_t = {}
    for r in rows:
        per_t.setdefault(float(r[1]), []).append((float(r[0]), float(r[2])))
    for t, block in per_t.items():
        xs = [b[0] for b in block]
        ds = [b[1] for b in block]
        assert xs[int(np.argmax(ds))] == pytest.approx(0.0, abs=1e-12)


def test_density_threads_env_equivalence(tmp_path, monkeypatch):
    # more slices than workers, so the pool computes while the writer writes
    for fmt in ("csv", "json"):
        args = ["density", "--nx", "65", "--nt", "23", "--format", fmt]
        written = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"{threads}.{fmt}"
            monkeypatch.setenv("HERMITEWAVE_THREADS", threads)
            assert main(args + ["--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[1:] == written[:1] * 2
    monkeypatch.setenv("HERMITEWAVE_THREADS", "zero")
    assert main(args + ["--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_density_json_format(tmp_path):
    out = tmp_path / "d.json"
    assert main(["density", "--nx", "9", "--nt", "3", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["header"] == ["x", "t", "density"]
    assert len(payload["rows"]) == 27


def test_peaks_rows(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["peaks", "--nt", "3", "--tmin", "0", "--tmax", "2",
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["t", "x_peak", "branch"]
    t0 = [(float(r[1]), int(r[2])) for r in rows if float(r[0]) == 0.0]
    assert [b for _, b in t0] == [-1, 0, 1]
    assert t0[0][0] == pytest.approx(-math.sqrt(5), abs=1e-8)
    assert t0[1][0] == pytest.approx(0.0, abs=1e-8)
    assert t0[2][0] == pytest.approx(math.sqrt(5), abs=1e-8)


def test_peaks_other_orders(tmp_path):
    out = tmp_path / "p1.csv"
    assert main(["peaks", "--n", "1", "--nt", "1", "--tmin", "0",
                 "--tmax", "0", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert [int(r[2]) for r in rows] == [-1, 1]
    assert float(rows[0][1]) == pytest.approx(-math.sqrt(2), abs=1e-8)

    out0 = tmp_path / "p0.csv"
    assert main(["peaks", "--n", "0", "--nt", "1", "--tmin", "0",
                 "--tmax", "0", "--out", str(out0)]) == EXIT_OK
    _, rows0 = read_csv(out0)
    assert len(rows0) == 1
    assert float(rows0[0][1]) == pytest.approx(0.0, abs=1e-10)
    assert int(rows0[0][2]) == 0


def test_caustic_artifact(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["caustic", "--nt", "5", "--tmin", "0", "--tmax", "2",
                 "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["t", "x_plus", "x_minus"]
    last = rows[-1]
    assert float(last[0]) == 2.0
    assert float(last[1]) == pytest.approx(5.0, abs=1e-12)
    assert float(last[2]) == pytest.approx(-5.0, abs=1e-12)


def test_paths_stay_inside_caustic(tmp_path):
    out = tmp_path / "paths.csv"
    assert main(["paths", "--thetas", "64", "--nt", "33", "--tmin", "-4",
                 "--tmax", "4", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["theta", "t", "x", "p"]
    p = WaveParams(n=2)
    for r in rows:
        t, x = float(r[1]), float(r[2])
        assert abs(x) <= caustic(p, t).x_plus + 1e-9


def test_phasespace_on_energy_shell(tmp_path):
    out = tmp_path / "ps.csv"
    assert main(["phasespace", "--thetas", "128", "--nt", "1", "--tmin", "0",
                 "--tmax", "0", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["t", "theta", "x", "p"]
    assert len(rows) == 128
    wp = WaveParams(n=2)
    e = 1.25
    for r in rows:
        x, mom = float(r[2]), float(r[3])
        h = mom ** 2 / (2 * wp.m) + 0.5 * wp.m * wp.omega ** 2 * x ** 2
        assert h == pytest.approx(e, abs=1e-12)


def test_observables_report(tmp_path):
    out = tmp_path / "obs.json"
    assert main(["observables", "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["all_within_tolerance"] is True
    assert rep["worst_numeric_gap"] < 1e-8
    assert rep["heisenberg_ok"] is True
    ns = [pkt["n"] for pkt in rep["packets"]]
    assert ns == [0, 1, 2]
    assert rep["airy"]["v"] == 1.0


def test_observables_impossible_tolerance(tmp_path):
    out = tmp_path / "obs.json"
    assert main(["observables", "--tol", "1e-30",
                 "--out", str(out)]) == EXIT_CHECK_FAILED
    rep = json.loads(out.read_text())
    assert rep["all_within_tolerance"] is False


@pytest.mark.parametrize("extra", [
    ["--n", "650"], ["--tc", "1e-8"], ["--tc", "1e8"], ["--tmax", "1e4"],
    ["--hbar", "1e-150"], ["--hbar", "1e150"]])
def test_observables_scaled_units(tmp_path, extra):
    out = tmp_path / "obs.json"
    assert main(["observables", *extra, "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["worst_numeric_gap"] < 1e-12


def test_observables_overflowing_moments_diagnostic(tmp_path, capsys):
    # x**2 overflows on the support of a packet this late
    out = tmp_path / "obs.json"
    rc = main(["observables", "--tmax", "1e154", "--out", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    assert "moment sums are not finite" in capsys.readouterr().err
    assert not out.exists()


def test_observables_underflowing_closed_form_fails_check(tmp_path):
    # hbar m / t_c = 1e-330 underflows the closed-form <p**2> to 0
    out = tmp_path / "obs.json"
    assert main(["observables", "--hbar", "1e-150", "--mass", "1e-150",
                 "--tc", "1e30", "--out", str(out)]) == EXIT_CHECK_FAILED
    rep = json.loads(out.read_text())
    assert not rep["worst_numeric_gap"] <= 1e-8
    assert rep["all_within_tolerance"] is False


def test_verify_defaults_pass(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    names = [c["name"] for c in rep["checks"]]
    assert names == ["normalization", "t0_identity", "residual_convergence",
                     "spectral_oracle", "caustic_peak_identity"]
    assert all(c["passed"] for c in rep["checks"])


def test_verify_corrupt_phase_fails(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--corrupt-phase",
                 "--out", str(out)]) == EXIT_CHECK_FAILED
    rep = json.loads(out.read_text())
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert failed == {"residual_convergence"}


def test_verify_small_box_refusal_diagnostic(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--xmin", "-5", "--xmax", "5", "--nx", "1024",
                 "--out", str(out)]) == EXIT_CHECK_FAILED
    rep = json.loads(out.read_text())
    oracle = [c for c in rep["checks"] if c["name"] == "spectral_oracle"][0]
    assert oracle["passed"] is False
    assert "box" in oracle["diagnostic"]


def test_verify_nyquist_refusal_diagnostic(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", "--nx", "64", "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    rep = json.loads(out.read_text())
    oracle = [c for c in rep["checks"] if c["name"] == "spectral_oracle"][0]
    assert oracle["measured"] is None and oracle["passed"] is False
    assert "Nyquist" in oracle["diagnostic"]
    others = [c["passed"] for c in rep["checks"] if c is not oracle]
    assert all(others)


def test_verify_past_factorial_overflow(tmp_path):
    # n = 200 once overflowed math.factorial (exit 1 with a traceback) and
    # the scalar closed forms (quadrature stalled at nan, exit 3)
    out = tmp_path / "v.json"
    rc = main(["verify", "--n", "200", "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["normalization"]["passed"] is True
    assert checks["t0_identity"]["passed"] is True
    # the default 80-wide box is too small for this packet
    assert "box ends at" in checks["spectral_oracle"]["diagnostic"]


@pytest.mark.parametrize("kind", ["density", "peaks", "observables", "verify"])
def test_order_above_limit_exits_two(tmp_path, kind):
    out = tmp_path / "x"
    rc = main([kind, "--n", str(MAX_ORDER + 1), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_config_errors(tmp_path):
    assert main(["density", "--n", "-3",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert main(["verify", "--format", "csv"]) == EXIT_CONFIG
    assert main(["observables", "--format", "csv"]) == EXIT_CONFIG
    assert main(["density", "--nx", "1",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert main(["paths", "--thetas", "2",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    # non-finite inputs and a scale alpha(t) that under- or overflows
    for bad in (["density", "--tc", "1e-300"], ["density", "--tc", "1e200"],
                ["density", "--xmin=-inf"], ["density", "--xmax", "nan"],
                ["caustic", "--mass", "nan"], ["peaks", "--hbar", "inf"],
                ["paths", "--tmin=-inf"], ["density", "--tmax", "1e200"],
                ["verify", "--tol", "nan"]):
        out = tmp_path / "bad.out"
        assert main(bad + ["--out", str(out)]) == EXIT_CONFIG, bad
        assert not out.exists(), bad


def test_unwritable_path_is_io_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["caustic", "--nt", "3", "--tmin", "0", "--tmax", "1",
                 "--out", str(missing)]) == EXIT_IO


def test_unknown_subcommand_exits_two():
    assert main(["frobnicate"]) == 2


def stdlib_bytes(fmt, header, rows):
    """The artifact csv.writer or json.dump makes of Python numbers."""
    buf = io.StringIO(newline="")
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        json.dump({"header": list(header), "rows": [list(r) for r in rows]},
                  buf, indent=2, sort_keys=True)
        buf.write("\n")
    return buf.getvalue().encode("utf-8")


_PARAMS = ["--n", "3", "--tc", "1.1", "--hbar", "0.9", "--mass", "0.45",
           "--tmin", "-1.3", "--tmax", "2.1", "--nt", "4", "--xmin", "-5",
           "--xmax", "6", "--nx", "7", "--thetas", "5"]


def reference_rows(kind):
    """Rows of each grid subcommand for ``_PARAMS`` as Python numbers, with
    scalar launch points and free flight per (theta, t) row."""
    p = WaveParams(n=3, t_c=1.1, hbar=0.9, m=0.45)
    times = np.linspace(-1.3, 2.1, 4).tolist()
    angles = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False).tolist()
    xs = np.linspace(-5.0, 6.0, 7)
    if kind == "density":
        return [(x, t, d) for t in times
                for x, d in zip(xs.tolist(), _kernels.density_profile(
                    xs, p.n, t, p.t_c, p.m, p.hbar).tolist())]
    if kind == "peaks":
        return [(t, x, b) for t in times
                for x, b in zip(find_peaks(p, t).tolist(),
                                _branch_labels(p.n + 1))]
    if kind == "caustic":
        return [(t, *caustic(p, t)) for t in times]
    moved = {(th, t): evolve_path(initial_conditions(p, th), t, p.m)
             for th in angles for t in times}
    if kind == "paths":
        return [(th, t, moved[th, t].x, moved[th, t].p)
                for th in angles for t in times]
    return [(t, th, moved[th, t].x, moved[th, t].p)
            for t in times for th in angles]


_HEADERS = {"density": ("x", "t", "density"),
            "peaks": ("t", "x_peak", "branch"),
            "caustic": ("t", "x_plus", "x_minus"),
            "paths": ("theta", "t", "x", "p"),
            "phasespace": ("t", "theta", "x", "p")}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", list(_HEADERS))
def test_grid_artifact_bytes_match_stdlib(tmp_path, kind, fmt):
    out = tmp_path / f"{kind}.{fmt}"
    assert main([kind, *_PARAMS, "--format", fmt,
                 "--out", str(out)]) == EXIT_OK
    rows = reference_rows(kind)
    assert rows
    assert out.read_bytes() == stdlib_bytes(fmt, _HEADERS[kind], rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("x_min,x_max,nx,mirrored", [
    (-6.0, 6.0, 7, True), (-6.0, 6.0, 8, False), (-7.0, 7.0, 8, True)])
def test_symmetric_density_bytes_match_stdlib(tmp_path, fmt, x_min, x_max,
                                              nx, mirrored):
    # linspace(-6, 6, 8) is not exactly symmetric, so its slices are not
    # palindromic and take the plain route; the other two windows mirror
    out = tmp_path / f"d.{fmt}"
    assert main(["density", "--n", "3", "--tc", "1.1", "--hbar", "0.9",
                 "--mass", "0.45", "--tmin", "-1.3", "--tmax", "1.3", "--nt",
                 "5", "--xmin", repr(x_min), "--xmax", repr(x_max), "--nx",
                 str(nx), "--format", fmt, "--out", str(out)]) == EXIT_OK
    p = WaveParams(n=3, t_c=1.1, hbar=0.9, m=0.45)
    xs = np.linspace(x_min, x_max, nx)
    rows = []
    for t in np.linspace(-1.3, 1.3, 5).tolist():
        dens = _kernels.density_profile(xs, p.n, t, p.t_c, p.m, p.hbar)
        bits = dens.view(np.uint64)
        assert np.array_equal(bits, bits[::-1]) == mirrored
        rows += [(x, t, d) for x, d in zip(xs.tolist(), dens.tolist())]
    assert out.read_bytes() == stdlib_bytes(fmt, _HEADERS["density"], rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_caustic_bytes_match_stdlib_across_blocks(tmp_path, fmt):
    out = tmp_path / f"c.{fmt}"
    assert main(["caustic", "--n", "5", "--tmin", "-3", "--tmax", "1.7",
                 "--nt", "2500", "--format", fmt, "--out", str(out)]) == EXIT_OK
    p = WaveParams(n=5)
    rows = [(t, *caustic(p, t)) for t in np.linspace(-3.0, 1.7, 2500).tolist()]
    assert out.read_bytes() == stdlib_bytes(fmt, _HEADERS["caustic"], rows)


def _spelled(values, fmt):
    """Cells as repr (csv.writer) or json.dumps spells each Python value."""
    return list(map(repr if fmt == "csv" else json.dumps, values.tolist()))


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("values", [
    np.array([], dtype=np.float64),
    np.array([0.1]),
    np.array([0.1, 0.1]),
    np.array([0.1, 2.5e-300, 0.1]),
    np.array([1 / 3, 7.0, 7.0, 1 / 3]),
    np.array([-0.0, 1.0, 0.0]),
    np.array([0.0, 1.0, -0.0]),
    np.array([_NAN, _INF, -_INF, 1.5, -_INF, _INF, _NAN]),
    np.array([_NAN, -_INF, -_INF, _NAN]),
    np.array([0.1, 0.2, 0.3]),
    np.array([0.1, 0.2, 0.3, 0.2, 0.1, 0.4])[4::-1],
    np.array([3, -1, 3], dtype=np.int64),
    np.array([0.1, 0.2, 0.1], dtype=np.float32),
], ids=["empty", "one", "two", "three", "four", "neg-zero-left",
        "neg-zero-right", "non-finite-odd", "non-finite-even",
        "not-palindromic", "strided-view", "int64", "float32"])
def test_cells_mirror_matches_plain_formatting(values, fmt):
    assert _cells(values, fmt) == _spelled(values, fmt)


def test_cells_single_value_is_not_duplicated():
    assert _cells(np.array([2.0]), "csv") == ["2.0"]
    assert _cells(np.array([_NAN]), "json") == ["NaN"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_non_finite_and_empty_tables(tmp_path, fmt):
    config = RunConfig(command="density", out=str(tmp_path / "t"), fmt=fmt)
    header = ("x", "t", "density")
    row = (math.nan, math.inf, -math.inf)
    rows = [(-0.0, 1e-300, 5), row, (2.5, 1e16, -7)]
    blocks = [tuple(_cells([v], fmt) for v in rows[0]),
              tuple(_cells(np.array([v]), fmt) for v in row),
              ([], [], []),
              tuple(_cells([v], fmt) for v in rows[2])]
    _write_table(config, header, blocks)
    assert (tmp_path / "t").read_bytes() == stdlib_bytes(fmt, header, rows)
    for empty in ([], [([], [], [])]):
        _write_table(config, header, empty)
        assert (tmp_path / "t").read_bytes() == stdlib_bytes(fmt, header, [])
