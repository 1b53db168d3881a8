import csv
import io
import json
import math
import os
import stat
import threading
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hermitewave import _kernels
from hermitewave.cli import (_COMMANDS, _SHARED_FLAGS, _option,
                             EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO,
                             EXIT_NO_CONVERGENCE, EXIT_OK, RunConfig,
                             _branch_labels, _cells, _publish,
                             _table_text, _write_json, main)
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


def test_density_far_outside_the_packet_is_zero(tmp_path):
    # sqrt(alpha) * x overflows to inf, where the recurrence would make nan
    out = tmp_path / "far.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["density", "--n", "3", "--mass", "1e200", "--xmin=-1e300",
                     "--xmax", "1e300", "--nx", "5", "--nt", "2",
                     "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert [float(r[2]) for r in rows] == [0.0] * 10


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


@pytest.mark.parametrize("n", [120, 150, 186, 189, 200, 400, MAX_ORDER])
def test_peaks_writes_every_ridge_at_high_orders(tmp_path, capsys, n):
    # from n = 189 the raw Hermite recurrence overflows inside the scan;
    # the normalized one answers up to the order limit
    out = tmp_path / "p.csv"
    assert main(["peaks", "--n", str(n), "--nt", "2", "--out",
                 str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    assert [int(r[2]) for r in rows] == _branch_labels(n + 1) * 2
    assert len({r[0] for r in rows}) == 2


def test_peaks_solves_the_ridges_once_per_command(tmp_path, monkeypatch):
    # the ridges in xi hold at every t, so 81 slices cost what one does
    calls = [0]
    original = _kernels.hermite_function_pair

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(_kernels, "hermite_function_pair", counted)
    counts = []
    for nt in (1, 81):
        calls[0] = 0
        assert main(["peaks", "--n", "8", "--nt", str(nt), "--out",
                     str(tmp_path / f"p{nt}.csv")]) == EXIT_OK
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


def test_failed_rerun_keeps_the_good_artifact(tmp_path):
    out = tmp_path / "r.json"
    assert main(["observables", "--out", str(out)]) == EXIT_OK
    good = out.read_bytes()
    # hbar**2 and (hbar / m)**2 overflow
    assert main(["observables", "--hbar", "1e160", "--mass", "1e-10",
                 "--out", str(out)]) == EXIT_NO_CONVERGENCE
    assert out.read_bytes() == good
    assert list(tmp_path.glob("*.part")) == []


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
                ["observables", "--tol", "nan"]):
        out = tmp_path / "bad.out"
        assert main(bad + ["--out", str(out)]) == EXIT_CONFIG, bad
        assert not out.exists(), bad


@pytest.mark.parametrize("command, flag, value, rest", [
    ("density", "--tmin", "-1e-3", ["--tmax", "1", "--nt", "3", "--nx", "5"]),
    ("density", "--xmin", "-2e0", ["--nt", "1", "--nx", "5"]),
    ("peaks", "--tmin", "-5e-1", ["--nt", "1"])])
def test_negative_value_in_any_float_spelling(tmp_path, command, flag, value,
                                              rest):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main([command, flag, value, *rest, "--out", str(spaced)]) == EXIT_OK
    assert main([command, f"{flag}={value}", *rest,
                 "--out", str(joined)]) == EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("argv", [
    *[pytest.param([name, "--tmin", "-1e308", "--tmax", "1e308", "--nt", "3"],
                   id=f"{name}-t") for name in _COMMANDS],
    pytest.param(["density", "--xmin", "-1e308", "--xmax", "1e308", "--nx",
                  "5"], id="density-x")])
def test_window_whose_span_overflows_exits_two(tmp_path, capsys, argv):
    # each bound is finite, their difference is not
    out = tmp_path / "w.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    axis = "x" if "--xmin" in argv else "t"
    assert err == f"config error: {axis}_max - {axis}_min overflows double " \
                  f"range\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("xmin, xmax", [("0", "80"), ("-39", "41")])
def test_verify_box_off_centre_exits_two(tmp_path, capsys, xmin, xmax):
    # the oracle's grid is centred: [0, 80] would be checked as [-40, 40)
    out = tmp_path / "v.json"
    assert main(["verify", "--xmin", xmin, "--xmax", xmax,
                 "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: verify's box must be "
                                   "centred on x = 0")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_negative_infinite_bound_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "d.csv"
    argv = ["density", "--tmin", "-inf", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: grid bounds must be finite\n"
    assert not out.exists()


def test_density_slices_run_on_the_calling_thread(tmp_path, monkeypatch):
    seen = []
    profile = _kernels.density_profile

    def recorded(*args):
        seen.append((threading.get_ident(), np.geterr()))
        return profile(*args)

    monkeypatch.setattr(_kernels, "density_profile", recorded)
    assert main(["density", "--nx", "9", "--nt", "7",
                 "--out", str(tmp_path / "d.csv")]) == EXIT_OK
    assert len(seen) == 7
    for ident, state in seen:
        assert ident == threading.get_ident()
        assert {k: state[k] for k in ("over", "divide", "invalid")} == dict(
            over="raise", divide="raise", invalid="raise")


def test_interrupt_inside_a_block_leaves_no_file(tmp_path, monkeypatch):
    profile = _kernels.density_profile
    slices = []

    def interrupted(*args):  # the second slice is interrupted
        slices.append(args)
        if len(slices) == 2:
            raise KeyboardInterrupt
        return profile(*args)

    monkeypatch.setattr(_kernels, "density_profile", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["density", "--nx", "9", "--nt", "3",
              "--out", str(tmp_path / "d.csv")])
    assert len(slices) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message", [
    "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
    "and data type float64", ""])
def test_grid_too_large_for_memory_exits_two(tmp_path, capsys, monkeypatch,
                                             message):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(_kernels, "density_profile", exhausted)
    assert main(["density", "--nx", "9", "--nt", "2",
                 "--out", str(tmp_path / "d.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {message or 'MemoryError'}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_out_that_is_not_a_regular_file_exits_four(tmp_path, capsys, kind):
    target = tmp_path / kind
    if kind == "fifo":
        os.mkfifo(target)
    else:
        target.mkdir()
    # a reader that never blocks, so that a writer opening the FIFO does
    # not wait for one
    reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK) \
        if kind == "fifo" else None
    try:
        assert main(["caustic", "--nt", "3", "--out", str(target)]) == EXIT_IO
        if reader is not None:
            assert os.read(reader, 4096) == b""
    finally:
        if reader is not None:
            os.close(reader)
    err = capsys.readouterr().err
    assert err == f"i/o error: {target} exists and is not a regular file\n"
    assert (stat.S_ISFIFO if kind == "fifo" else stat.S_ISDIR)(
        os.lstat(target).st_mode)
    assert list(tmp_path.iterdir()) == [target]


def test_symlinked_out_updates_the_file_it_points_to(tmp_path, capsys):
    real = tmp_path / "data" / "real.csv"
    real.parent.mkdir()
    real.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert main(["caustic", "--nt", "3", "--out", str(link)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {link}\n"
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes().startswith(b"t,x_plus,x_minus\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "data", "link.csv", "real.csv"]


def test_report_bytes_match_json_dump(tmp_path, capsys):
    payload = {"z": math.nan, "a": [math.inf, -math.inf, -0.0, 1e-300],
               "nested": {"\u03c8": "Schr\u00f6dinger \u221e", "b": {
                   "c": [None, True, 3], "d": {}}}, "\u00e9": []}
    out = tmp_path / "r.json"
    assert _write_json(str(out), payload) == EXIT_OK
    buf = io.StringIO(newline="")
    json.dump(payload, buf, indent=2, sort_keys=True)
    buf.write("\n")
    assert out.read_bytes() == buf.getvalue().encode("utf-8")
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_publish_replaces_the_target_only_when_complete(tmp_path, capsys):
    out = tmp_path / "a.txt"
    out.write_bytes(b"before\n")

    def chunks():
        yield "half "
        assert out.read_bytes() == b"before\n"
        assert [p.name for p in tmp_path.glob("*.part")] == [
            f"a.txt.{os.getpid()}.part"]
        yield "done\n"

    assert _publish(str(out), chunks()) == EXIT_OK
    assert out.read_bytes() == b"half done\n"
    assert list(tmp_path.iterdir()) == [out]
    assert capsys.readouterr().out == f"wrote {out}\n"


# stdout of each command at its default arguments; {gap} is the report's
# worst_numeric_gap
_DEFAULT_STDOUT = {
    "density": ["wrote density.csv"], "peaks": ["wrote peaks.csv"],
    "caustic": ["wrote caustic.csv"], "paths": ["wrote paths.csv"],
    "phasespace": ["wrote phasespace.csv"],
    "observables": ["wrote observables.json",
                    "worst numeric gap {gap:.3e} (tol 1.000e-08)"],
    "verify": ["ok   normalization", "ok   t0_identity",
               "ok   residual_convergence", "ok   spectral_oracle",
               "ok   caustic_peak_identity", "wrote verify.json"]}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_stdout_at_default_arguments(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    assert main([name]) == EXIT_OK
    gap = (json.loads((tmp_path / "observables.json").read_text())
           ["worst_numeric_gap"] if name == "observables" else None)
    assert capsys.readouterr().out.splitlines() == [
        line.format(gap=gap) for line in _DEFAULT_STDOUT[name]]
    assert [p.name for p in tmp_path.iterdir()] == [
        f"{name}.{_COMMANDS[name].formats[0]}"]


def test_unwritable_path_is_io_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["caustic", "--nt", "3", "--tmin", "0", "--tmax", "1",
                 "--out", str(missing)]) == EXIT_IO


def test_unknown_subcommand_exits_two():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["peaks", "--nx", "5"], ["verify", "--tol", "1e-3"],
    ["observables", "--xmin", "-3"], ["density", "--thetas", "9"],
    ["caustic", "--corrupt-phase"], ["observables", "--format", "csv"],
    ["verify", "--format", "csv"]])
def test_flag_the_command_does_not_read_exits_two(tmp_path, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # hbar**2 and (hbar / m)**2 overflow
    ["observables", "--hbar", "1e160", "--mass", "1e-10"],
    ["observables", "--n", "50", "--tc", "87.29", "--hbar", "15.27",
     "--mass", "1.36e-192", "--tmin", "-75.5", "--tmax", "4.5e-196",
     "--nt", "3"],
    # the oracle's m * m underflows to 0
    ["verify", "--n", "20", "--tc", "21.46", "--hbar", "121.5", "--mass",
     "4.85e-200", "--tmin", "-0.0188", "--tmax", "0.91", "--nt", "3",
     "--nx", "64"],
    # the residual at half the step is exactly 0
    ["verify", "--n", "1", "--tc", "3", "--hbar", "1000", "--mass", "1e30",
     "--tmin", "-0.001", "--tmax", "1", "--nt", "3", "--nx", "64"],
    # numpy overflows in the oracle's moments of a box 1e155 wide
    ["verify", "--n", "0", "--mass", "1", "--tmin=-1", "--tmax=-1", "--nt",
     "1", "--xmin=-5e154", "--xmax=5e154", "--nx", "64"]])
def test_value_outside_double_range_exits_three(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # sqrt(2 m E) overflows, and inf * sin(0) would be written as nan
    ["paths", "--n", "2", "--tc", "0.5", "--hbar", "1e30", "--mass", "1e300",
     "--tmin", "-1", "--tmax", "1e-30", "--nt", "3", "--thetas", "8"],
    # m w**2 underflows to 0
    ["phasespace", "--n", "20", "--tc", "2.48e135", "--hbar", "1.94e-279",
     "--mass", "4.75e-128", "--thetas", "8"]])
def test_energy_shell_outside_double_range_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "p.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "semi-axes" in err and err.count("\n") == 1
    assert not out.exists()


def _magnitudes(decades=300.0):
    return st.floats(-decades, decades).map(lambda e: 10.0 ** e)


def _signed(decades=300.0):
    return st.tuples(st.sampled_from((-1.0, 0.0, 1.0)),
                     _magnitudes(decades)).map(lambda sv: sv[0] * sv[1])


# Values each flag is drawn from: parameters log-uniform in [1e-300, 1e300]
# and sizes small enough that one run takes milliseconds. The two ends of an
# ordered pair are drawn from one strategy and sorted.
_DRAWS = {"n": st.integers(0, 50), "t_c": _magnitudes(),
          "hbar": _magnitudes(), "m": _magnitudes(), "nt": st.integers(1, 3),
          "nx": st.sampled_from((17, 64)), "thetas": st.integers(3, 8),
          "tol": _magnitudes(), "corrupt_phase": st.booleans(),
          "t_min": _signed(), "x_min": _signed()}
_ORDERED = {"t_min": "t_max", "x_min": "x_max"}


@st.composite
def _argv(draw, name, draws=_DRAWS):
    command = _COMMANDS[name]
    argv = [name, "--format", draw(st.sampled_from(command.formats))]
    for flag in _SHARED_FLAGS + command.flags:
        if name == "verify" and flag == "x_min":  # verify takes a centred box
            half = repr(draw(_magnitudes()))
            argv += ["--xmin", "-" + half, "--xmax", half]
        elif flag in _ORDERED:
            lo, hi = sorted((draw(draws[flag]), draw(draws[flag])))
            argv += [_option(flag), repr(lo), _option(_ORDERED[flag]),
                     repr(hi)]
        elif flag == "corrupt_phase":
            argv += ["--corrupt-phase"] if draw(draws[flag]) else []
        elif flag in draws:
            argv += [_option(flag), repr(draw(draws[flag]))]
    return argv


_SENTINEL = b"left by an earlier run\n"
# Each assertion names its argv, so a failing example is reported as drawn;
# shrinking it could take minutes of reruns.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _assert_all_or_nothing(folder, out, rc, argv):
    """Exits 0 and 1 publish the artifact; any other leaves ``out`` as it
    was. No exit leaves a part file."""
    published = rc in (EXIT_OK, EXIT_CHECK_FAILED)
    assert (out.read_bytes() != _SENTINEL) == published, (rc, argv)
    assert list(folder.glob("*.part")) == [], argv


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_fuzzed_argv_exits_with_a_documented_code(tmp_path, name):
    out = tmp_path / "fuzz.out"

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None, phases=_NO_SHRINK)
    @given(argv=_argv(name))
    def run(argv):
        out.write_bytes(_SENTINEL)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--out", str(out)])
        _assert_all_or_nothing(tmp_path, out, rc, argv)
        assert rc in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG,
                      EXIT_NO_CONVERGENCE, EXIT_IO), argv
        if rc == EXIT_OK and name in _HEADERS:
            assert "nan" not in out.read_text().lower(), argv

    run()


# Every accepted order, log-uniform, and parameters within 50 decades of 1,
# where alpha(t) stays inside double range and the config is accepted.
_PEAKS_DRAWS = {**_DRAWS, "t_c": _magnitudes(50.0), "hbar": _magnitudes(50.0),
                "m": _magnitudes(50.0), "t_min": _signed(50.0),
                "n": st.integers(0, 1000).map(
                    lambda k: round((MAX_ORDER + 1) ** (k / 1000)) - 1)}


def test_fuzzed_peaks_up_to_the_order_limit(tmp_path):
    out = tmp_path / "fuzz.out"

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None, phases=_NO_SHRINK)
    @given(argv=_argv("peaks", _PEAKS_DRAWS))
    def run(argv):
        out.write_bytes(_SENTINEL)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--out", str(out)])
        _assert_all_or_nothing(tmp_path, out, rc, argv)
        assert rc == EXIT_OK, argv
        n = int(argv[argv.index("--n") + 1])
        nt = int(argv[argv.index("--nt") + 1])
        rows = (json.loads(out.read_text())["rows"] if "json" in argv
                else read_csv(out)[1])
        assert [int(r[2]) for r in rows] == _branch_labels(n + 1) * nt, argv

    run()


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
           "--tmin", "-1.3", "--tmax", "2.1", "--nt", "4"]
# the flags each grid subcommand reads beyond the shared ones
_OWN_PARAMS = {"density": ["--xmin", "-5", "--xmax", "6", "--nx", "7"],
               "paths": ["--thetas", "5"], "phasespace": ["--thetas", "5"]}


def reference_rows(kind):
    """Rows of each grid subcommand for ``_PARAMS`` and ``_OWN_PARAMS`` as
    Python numbers, with scalar launch points and free flight per (theta, t)
    row."""
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
    assert main([kind, *_PARAMS, *_OWN_PARAMS.get(kind, ()), "--format", fmt,
                 "--out", str(out)]) == EXIT_OK
    rows = reference_rows(kind)
    assert rows
    assert out.read_bytes() == stdlib_bytes(fmt, _HEADERS[kind], rows)


def test_peaks_rows_are_the_per_slice_find_peaks_rows(tmp_path):
    out = tmp_path / "peaks.out"

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(0, 60), t_c=_magnitudes(6.0),
           hbar=_magnitudes(6.0), m=_magnitudes(6.0),
           window=st.tuples(_signed(6.0), _signed(6.0)).map(sorted),
           nt=st.integers(1, 4), fmt=st.sampled_from(("csv", "json")))
    def run(n, t_c, hbar, m, window, nt, fmt):
        argv = ["peaks", "--n", str(n), "--tc", repr(t_c), "--hbar",
                repr(hbar), "--mass", repr(m), "--tmin", repr(window[0]),
                "--tmax", repr(window[1]), "--nt", str(nt), "--format", fmt,
                "--out", str(out)]
        assert main(argv) == EXIT_OK, argv
        p = WaveParams(n=n, t_c=t_c, hbar=hbar, m=m)
        times = RunConfig(command="peaks", t_min=window[0],
                          t_max=window[1], nt=nt).grid().ts().tolist()
        rows = [(t, x, b) for t in times
                for x, b in zip(find_peaks(p, t).tolist(),
                                _branch_labels(n + 1))]
        assert out.read_bytes() == stdlib_bytes(fmt, _HEADERS["peaks"],
                                                rows), argv

    run()


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
def test_writer_non_finite_and_empty_tables(fmt):
    header = ("x", "t", "density")
    row = (math.nan, math.inf, -math.inf)
    rows = [(-0.0, 1e-300, 5), row, (2.5, 1e16, -7)]
    blocks = [tuple(_cells([v], fmt) for v in rows[0]),
              tuple(_cells(np.array([v]), fmt) for v in row),
              ([], [], []),
              tuple(_cells([v], fmt) for v in rows[2])]
    text = "".join(_table_text(fmt, header, blocks))
    assert text.encode("utf-8") == stdlib_bytes(fmt, header, rows)
    for empty in ([], [([], [], [])]):
        text = "".join(_table_text(fmt, header, empty))
        assert text.encode("utf-8") == stdlib_bytes(fmt, header, [])
