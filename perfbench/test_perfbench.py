"""Self-tests of the benchmark: generator, tracer and validators.

Run from the repository root with ``python3 -m pytest perfbench -q``. They
use small grids, so they take seconds, not the benchmark's minutes.
"""

import csv
import json
import math
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402
from hermitewave import cli  # noqa: E402


def small_commands(seed=5):
    """The workload probes, one small run of every subcommand, plus a JSON
    density and a refused verify box."""
    d = workloads.draw(seed)
    return workloads._probes(d) + [
        workloads._cmd(d, "density_json", "density", nt=5, x_min=-8.0,
                       x_max=8.0, nx=33, fmt="json"),
        workloads._cmd(d, "verify_small_box", "verify", window=(0.0, 2.0),
                       nt=3, x_min=-5.0, x_max=5.0, nx=4096),
    ]


def small(label):
    return next(c for c in small_commands() if c.label == label)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One untraced pass of the small commands, with their verdicts."""
    dest = tmp_path_factory.mktemp("artifacts") / "pass0"
    commands = small_commands()
    record = run.run_pass(cli, commands, dest)
    return commands, record


def item(cmd, path):
    return {"kind": cmd.kind, "params": cmd.params, "fmt": cmd.fmt,
            "path": str(path), "expect_refusal": cmd.expect_refusal}


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7)
        assert first == workloads.build(name, 7)
        assert first != workloads.build(name, 8)
        assert {c.kind for c in first} == set(workloads.SUBCOMMANDS)


def test_every_seed_has_a_clear_expected_exit_code():
    for seed in range(300):
        for name in workloads.WORKLOADS:
            workloads.build(name, seed)
        refused = [c for c in workloads.build("moment_check", seed)
                   if c.expect_refusal]
        assert [c.label for c in refused] == ["verify_small_box"]
        assert refused[0].expect_exit == 1


def test_argv_carries_every_parameter():
    cmd = workloads.build("grid_write", 3)[0]
    argv = cmd.argv("out.csv")
    for flag in ("--n", "--tc", "--hbar", "--mass", "--xmin", "--xmax",
                 "--nx", "--tmin", "--tmax", "--nt"):
        assert flag in argv


# -- tracer ------------------------------------------------------------------


def test_traced_pass_writes_identical_bytes_and_restores(tmp_path,
                                                         artifacts):
    commands, plain = artifacts
    tracer = tracing.Tracer()
    with tracer:
        patched = tracer.patched()
        assert len(patched) > 20
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
        traced = run.run_pass(cli, commands, tmp_path / "traced", tracer)
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    assert traced["hashes"] == plain["hashes"]
    assert set(plain["hashes"]) == {c.label for c in commands
                                    if c.kind in workloads.GRID_KINDS}
    for cmd in commands:
        assert traced["results"][cmd.label][0] == cmd.expect_exit


def test_tracer_restores_after_a_failing_command(tmp_path, monkeypatch):
    originals = {name: getattr(cli, name) for name in
                 ("find_peaks", "table_report", "ThreadPoolExecutor")}

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "find_peaks", broken)
    originals["find_peaks"] = broken
    cmd = small("probe_peaks")
    with tracing.Tracer() as tracer:
        code, error, _ = run.run_command(cli, cmd, tmp_path, tracer)
    assert code is None and "RuntimeError" in error
    for name, original in originals.items():
        assert getattr(cli, name) is original


def test_pool_thread_spans_attach_to_the_cli_span(tmp_path, monkeypatch):
    monkeypatch.setenv("HERMITEWAVE_THREADS", "3")
    cmd = small("probe_density")
    with tracing.Tracer() as tracer:
        run.run_command(cli, cmd, tmp_path, tracer)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [(s.layer, s.name) for s in roots] == [("cli", "density")]
    kernels = [s for s in tracer.spans if s.layer == "kernels"]
    assert len(kernels) == cmd.params["nt"]
    main = threading.main_thread().ident
    assert all(s.thread != main for s in kernels)
    assert all(s.parent is roots[0] for s in kernels)
    assert tracer.counts["kernels.calls"] == cmd.params["nt"]


def test_layer_self_times_sum_to_the_traced_commands(tmp_path):
    commands = small_commands()
    with tracing.Tracer() as tracer:
        record = run.run_pass(cli, commands, tmp_path / "p", tracer)
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    total = sum(record["layers"].values())
    assert total == pytest.approx(roots, rel=1e-9)
    assert roots <= record["wall"]
    gap = run.unattributed(record)
    assert 0.0 <= gap <= run.UNATTRIBUTED_SHARE * record["wall"]
    counts = record["counts"]
    peaks = small("probe_peaks").params
    assert counts["semiclassics.ridges_found"] == ((peaks["n"] + 1)
                                                   * peaks["nt"])
    assert counts["propagator_oracle.refusals"] == 1
    assert counts["core_math.integrate_calls"] > 0
    assert counts["wavefunction.scalar_calls"] > 0


def test_overlapping_children_are_charged_once():
    parent = tracing.Span("cli", "x", None)
    parent.start, parent.end = 0.0, 10.0
    spans = [parent]
    for lo, hi in ((1.0, 4.0), (3.0, 5.0), (8.0, 12.0)):
        child = tracing.Span("kernels", "k", parent)
        child.start, child.end = lo, hi
        spans.append(child)
    own = tracing.self_times(spans)
    assert own[id(parent)] == pytest.approx(10.0 - 4.0 - 2.0)
    layers = tracing.layer_self_times(spans)
    assert layers["kernels"] == pytest.approx(3.0 + 1.0 + 2.0)
    assert sum(layers.values()) == pytest.approx(10.0)


# -- validators --------------------------------------------------------------


def test_validators_accept_the_program_output(artifacts):
    commands, record = artifacts
    for cmd in commands:
        verdict = validate.validate(item(cmd, record["dir"] / cmd.filename))
        assert verdict.ok, (cmd.label, verdict.reason)
        assert verdict.rows > 0
    assert validate.digits(0.0) == pytest.approx(-math.log10(2.0 ** -53))


def test_ridge_reference_matches_the_n2_closed_form():
    ref = validate.ridge_reference(2)
    assert ref == pytest.approx([-math.sqrt(2.5), 0.0, math.sqrt(2.5)],
                                abs=1e-15)
    big = validate.ridge_reference(120)
    assert len(big) == 121 and big[60] == pytest.approx(0.0, abs=1e-12)


def _rewrite_csv(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _perturb(rows, row, col, factor=1.0 + 1e-6):
    rows[row][col] = repr(float(rows[row][col]) * factor + 1e-9)
    return rows


CSV_DAMAGE = [
    ("probe_density", "dropped row", lambda r: r[:5] + r[6:]),
    ("probe_density", "perturbed value", lambda r: _perturb(r, 40, 2)),
    ("probe_peaks", "missing ridge", lambda r: r[:2] + r[3:]),
    ("probe_peaks", "perturbed value", lambda r: _perturb(r, 1, 1)),
    ("probe_caustic", "perturbed value", lambda r: _perturb(r, 3, 1)),
    ("probe_paths", "dropped row", lambda r: r[:-1]),
    ("probe_paths", "perturbed value", lambda r: _perturb(r, 7, 3)),
    ("probe_phasespace", "perturbed value", lambda r: _perturb(r, 9, 2)),
]


@pytest.mark.parametrize("label,damage,edit", CSV_DAMAGE,
                         ids=[f"{a}-{b}" for a, b, _ in CSV_DAMAGE])
def test_validators_reject_damaged_grids(tmp_path, artifacts, label, damage,
                                         edit):
    commands, record = artifacts
    cmd = next(c for c in commands if c.label == label)
    damaged = tmp_path / cmd.filename
    _rewrite_csv(record["dir"] / cmd.filename, damaged, edit)
    verdict = validate.validate(item(cmd, damaged))
    assert not verdict.ok, damage


def _edit_json(src, dst, edit):
    payload = json.loads(Path(src).read_text())
    edit(payload)
    Path(dst).write_text(json.dumps(payload))


def _bump_numeric(report):
    report["packets"][2]["rows"][0]["numeric_mean_x2"] *= 1.0 + 1e-6


def _fake_pass(report):
    check = report["checks"][0]
    check["measured"] = 2.0 * check["threshold"]


def _silent_refusal(report):
    report["checks"][3].pop("diagnostic")


JSON_DAMAGE = [
    ("density_json", "dropped row", lambda r: r["rows"].pop(3)),
    ("probe_observables", "perturbed moment", _bump_numeric),
    ("probe_observables", "missing packet", lambda r: r["packets"].pop()),
    ("probe_verify", "measurement above its threshold", _fake_pass),
    ("verify_small_box", "refusal without diagnostic", _silent_refusal),
]


@pytest.mark.parametrize("label,damage,edit", JSON_DAMAGE,
                         ids=[f"{a}-{b}" for a, b, _ in JSON_DAMAGE])
def test_validators_reject_damaged_reports(tmp_path, artifacts, label, damage,
                                           edit):
    commands, record = artifacts
    cmd = next(c for c in commands if c.label == label)
    damaged = tmp_path / cmd.filename
    _edit_json(record["dir"] / cmd.filename, damaged, edit)
    verdict = validate.validate(item(cmd, damaged))
    assert not verdict.ok, damage


def test_missing_artifact_is_rejected(tmp_path):
    cmd = small("probe_density")
    verdict = validate.validate(item(cmd, tmp_path / "absent.csv"))
    assert not verdict.ok and "unreadable" in verdict.reason


def _drop_top_ridge(shift=0.0):
    """Drop the highest ridge of every slice and relabel the rest, as the
    program does when it loses ridges; ``shift`` then moves one of them."""
    def edit(rows):
        header, body = rows[0], rows[1:]
        out = [header]
        for t in dict.fromkeys(r[0] for r in body):
            kept = [r for r in body if r[0] == t][:-1]
            for r, label in zip(kept, validate.branch_labels(len(kept))):
                out.append([r[0], r[1], repr(float(label))])
        out[1][1] = repr(float(out[1][1]) + shift)
        return out
    return edit


def test_ridge_shortfall_is_its_own_verdict(tmp_path, artifacts):
    commands, record = artifacts
    cmd = small("probe_peaks")
    short = tmp_path / "short.csv"
    _rewrite_csv(record["dir"] / cmd.filename, short, _drop_top_ridge())
    verdict = validate.validate(item(cmd, short))
    assert not verdict.ok and verdict.digits > 12
    assert verdict.defect == "2 of 3 ridges per slice, missing [2]"
    moved = tmp_path / "moved.csv"
    _rewrite_csv(record["dir"] / cmd.filename, moved, _drop_top_ridge(1e-6))
    verdict = validate.validate(item(cmd, moved))
    assert not verdict.ok and verdict.defect is None
    assert "off the reference" in verdict.reason


def test_only_the_exact_known_defect_is_excused(artifacts):
    commands, record = artifacts
    cmd = small("probe_peaks")
    flagged = workloads.Command(cmd.label, cmd.kind, cmd.params,
                                known_defect="3 of 4, missing [3]")
    listed = [flagged if c.label == cmd.label else c for c in commands]

    def found(defect, code=0):
        verdicts = {f"0/{c.label}": {"ok": c.label != cmd.label,
                                     "reason": "short", "defect": defect}
                    for c in commands}
        results = dict(record["results"])
        results[cmd.label] = (code, None, 0.0)
        return run.failures(listed, [dict(record, results=results)],
                            verdicts)

    assert found("3 of 4, missing [3]") == [(0, flagged, "short", True)]
    assert found("2 of 4, missing [2, 3]") == [(0, flagged, "short", False)]
    assert found(None) == [(0, flagged, "short", False)]
    assert found("3 of 4, missing [3]", code=1) == [
        (0, flagged, "exit 1, expected 0", False)]


def test_peaks_n120_loses_exactly_the_documented_ridges(tmp_path):
    cmd = next(c for c in workloads.build("ridge_scan", 11)
               if c.label == "peaks_n120")
    assert cmd.known_defect == workloads.RIDGE_LOSS_N120
    cmd = workloads.Command(cmd.label, cmd.kind, dict(cmd.params, nt=2))
    assert cli.main(cmd.argv(str(tmp_path / cmd.filename))) == 0
    verdict = validate.validate(item(cmd, tmp_path / cmd.filename))
    assert not verdict.ok and verdict.defect == workloads.RIDGE_LOSS_N120


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    commands = small_commands()
    plain = run.run_pass(cli, commands, tmp_path / "plain")
    with tracing.Tracer() as tracer:
        traced = run.run_pass(cli, commands, tmp_path / "traced", tracer)
    verdicts = {f"0/{c.label}": {"ok": True, "digits": 15.0}
                for c in commands}
    e2e = run.end_to_end([0.2], [plain], 100, [], len(commands), verdicts)
    assert [(k, run.E2E_UNITS[k]) for k in e2e] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = run.per_layer([plain, traced], 100, [], len(commands))
    assert [(k, unit) for k, (_, unit) in layers.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]]
