"""End-to-end benchmark of the hermitewave command line.

Run from the repository root:

    python3 perfbench/run.py --workload grid_write --seed 1 --seconds 30 --trace 0

One closed-loop client drives ``hermitewave.cli.main`` in this process,
running the workload's commands one after another (a pass) until the time
budget is spent. Every artifact is checked by ``validate.py`` in a child
process after the timed passes; grid artifacts must also be byte-identical
across passes.

``--trace 0`` prints the end-to-end metrics of untraced passes. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (see ``tracing.py``). Lines before the last one report the run
environment, every metric computed, and each failure; the last line is one
JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer, layer_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 15
# Largest share of a traced pass that the layer self times may leave
# uncovered: only the time between commands lies outside every span.
UNATTRIBUTED_SHARE = 0.01
# Timed inside a fresh interpreter: import the CLI and build its parser.
SETUP_PROBE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hermitewave import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--help"])
print(time.perf_counter() - t0)
sys.exit(code)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s",
             "peak_rss_mb": "MB", "pass_ratio": "ratio",
             "accuracy_digits": "digits"}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


class SetupProbe:
    """Fresh-interpreter set-up times, taken in bursts between passes so
    that they see the same drift of host speed as the passes do."""

    def __init__(self, samples):
        self.samples = samples
        self.times = []
        self.spent = 0.0
        self._spawn()  # may compile bytecode; not a sample

    def _spawn(self):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def catch_up(self, share):
        """Take samples until ``share`` of them are taken."""
        t0 = perf_counter()
        while len(self.times) < round(self.samples * min(share, 1.0)):
            self.times.append(self._spawn())
        self.spent += perf_counter() - t0


def run_command(cli, cmd, dest, tracer):
    """Run one command; returns (exit code or None, error text, seconds)."""
    argv = cmd.argv(str(dest / cmd.filename))
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span("cli", cmd.kind, cli.main, argv)
        except Exception as exc:  # an escaped exception is a failed command
            code, error = None, f"uncaught {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return code, error, elapsed


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_pass(cli, commands, dest, tracer=None):
    dest.mkdir(parents=True)
    gc.collect()
    if tracer is not None:
        tracer.reset()
    results = {}
    t0 = perf_counter()
    for cmd in commands:
        results[cmd.label] = run_command(cli, cmd, dest, tracer)
    wall = perf_counter() - t0
    record = {"wall": wall, "results": results, "hashes": {}, "bytes": 0,
              "dir": dest, "traced": tracer is not None}
    for cmd in commands:
        path = dest / cmd.filename
        if path.exists():
            record["bytes"] += path.stat().st_size
            if cmd.kind in workloads.GRID_KINDS:
                record["hashes"][cmd.label] = _sha256(path)
    if tracer is not None:
        record["layers"] = layer_self_times(tracer.spans)
        record["counts"] = dict(tracer.counts)
        record["subcommands"] = _subcommand_times(tracer.spans)
    return record


def _subcommand_times(spans):
    totals = {kind: 0.0 for kind in workloads.SUBCOMMANDS}
    for s in spans:
        if s.parent is None and s.layer == "cli":
            totals[s.name] += s.end - s.start
    return totals


def run_passes(cli, commands, seconds, trace, workdir, setup):
    """Passes until the budget is spent: at least two untraced passes, or
    with tracing one untraced and one traced, alternating. After each pass
    ``setup`` takes its share of samples; their time is not in the budget."""
    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        dest = workdir / f"pass{len(passes)}"
        if tracer is None:
            passes.append(run_pass(cli, commands, dest))
        else:
            with tracer:
                passes.append(run_pass(cli, commands, dest, tracer))
        if len(passes) > 1:
            for cmd in commands:
                if cmd.kind in workloads.GRID_KINDS:
                    path = dest / cmd.filename
                    if path.exists():
                        path.unlink()
        elapsed = perf_counter() - start - setup.spent
        setup.catch_up(elapsed / seconds)
        if len(passes) < 2:
            continue
        longest = max(p["wall"] for p in passes)
        if elapsed + longest > seconds:
            setup.catch_up(1.0)
            return passes


def validate_all(commands, passes, workdir):
    """Verdicts keyed "<pass>/<label>": every artifact of the first pass,
    and the report artifacts of the later ones."""
    items = []
    for k, record in enumerate(passes):
        for cmd in commands:
            if k and cmd.kind in workloads.GRID_KINDS:
                continue
            items.append({"key": f"{k}/{cmd.label}", "kind": cmd.kind,
                          "params": cmd.params, "fmt": cmd.fmt,
                          "expect_refusal": cmd.expect_refusal,
                          "path": str(record["dir"] / cmd.filename)})
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps(items))
    proc = subprocess.run([sys.executable, str(HERE / "validate.py"),
                           str(manifest)], capture_output=True, text=True,
                          timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"validator crashed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(commands, passes, verdicts):
    """(pass, command, reason, known) for every failed command run; known
    when the validator reports exactly the command's ``known_defect``."""
    found = []
    for k, record in enumerate(passes):
        for cmd in commands:
            code, error, _ = record["results"][cmd.label]
            verdict = verdicts[f"{0 if cmd.kind in workloads.GRID_KINDS else k}"
                               f"/{cmd.label}"]
            known = False
            if error is not None:
                reason = error
            elif code != cmd.expect_exit:
                reason = f"exit {code}, expected {cmd.expect_exit}"
            elif (cmd.kind in workloads.GRID_KINDS and
                  record["hashes"].get(cmd.label)
                  != passes[0]["hashes"].get(cmd.label)):
                reason = "bytes differ from the first pass"
            elif not verdict["ok"]:
                reason = verdict["reason"]
                known = (cmd.known_defect is not None
                         and verdict.get("defect") == cmd.known_defect)
            else:
                continue
            found.append((k, cmd, reason, known))
    return found


def end_to_end(setup, untraced, rows, found, attempted, verdicts):
    wall = statistics.median(p["wall"] for p in untraced)
    accuracy = [v["digits"] for v in verdicts.values()
                if v["ok"] and v["digits"] is not None]
    if not accuracy:
        raise BenchError("no artifact passed validation")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_ratio": 1.0 - len(found) / attempted,
        "accuracy_digits": min(accuracy),
    }


def unattributed(record):
    """Wall time of a traced pass that no layer's self time covers."""
    return record["wall"] - sum(record["layers"].values())


def per_layer(passes, rows, found, attempted):
    """Per-layer metrics: medians over traced passes for times, the last
    traced pass for counts (they repeat exactly). The tracer's overhead is
    the median over traced passes of the difference to the untraced pass
    just before; below the host's pass-to-pass noise it means nothing."""
    traced = [p for p in passes if p["traced"]]
    overheads = [p["wall"] - q["wall"] for q, p in zip(passes, passes[1:])
                 if p["traced"] and not q["traced"]]

    def med(get):
        return statistics.median(get(p) for p in traced)

    last = traced[-1]["counts"]

    def count(key):
        return (last.get(key, 0.0), "count")

    def busy(layer):
        return (med(lambda p: p["layers"].get(layer, 0.0)), "s")

    wall = med(lambda p: p["wall"])
    ridges = last.get("semiclassics.ridges_found", 0.0)
    metrics = {"cli.self_s": busy("cli"),
               "cli.rows_written": (rows, "count"),
               "cli.bytes_written": (float(traced[-1]["bytes"]), "bytes")}
    for kind in workloads.SUBCOMMANDS:
        metrics[f"cli.{kind}_s"] = (
            med(lambda p, kind=kind: p["subcommands"][kind]), "s")
    metrics.update({
        "kernels.calls": count("kernels.calls"),
        "kernels.points": count("kernels.points"),
        "kernels.recurrence_steps": count("kernels.recurrence_steps"),
        "kernels.busy_s": busy("kernels"),
        "kernels.share": (busy("kernels")[0] / wall, "ratio"),
        "wavefunction.scalar_calls": count("wavefunction.scalar_calls"),
        "wavefunction.busy_s": busy("wavefunction"),
        "core_math.hermite_pair_calls": count("core_math.hermite_pair_calls"),
        "core_math.hermite_pair_steps": count("core_math.hermite_pair_steps"),
        "core_math.integrate_calls": count("core_math.integrate_calls"),
        "core_math.integrate_evals": count("core_math.integrate_evals"),
        "core_math.integrate_busy_s": busy("core_math.integrate"),
        "core_math.integrate_failures": count("core_math.integrate_failures"),
        "core_math.find_root_calls": count("core_math.find_root_calls"),
        "core_math.find_root_evals": count("core_math.find_root_evals"),
        "core_math.find_root_busy_s": busy("core_math.find_root"),
        "semiclassics.find_peaks_calls": count(
            "semiclassics.find_peaks_calls"),
        "semiclassics.find_peaks_busy_s": busy("semiclassics"),
        "semiclassics.ridges_found": (ridges, "count"),
        "semiclassics.ridge_yield": (
            ridges / max(last.get("semiclassics.ridges_expected", 0.0), 1.0),
            "ratio"),
        "semiclassics.evals_per_ridge": (
            last.get("semiclassics.find_peaks_hermite_calls", 0.0)
            / max(ridges, 1.0), "count"),
        "semiclassics.path_calls": count("semiclassics.path_calls"),
        "observables.numeric_moments_calls": count(
            "observables.numeric_moments_calls"),
        "observables.busy_s": busy("observables"),
        "propagator_oracle.propagate_calls": count(
            "propagator_oracle.propagate_calls"),
        "propagator_oracle.fft_points": count("propagator_oracle.fft_points"),
        "propagator_oracle.refusals": count("propagator_oracle.refusals"),
        "propagator_oracle.busy_s": busy("propagator_oracle"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "failed_ratio": (len(found) / attempted, "ratio"),
    })
    return metrics


def environment(seed, workload):
    from hermitewave import _kernels
    import numpy
    try:
        backend = _kernels.backend()
    except ValueError as exc:
        backend = f"error: {exc}"
    return {
        "workload": workload,
        "seed": seed,
        "backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "HERMITEWAVE_BACKEND": os.environ.get("HERMITEWAVE_BACKEND"),
        "HERMITEWAVE_THREADS": os.environ.get("HERMITEWAVE_THREADS"),
    }


def bench(workload, seed, seconds, trace):
    if not (SRC / "hermitewave" / "cli.py").is_file():
        raise BenchError(f"no hermitewave sources under {SRC}")
    commands = workloads.build(workload, seed)
    setup = SetupProbe(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    from hermitewave import cli

    workdir = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        passes = run_passes(cli, commands, seconds, trace, workdir, setup)
        verdicts = validate_all(commands, passes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    found = failures(commands, passes, verdicts)
    attempted = len(commands) * len(passes)
    rows = sum(verdicts[f"0/{c.label}"]["rows"] for c in commands)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    print("env " + json.dumps(environment(seed, workload)))
    walls = sorted(p["wall"] for p in untraced)
    quart = (statistics.quantiles(walls, n=4, method="inclusive")
             if len(walls) > 1 else walls * 3)
    print(f"passes untraced={len(untraced)} traced={len(traced)} "
          f"wall_q1_s={quart[0]:.4f} wall_q3_s={quart[2]:.4f} walls="
          + ",".join(f"{p['wall']:.3f}" for p in passes)
          + " setup=" + ",".join(f"{t:.3f}" for t in setup.times))
    e2e = end_to_end(setup.times, untraced, rows, found, attempted, verdicts)
    shown = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    if trace:
        for p in traced:
            gap = unattributed(p)
            print(f"trace layers cover {p['wall'] - gap:.4f} of "
                  f"{p['wall']:.4f} s")
            if not 0.0 <= gap <= UNATTRIBUTED_SHARE * p["wall"]:
                raise BenchError(f"traced layers miss {gap:.4f} s of a "
                                 f"{p['wall']:.4f} s pass")
        layers = per_layer(passes, rows, found, attempted)
        shown.update(layers)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    for k, cmd, reason, known in found:
        note = " [known defect]" if known else ""
        print(f"failure pass {k} {cmd.label}: {reason}{note}")
    correct = all(known for *_, known in found)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(found), "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
