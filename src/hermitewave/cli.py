"""Command-line front end.

Every computation in the package is reachable as a subcommand that writes a
figure-ready CSV or JSON artifact. Output is deterministic: identical
configuration yields byte-identical files, with floats in their shortest
round-trip form (``repr``), UTF-8 and LF endings. The grid commands stream
their rows through one writer, ``_write_table``, one time slice, launch
angle or run of caustic times at a time. Its CSV is what
``csv.writer(lineterminator="\\n")`` writes and its JSON is exactly
``json.dump(..., indent=2, sort_keys=True)`` of ``{"header": ..., "rows":
...}`` plus a final newline. A float column that reads the same backwards,
bit for bit (every density slice on an x window symmetric about 0, since
|psi|^2 is even in x), has only its first half formatted.

Subcommands: density, peaks, caustic, paths, phasespace, observables,
verify. The env var HERMITEWAVE_THREADS caps the worker pool that computes
density slices; it computes later slices while earlier ones are written,
and the bytes do not depend on it.

Exit codes: 0 success, 1 a check failed, 2 bad configuration (including an
order above ``MAX_ORDER`` = 650), 3 numerical non-convergence, 4 I/O
failure. ``verify``'s spectral oracle refuses, with a diagnostic, a box the
packet outgrows and a grid too coarse for its momentum content (past the
Nyquist wavenumber pi / dx).
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .errors import (BracketingError, ConvergenceError, DomainError,
                     GridMismatchError, GridTooSmallError)
from .observables import AiryParams, table_report
from .propagator_oracle import (SpectralGrid, analytic_field, compare_fields,
                                spectral_propagate)
from .semiclassics import (PhasePoint, caustic, evolve_path, find_peaks,
                           initial_conditions, peak_hyperbola_n2)
from .wavefunction import (GridSpec, WaveParams, psi, psi_initial,
                           psi_phase_flipped, residual_convergence,
                           total_probability)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

_REPORT_COMMANDS = ("observables", "verify")


@dataclass(frozen=True)
class RunConfig:
    """Everything one subcommand run depends on."""

    command: str
    n: int = 2
    t_c: float = 1.0
    hbar: float = 1.0
    m: float = 0.5
    x_min: float = -8.0
    x_max: float = 8.0
    nx: int = 257
    t_min: float = -4.0
    t_max: float = 4.0
    nt: int = 129
    thetas: int = 256
    times: Tuple[float, ...] = ()
    out: Optional[str] = None
    fmt: str = "csv"
    tol: float = 1e-8

    def to_dict(self) -> dict:
        d = asdict(self)
        d["times"] = list(self.times)
        return d

    def wave_params(self) -> WaveParams:
        return WaveParams(n=self.n, t_c=self.t_c, hbar=self.hbar, m=self.m)

    def grid(self) -> GridSpec:
        return GridSpec(x_min=self.x_min, x_max=self.x_max, nx=self.nx,
                        t_min=self.t_min, t_max=self.t_max, nt=self.nt)

    def output_path(self) -> str:
        if self.out:
            return self.out
        ext = "json" if self.fmt == "json" else "csv"
        return f"{self.command}.{ext}"


def _worker_count() -> int:
    raw = os.environ.get("HERMITEWAVE_THREADS", "").strip()
    if raw:
        try:
            k = int(raw)
        except ValueError:
            raise DomainError(f"HERMITEWAVE_THREADS must be an integer, got {raw!r}")
        if k < 1:
            raise DomainError("HERMITEWAVE_THREADS must be >= 1")
        return k
    return min(os.cpu_count() or 1, 8)


_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(values, fmt: str) -> list:
    """Each number as csv.writer (its ``repr``) or json.dump spells it.

    A float64 array whose bit patterns read the same backwards has only its
    first ceil(N/2) values formatted; the rest are those cells mirrored.
    Bits, not ``==``, decide: -0.0 facing 0.0 is not mirrored, a NaN facing
    the same NaN is. Lists and other dtypes are formatted value by value.
    """
    size = len(values)
    mirrored = False
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            bits = values.view(np.uint64)
            mirrored = np.array_equal(bits, bits[::-1])
        values = values[:(size + 1) // 2 if mirrored else size].tolist()
    cells = list(map(repr, values))
    if fmt == "json" and not _JSON_SPELLING.keys().isdisjoint(cells):
        cells = [_JSON_SPELLING.get(c, c) for c in cells]
    if mirrored:
        cells += cells[:size // 2][::-1]
    return cells


def _write_table(config: RunConfig, header, blocks) -> int:
    """Stream a table to ``config.output_path()``, one block at a time, and
    print the path written.

    A block is a tuple of equal-length columns of cells from ``_cells``
    (one time slice, one launch angle or one run of caustic times), so a
    value repeated down a column is formatted once. Bytes: shortest-repr
    floats and LF endings; CSV as ``csv.writer(lineterminator="\\n")`` writes
    it; JSON exactly as ``json.dump(..., indent=2, sort_keys=True)`` plus
    ``"\\n"``, down to ``NaN``/``Infinity`` and an empty ``"rows": []``.
    """
    if config.fmt == "csv":
        head, cell_sep, row_sep = ",".join(header) + "\n", ",", "\n"
        first, tail, empty_tail = "", "\n", ""
    else:
        head = ('{\n  "header": [\n    ' + ",\n    ".join(map(json.dumps, header))
                + '\n  ],\n  "rows": [')
        cell_sep, row_sep = ",\n      ", "\n    ],\n    [\n      "
        first, tail, empty_tail = "\n    [\n      ", "\n    ]\n  ]\n}\n", "]\n}\n"
    path = config.output_path()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        lead = first
        for columns in blocks:
            if len(columns[0]):
                fh.write(lead)
                fh.write(row_sep.join(map(cell_sep.join, zip(*columns))))
                lead = row_sep
        fh.write(tail if lead is row_sep else empty_tail)
    print(f"wrote {path}")
    return EXIT_OK


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _branch_labels(count: int):
    """Signed rank of each sorted peak about the center; 0 only if odd count."""
    if count % 2 == 1:
        mid = (count - 1) // 2
        return [i - mid for i in range(count)]
    half = count // 2
    return [i - half if i < half else i - half + 1 for i in range(count)]


def cmd_density(config: RunConfig) -> int:
    params = config.wave_params()
    xs = config.grid().xs()
    fmt = config.fmt

    def one_row(t):
        return _kernels.density_profile(xs, params.n, t, params.t_c,
                                        params.m, params.hbar)

    # The pool computes later slices while this thread formats earlier ones.
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        x_cells = _cells(xs, fmt)
        blocks = ((x_cells, _cells([t], fmt) * xs.size, _cells(profile, fmt))
                  for t, profile in zip(config.times,
                                        pool.map(one_row, config.times)))
        return _write_table(config, ("x", "t", "density"), blocks)


def cmd_peaks(config: RunConfig) -> int:
    params = config.wave_params()
    fmt = config.fmt

    def blocks():
        for t in config.times:
            peaks = find_peaks(params, t)
            yield (_cells([t], fmt) * peaks.size, _cells(peaks, fmt),
                   _cells(_branch_labels(peaks.size), fmt))

    return _write_table(config, ("t", "x_peak", "branch"), blocks())


# Rows per caustic block: few enough calls to ``_cells``, while a block's
# cells stay a small part of the process's memory.
_CAUSTIC_RUN = 1024


def cmd_caustic(config: RunConfig) -> int:
    params = config.wave_params()
    fmt = config.fmt

    def blocks():
        for lo in range(0, len(config.times), _CAUSTIC_RUN):
            ts = config.times[lo:lo + _CAUSTIC_RUN]
            x_plus, x_minus = zip(*(caustic(params, t) for t in ts))
            yield _cells(ts, fmt), _cells(x_plus, fmt), _cells(x_minus, fmt)

    return _write_table(config, ("t", "x_plus", "x_minus"), blocks())


def _path_blocks(config: RunConfig, per_angle: bool):
    """Cells of the straight-line family: one block per launch angle with
    columns (theta, t, x, p), or one per time with columns (t, theta, x, p).
    ``evolve_path`` moves an array of times or of launch points; its
    ``x + p * t / m`` rounds each element as it rounds a scalar.
    """
    params = config.wave_params()
    fmt = config.fmt
    angles = np.linspace(0.0, 2.0 * math.pi, config.thetas, endpoint=False)
    starts = [initial_conditions(params, theta) for theta in angles.tolist()]
    if per_angle:
        ts = np.array(config.times)
        t_cells = _cells(ts, fmt)
        for start in starts:
            moved = evolve_path(start, ts, params.m)
            theta_cell, p_cell = _cells((start.theta, start.p), fmt)
            yield ([theta_cell] * ts.size, t_cells, _cells(moved.x, fmt),
                   [p_cell] * ts.size)
    else:
        ring = PhasePoint(x=np.array([s.x for s in starts]),
                          p=np.array([s.p for s in starts]), theta=angles)
        theta_cells, p_cells = _cells(angles, fmt), _cells(ring.p, fmt)
        for t in config.times:
            moved = evolve_path(ring, t, params.m)
            yield (_cells([t], fmt) * angles.size, theta_cells,
                   _cells(moved.x, fmt), p_cells)


def cmd_paths(config: RunConfig) -> int:
    return _write_table(config, ("theta", "t", "x", "p"),
                        _path_blocks(config, per_angle=True))


def cmd_phasespace(config: RunConfig) -> int:
    return _write_table(config, ("t", "theta", "x", "p"),
                        _path_blocks(config, per_angle=False))


def cmd_observables(config: RunConfig) -> int:
    base = config.wave_params()
    packets = [replace(base, n=k) for k in (0, 1, 2)]
    if base.n not in (0, 1, 2):
        packets.append(base)
    airy = AiryParams(v=1.0, a=1.0)
    report = table_report(packets, airy, config.times, tol=config.tol)
    report["config"] = config.to_dict()
    path = _write_json(config.output_path(), report)
    ok = report["heisenberg_ok"] and bool(report["all_within_tolerance"])
    print(f"wrote {path}")
    print(f"worst numeric gap {report['worst_numeric_gap']:.3e} "
          f"(tol {config.tol:.3e})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify_checks(config: RunConfig, corrupt_phase: bool):
    params = config.wave_params()
    checks = []

    worst = 0.0
    for t in config.times:
        worst = max(worst, abs(total_probability(params, float(t), tol=1e-10)
                               - 1.0))
    checks.append({"name": "normalization", "measured": worst,
                   "threshold": 1e-8, "passed": worst < 1e-8})

    xs = np.linspace(-10.0, 10.0, 2001)
    gap = max(abs(psi(params, float(x), 0.0) - psi_initial(params, float(x)))
              for x in xs)
    checks.append({"name": "t0_identity", "measured": gap,
                   "threshold": 1e-12, "passed": gap < 1e-12})

    field = psi_phase_flipped if corrupt_phase else None
    sweep = residual_convergence(params, 1.3, 0.7, field=field)
    ratios = [row[2] for row in sweep]
    ratios_ok = all(3.6 <= r <= 4.4 for r in ratios)
    finest = min(row[1] for row in sweep)
    checks.append({"name": "residual_convergence",
                   "measured": {"ratios": ratios, "smallest_residual": finest},
                   "threshold": "ratios in [3.6, 4.4]",
                   "passed": ratios_ok and finest < 1e-3})

    t_target = max((abs(t) for t in config.times), default=2.0) or 2.0
    try:
        sgrid = SpectralGrid(length=config.x_max - config.x_min, nx=config.nx)
        initial = analytic_field(params, sgrid, 0.0)
        evolved = spectral_propagate(initial, t_target, params.m, params.hbar)
        reference = analytic_field(params, sgrid, t_target)
        comparison = compare_fields(evolved, reference)
        err = comparison.aligned_max_abs_error
        checks.append({"name": "spectral_oracle", "measured": err,
                       "threshold": 1e-6, "passed": err < 1e-6})
    except GridTooSmallError as exc:
        checks.append({"name": "spectral_oracle", "measured": None,
                       "threshold": 1e-6, "passed": False,
                       "diagnostic": str(exc)})

    if params.n == 2:
        worst_gap = 0.0
        for t in config.times:
            c = caustic(params, float(t))
            h = peak_hyperbola_n2(params, float(t))
            worst_gap = max(worst_gap, abs(c.x_plus - h.x_plus),
                            abs(c.x_minus - h.x_minus))
        checks.append({"name": "caustic_peak_identity", "measured": worst_gap,
                       "threshold": 1e-12, "passed": worst_gap < 1e-12})
    else:
        checks.append({"name": "caustic_peak_identity", "measured": None,
                       "threshold": 1e-12, "passed": True,
                       "diagnostic": "closed-form ridge only defined for n=2; skipped"})
    return checks


def cmd_verify(config: RunConfig, corrupt_phase: bool = False) -> int:
    checks = _verify_checks(config, corrupt_phase)
    all_ok = all(c["passed"] for c in checks)
    report = {"passed": all_ok, "checks": checks,
              "config": config.to_dict()}
    path = _write_json(config.output_path(), report)
    for c in checks:
        state = "ok" if c["passed"] else "FAIL"
        print(f"{state:4s} {c['name']}")
    print(f"wrote {path}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermitewave",
        description="Spreading Hermite wavepackets: densities, ridges, "
                    "caustics, classical paths, and moment tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = {
        "density": dict(t_min=-4.0, t_max=4.0, nt=129),
        "peaks": dict(t_min=-4.0, t_max=4.0, nt=81),
        "caustic": dict(t_min=-4.0, t_max=4.0, nt=161),
        "paths": dict(t_min=-4.0, t_max=4.0, nt=81, thetas=16),
        "phasespace": dict(t_min=0.0, t_max=2.0, nt=5, thetas=256),
        "observables": dict(t_min=0.0, t_max=2.0, nt=3, fmt="json"),
        "verify": dict(t_min=0.0, t_max=2.0, nt=5, fmt="json",
                       x_min=-40.0, x_max=40.0, nx=4096),
    }
    helps = {
        "density": "density on an (x, t) grid as CSV",
        "peaks": "density maxima per time slice",
        "caustic": "classical fold envelope branches over time",
        "paths": "straight-line classical paths indexed by launch angle",
        "phasespace": "sheared phase-space ellipse at requested times",
        "observables": "moment table with numeric cross-checks (JSON)",
        "verify": "self-check suite (JSON report, exit reflects status)",
    }
    for name in ("density", "peaks", "caustic", "paths", "phasespace",
                 "observables", "verify"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--tc", dest="t_c", type=float, default=1.0)
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--mass", dest="m", type=float, default=0.5)
        p.add_argument("--xmin", dest="x_min", type=float, default=-8.0)
        p.add_argument("--xmax", dest="x_max", type=float, default=8.0)
        p.add_argument("--nx", type=int, default=257)
        p.add_argument("--tmin", dest="t_min", type=float)
        p.add_argument("--tmax", dest="t_max", type=float)
        p.add_argument("--nt", type=int)
        p.add_argument("--thetas", type=int, default=256)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.add_argument("--tol", type=float, default=1e-8)
        if name == "verify":
            p.add_argument("--corrupt-phase", action="store_true",
                           help=argparse.SUPPRESS)
        p.set_defaults(**defaults[name])
    return parser


def _config_from_args(args) -> RunConfig:
    if args.nt is None or args.t_min is None or args.t_max is None:
        raise DomainError("tmin, tmax, nt must all be set")
    times = GridSpec(x_min=args.x_min, x_max=args.x_max, nx=args.nx,
                     t_min=args.t_min, t_max=args.t_max, nt=args.nt).ts()
    config = RunConfig(
        command=args.command, n=args.n, t_c=args.t_c, hbar=args.hbar,
        m=args.m, x_min=args.x_min, x_max=args.x_max, nx=args.nx,
        t_min=args.t_min, t_max=args.t_max, nt=args.nt,
        thetas=args.thetas, times=tuple(times.tolist()), out=args.out,
        fmt=args.fmt, tol=args.tol)
    if config.command in _REPORT_COMMANDS and config.fmt != "json":
        raise DomainError(f"{config.command} emits a JSON report; "
                          f"--format csv is not available")
    if not config.tol > 0.0:
        raise DomainError("tol must be positive")
    if config.thetas < 3:
        raise DomainError("thetas must be >= 3")
    params = config.wave_params()
    for t in (0.0, *config.times):
        try:
            scale = params.alpha(t)
        except ZeroDivisionError:  # t_c**2 + t**2 underflowed to 0
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise DomainError(f"scale alpha(t) = m t_c / (hbar (t_c^2 + t^2)) "
                              f"is not a positive finite number at t = {t}")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = _config_from_args(args)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    handlers = {
        "density": cmd_density,
        "peaks": cmd_peaks,
        "caustic": cmd_caustic,
        "paths": cmd_paths,
        "phasespace": cmd_phasespace,
        "observables": cmd_observables,
    }
    try:
        if config.command == "verify":
            return cmd_verify(config, corrupt_phase=getattr(
                args, "corrupt_phase", False))
        return handlers[config.command](config)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, BracketingError, GridTooSmallError,
            GridMismatchError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
