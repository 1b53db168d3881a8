"""Command-line front end.

Every computation in the package is reachable as a subcommand that writes a
figure-ready CSV or JSON artifact. Output is deterministic: identical
configuration yields byte-identical files, with floats in their shortest
round-trip form (``repr``), UTF-8 and LF endings. The grid commands format
their rows (``_table_text``) one time slice, launch angle or run of caustic
times at a time. Their CSV is what ``csv.writer(lineterminator="\\n")``
writes; their JSON, like a report, is exactly ``json.dump(..., indent=2,
sort_keys=True)`` (of ``{"header": ..., "rows": ...}``) plus a final
newline. A float column that reads the same backwards, bit for bit (every
density slice on an x window symmetric about 0, since |psi|^2 is even in
x), has only its first half formatted.

Every artifact reaches disk through ``_publish``, all or nothing: a file
appears or is replaced only on exit 0 or 1. ``--out`` names a regular file
or a new one, in a writable directory; a symlink is written through, and
any other existing target (a FIFO, a device, a directory) exits 4.

Each subcommand takes ``--n --tc --hbar --mass --tmin --tmax --nt --out
--format``; ``density`` and ``verify`` also take ``--xmin --xmax --nx``,
``paths`` and ``phasespace`` ``--thetas``, and ``observables`` ``--tol``
(``_COMMANDS``). Any other flag exits 2. ``observables`` and ``verify``
write JSON only. Defaults are ``RunConfig``'s unless the table sets its own.

Exit codes: 0 success, 1 a check failed, 2 bad configuration (including an
order above ``MAX_ORDER`` = 650 and a grid too large for memory), 3
numerical failure (non-convergence or a value outside double range), 4 I/O
failure. ``verify``'s spectral oracle refuses, with a diagnostic, a box the
packet outgrows and a grid too coarse for its momentum content (past the
Nyquist wavenumber pi / dx). Its grid is centred on x = 0, so ``verify``
exits 2 unless ``--xmin`` is exactly -``--xmax``.
"""

import argparse
import json
import math
import os
import sys
# ThreadPoolExecutor is not called here; it stays importable as
# ``cli.ThreadPoolExecutor`` because perfbench/tracing.py replaces that name.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import (BracketingError, ConvergenceError, DomainError,
                     GridMismatchError, GridTooSmallError)
from .observables import AiryParams, table_report
from .propagator_oracle import (SpectralGrid, analytic_field, compare_fields,
                                spectral_propagate)
from .semiclassics import (caustic, evolve_path, path_family,
                           peak_hyperbola_n2, xi_ridges)
# find_peaks and initial_conditions are not called here;
# perfbench/tracing.py wraps the names.
from .semiclassics import find_peaks, initial_conditions  # noqa: F401
from .wavefunction import (GridSpec, WaveParams, psi, psi_initial,
                           psi_phase_flipped, residual_convergence,
                           total_probability)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


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
        return self.out or f"{self.command}.{self.fmt}"


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


def _table_text(fmt: str, header, blocks):
    """The text of a table in chunks: the head, each block's rows, the tail.

    A block is a tuple of equal-length columns of cells from ``_cells``
    (one time slice, one launch angle or one run of caustic times), so a
    value repeated down a column is formatted once. The bytes are those the
    module docstring gives, down to ``NaN``/``Infinity`` and an empty
    ``"rows": []``.
    """
    if fmt == "csv":
        head, cell_sep, row_sep = ",".join(header) + "\n", ",", "\n"
        first, tail, empty_tail = "", "\n", ""
    else:
        head = ('{\n  "header": [\n    ' + ",\n    ".join(map(json.dumps, header))
                + '\n  ],\n  "rows": [')
        cell_sep, row_sep = ",\n      ", "\n    ],\n    [\n      "
        first, tail, empty_tail = "\n    [\n      ", "\n    ]\n  ]\n}\n", "]\n}\n"
    yield head
    lead = first
    for columns in blocks:
        if len(columns[0]):
            yield lead + row_sep.join(map(cell_sep.join, zip(*columns)))
            lead = row_sep
    yield tail if lead is row_sep else empty_tail


def _publish(path: str, chunks) -> int:
    """Write the text ``chunks`` to ``path`` all or nothing; print the path.

    The chunks go to a ``.part`` file beside the target, which replaces the
    target only once the last chunk is written.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"{path} exists and is not a regular file")
    part = f"{target}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(part, target)
    finally:  # also on KeyboardInterrupt; after os.replace it is gone
        if os.path.lexists(part):
            os.remove(part)
    print(f"wrote {path}")
    return EXIT_OK


def _write_json(path: str, payload: dict) -> int:
    return _publish(path,
                    [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


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
    x_cells = _cells(xs, fmt)
    blocks = ((x_cells, _cells([t], fmt) * xs.size,
               _cells(_kernels.density_profile(xs, params.n, t, params.t_c,
                                               params.m, params.hbar), fmt))
              for t in config.times)
    return _publish(config.output_path(),
                    _table_text(fmt, ("x", "t", "density"), blocks))


def cmd_peaks(config: RunConfig) -> int:
    params = config.wave_params()
    fmt = config.fmt
    # the ridges in xi hold at every t: one solve, scaled to each slice as
    # find_peaks scales it
    xi = xi_ridges(params.n)

    def blocks():
        for t in config.times:
            peaks = xi / math.sqrt(params.alpha(t))
            yield (_cells([t], fmt) * peaks.size, _cells(peaks, fmt),
                   _cells(_branch_labels(peaks.size), fmt))

    return _publish(config.output_path(),
                    _table_text(fmt, ("t", "x_peak", "branch"), blocks()))


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

    return _publish(config.output_path(),
                    _table_text(fmt, ("t", "x_plus", "x_minus"), blocks()))


def _path_grid(config: RunConfig):
    """The ring from ``path_family``, the times, and x on a (time, angle)
    grid from one ``evolve_path`` call, which rounds as for scalars."""
    params = config.wave_params()
    angles = np.linspace(0.0, 2.0 * math.pi, config.thetas, endpoint=False)
    ring = path_family(params, angles).ring
    ts = np.array(config.times)
    return ring, ts, evolve_path(ring, ts[:, None], params.m).x


def cmd_paths(config: RunConfig) -> int:
    ring, ts, xs = _path_grid(config)
    fmt = config.fmt
    t_cells = _cells(ts, fmt)
    blocks = (([theta] * ts.size, t_cells, _cells(x, fmt), [p] * ts.size)
              for theta, p, x in zip(_cells(ring.theta, fmt),
                                     _cells(ring.p, fmt), xs.T))
    return _publish(config.output_path(),
                    _table_text(fmt, ("theta", "t", "x", "p"), blocks))


def cmd_phasespace(config: RunConfig) -> int:
    ring, ts, xs = _path_grid(config)
    fmt = config.fmt
    theta_cells, p_cells = _cells(ring.theta, fmt), _cells(ring.p, fmt)
    blocks = (([t] * ring.theta.size, theta_cells, _cells(x, fmt), p_cells)
              for t, x in zip(_cells(ts, fmt), xs))
    return _publish(config.output_path(),
                    _table_text(fmt, ("t", "theta", "x", "p"), blocks))


def cmd_observables(config: RunConfig) -> int:
    base = config.wave_params()
    packets = [replace(base, n=k) for k in (0, 1, 2)]
    if base.n not in (0, 1, 2):
        packets.append(base)
    airy = AiryParams(v=1.0, a=1.0)
    report = table_report(packets, airy, config.times, tol=config.tol)
    report["config"] = config.to_dict()
    _write_json(config.output_path(), report)
    ok = report["heisenberg_ok"] and bool(report["all_within_tolerance"])
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
    if config.x_min != -config.x_max:  # the oracle's SpectralGrid is centred
        raise DomainError(f"verify's box must be centred on x = 0 (--xmin "
                          f"exactly -(--xmax)), got --xmin {config.x_min!r} "
                          f"--xmax {config.x_max!r}")
    checks = _verify_checks(config, corrupt_phase)
    all_ok = all(c["passed"] for c in checks)
    report = {"passed": all_ok, "checks": checks,
              "config": config.to_dict()}
    for c in checks:
        state = "ok" if c["passed"] else "FAIL"
        print(f"{state:4s} {c['name']}")
    _write_json(config.output_path(), report)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


class _Command(NamedTuple):
    handler: Callable[..., int]
    help: str
    flags: Tuple[str, ...]  # read beyond _SHARED_FLAGS and --format
    defaults: dict  # every default that is not RunConfig's own
    formats: Tuple[str, ...] = ("csv", "json")


_SHARED_FLAGS = ("n", "t_c", "hbar", "m", "t_min", "t_max", "nt", "out")
_BOX = ("x_min", "x_max", "nx")
_FORWARD = dict(t_min=0.0, t_max=2.0)  # a window of t >= 0 only

_COMMANDS = {
    "density": _Command(cmd_density, "density on an (x, t) grid", _BOX, {}),
    "peaks": _Command(cmd_peaks, "density maxima per time slice", (),
                      dict(nt=81)),
    "caustic": _Command(cmd_caustic, "classical fold envelope branches",
                        (), dict(nt=161)),
    "paths": _Command(cmd_paths, "straight classical paths by launch angle",
                      ("thetas",), dict(nt=81, thetas=16)),
    "phasespace": _Command(cmd_phasespace, "sheared phase-space ellipses",
                           ("thetas",), dict(_FORWARD, nt=5)),
    "observables": _Command(cmd_observables, "moment table (JSON report)",
                            ("tol",), dict(_FORWARD, nt=3), ("json",)),
    "verify": _Command(cmd_verify, "self-check suite (JSON report)",
                       _BOX + ("corrupt_phase",),
                       dict(_FORWARD, nt=5, x_min=-40.0, x_max=40.0,
                            nx=4096), ("json",)),
}

_FIELDS = {f.name: f for f in fields(RunConfig)}


def _option(flag: str) -> str:
    """--tc for the field t_c, --xmin for x_min, and --mass for m."""
    return "--mass" if flag == "m" else "--" + flag.replace("_", "")


_NUMERIC = frozenset(_option(name) for name, field in _FIELDS.items()
                     if field.type in (int, float))


def _attach_values(argv):
    """argv with each numeric flag joined to the token after it, as in
    ``--tmin=-1e-3``: argparse takes a token that starts with "-" for a value
    only if it reads like -1 or -.5, so "--tmin -1e-3" would lack one."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _NUMERIC:
            token = joined.pop() + "=" + token
        joined.append(token)
    return joined


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermitewave",
        description="Spreading Hermite wavepackets: densities, ridges, "
                    "caustics, classical paths, and moment tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in _SHARED_FLAGS + command.flags:
            field = _FIELDS.get(flag)
            if field is None:  # a hidden switch for the handler
                p.add_argument("--" + flag.replace("_", "-"),
                               action="store_true", help=argparse.SUPPRESS)
                continue
            kind = field.type if field.type in (int, float) else str
            p.add_argument(_option(flag), dest=flag, type=kind,
                           default=field.default)
        p.add_argument("--format", dest="fmt", choices=command.formats,
                       default=command.formats[0])
        p.set_defaults(**command.defaults)
    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig(**{k: v for k, v in vars(args).items()
                          if k in _FIELDS})
    config = replace(config, times=tuple(config.grid().ts().tolist()))
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
        args = parser.parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = _config_from_args(args)
        switches = {k: v for k, v in vars(args).items() if k not in _FIELDS}
        # a numpy value outside double range raises FloatingPointError, an
        # ArithmeticError, instead of being written as inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[config.command].handler(config, **switches)
    except (DomainError, MemoryError) as exc:  # a grid too large for memory
        print(f"config error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, BracketingError, GridTooSmallError,
            GridMismatchError, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
