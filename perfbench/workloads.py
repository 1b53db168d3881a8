"""Seeded workload generator.

A workload is a fixed list of ``hermitewave`` commands run one after another
by a single closed-loop client. Sizes and orders are fixed per workload; the
seed only draws the physical parameters (``--tc``, ``--mass``, ``--hbar``)
and a scale for every time window, each within 10% of the CLI defaults.
Every argument a validator needs is written out in the argv, so nothing
depends on the CLI's own defaults.

Each command carries the exit code it must return, derived here from the
physics rather than from running the program: report commands exit 0 unless
the spectral oracle has to refuse the box, which happens when the packet's
exact six-sigma reach at the latest time exceeds the half box.
"""

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

GRID_KINDS = ("density", "peaks", "caustic", "paths", "phasespace")
REPORT_KINDS = ("observables", "verify")
SUBCOMMANDS = GRID_KINDS + REPORT_KINDS

# Each puts most of its time in a different layer; BENCHMARK.json says why.
WORKLOADS = ("grid_write", "ridge_scan", "moment_check")

# What ``validate.check_peaks`` reports for ``peaks --n 120`` today: the five
# outermost ridges on each side are lost, with exit 0 (ROADMAP item 2).
RIDGE_LOSS_N120 = ("111 of 121 ridges per slice, missing "
                   "[0, 1, 2, 3, 4, 116, 117, 118, 119, 120]")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload and what it must produce."""

    label: str
    kind: str
    params: Dict[str, object]
    expect_exit: int = 0
    expect_refusal: bool = False
    # The validator's exact report of a defect the repository already
    # documents. The command still counts as failed; a failure that is
    # exactly this one does not mark the whole benchmark incorrect.
    known_defect: Optional[str] = None
    fmt: str = "csv"

    @property
    def filename(self) -> str:
        ext = "json" if self.fmt == "json" else "csv"
        return f"{self.label}.{ext}"

    def argv(self, out: str) -> List[str]:
        args = [self.kind]
        for key, flag in _FLAGS:
            if key in self.params:
                args += [flag, _fmt(self.params[key])]
        args += ["--format", self.fmt, "--out", out]
        return args


_FLAGS: Tuple[Tuple[str, str], ...] = (
    ("n", "--n"), ("t_c", "--tc"), ("hbar", "--hbar"), ("m", "--mass"),
    ("x_min", "--xmin"), ("x_max", "--xmax"), ("nx", "--nx"),
    ("t_min", "--tmin"), ("t_max", "--tmax"), ("nt", "--nt"),
    ("thetas", "--thetas"),
)


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


@dataclass(frozen=True)
class Draw:
    """The seeded part of a workload: physical parameters and time scale."""

    t_c: float
    m: float
    hbar: float
    time_scale: float


def draw(seed: int) -> Draw:
    rng = random.Random(seed)

    def near(center):
        return float(f"{center * rng.uniform(0.9, 1.1):.6g}")

    return Draw(t_c=near(1.0), m=near(0.5), hbar=near(1.0),
                time_scale=near(1.0))


def _cmd(d: Draw, label, kind, *, n=2, window=(-4.0, 4.0), nt, fmt="csv",
         known_defect=None, **extra) -> Command:
    params = dict(n=n, t_c=d.t_c, hbar=d.hbar, m=d.m,
                  t_min=window[0] * d.time_scale,
                  t_max=window[1] * d.time_scale, nt=nt)
    params.update(extra)
    if kind in REPORT_KINDS:
        fmt = "json"
    expect_exit, refusal = expected_exit(kind, params)
    return Command(label=label, kind=kind, params=params,
                   expect_exit=expect_exit, expect_refusal=refusal,
                   known_defect=known_defect, fmt=fmt)


def oracle_reach(params) -> Tuple[float, float]:
    """Exact six-sigma reach of the packet at verify's latest time, and the
    half box. verify propagates from t=0 to max |t|; the position variance
    there is (n + 1/2) hbar (t_c^2 + t^2) / (m t_c)."""
    n, t_c, hbar, m = params["n"], params["t_c"], params["hbar"], params["m"]
    t = max(abs(params["t_min"]), abs(params["t_max"]))
    var = (n + 0.5) * hbar * (t_c * t_c + t * t) / (m * t_c)
    return 6.0 * math.sqrt(var), 0.5 * (params["x_max"] - params["x_min"])


def expected_exit(kind, params) -> Tuple[int, bool]:
    """(exit code, refusal expected) for one command."""
    if kind != "verify":
        return 0, False
    reach, half = oracle_reach(params)
    if reach > 1.5 * half:
        return 1, True
    if reach < 0.97 * half:
        return 0, False
    raise ValueError(f"verify box is too close to the refusal edge "
                     f"(reach {reach:.3g}, half box {half:.3g})")


def _probes(d: Draw) -> List[Command]:
    """One small run of every subcommand, so that every workload touches
    every module; a workload keeps only those it does not run at size."""
    return [
        _cmd(d, "probe_density", "density", nt=9, x_min=-8.0, x_max=8.0,
             nx=257),
        _cmd(d, "probe_peaks", "peaks", nt=3),
        _cmd(d, "probe_caustic", "caustic", nt=161),
        _cmd(d, "probe_paths", "paths", nt=81, thetas=16),
        _cmd(d, "probe_phasespace", "phasespace", window=(0.0, 2.0), nt=5,
             thetas=256),
        _cmd(d, "probe_observables", "observables", window=(0.0, 2.0), nt=1),
        _cmd(d, "probe_verify", "verify", window=(0.0, 2.0), nt=5,
             x_min=-40.0, x_max=40.0, nx=4096),
    ]


def _main_commands(name: str, d: Draw) -> List[Command]:
    if name == "grid_write":
        return [
            _cmd(d, "density_2049x257", "density", nt=257, x_min=-8.0,
                 x_max=8.0, nx=2049),
            _cmd(d, "density_1025x129_json", "density", nt=129, x_min=-8.0,
                 x_max=8.0, nx=1025, fmt="json"),
            _cmd(d, "phasespace_101x1024", "phasespace", window=(0.0, 2.0),
                 nt=101, thetas=1024),
            _cmd(d, "paths_256x401", "paths", nt=401, thetas=256),
            _cmd(d, "caustic_20001", "caustic", nt=20001),
        ]
    if name == "ridge_scan":
        return [
            _cmd(d, "peaks_n2", "peaks", n=2, nt=81),
            _cmd(d, "peaks_n8", "peaks", n=8, nt=81),
            _cmd(d, "peaks_n120", "peaks", n=120, nt=9,
                 known_defect=RIDGE_LOSS_N120),
        ]
    if name == "moment_check":
        report = dict(window=(0.0, 2.0))
        box = dict(x_min=-40.0, x_max=40.0, nx=4096)
        return [
            *[_cmd(d, f"observables_n{n}", "observables", n=n, nt=3,
                   **report) for n in (2, 8, 20, 50)],
            _cmd(d, "verify_default", "verify", nt=5, **report, **box),
            _cmd(d, "verify_n8_wide", "verify", n=8, nt=5, x_min=-80.0,
                 x_max=80.0, nx=8192, **report),
            _cmd(d, "verify_small_box", "verify", nt=5, x_min=-5.0,
                 x_max=5.0, nx=4096, **report),
        ]
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{', '.join(WORKLOADS)}")


def build(name: str, seed: int) -> List[Command]:
    """The command list of workload ``name`` for ``seed``."""
    d = draw(seed)
    main = _main_commands(name, d)
    covered = {c.kind for c in main}
    return main + [p for p in _probes(d) if p.kind not in covered]
