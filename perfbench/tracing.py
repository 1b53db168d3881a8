"""In-process tracing of the hermitewave layers.

The tracer wraps public functions of each module from outside, at the name
the calling module looks up (``cli.find_peaks``, ``semiclassics.hermite_pair``,
``_kernels.density_profile`` ...), records spans and counters, and puts every
original attribute back on exit. Functions called more than ~1e4 times per
command are counted only, so their time falls to the calling span.

The current span lives in a ContextVar. While tracing, ``cli`` gets a thread
pool that runs each task in a copy of the submitting context, so spans from
``cmd_density``'s worker threads attach to the enclosing ``cli`` span.
"""

import contextvars
import functools
import importlib
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Dict, List

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "thread")

    def __init__(self, layer, name, parent):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = perf_counter()
        self.end = None


class _ContextExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks see the submitter's current span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args,
                              **kwargs)


class Tracer:
    """Records spans and counters while installed as a context manager."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tallies: List[Dict[str, float]] = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def _tally(self):
        """This thread's counters; each thread writes only its own dict, so
        the hot path takes no lock."""
        try:
            return self._local.tally
        except AttributeError:
            tally = self._local.tally = defaultdict(float)
            with self._lock:
                self._tallies.append(tally)
            return tally

    def add(self, key, amount=1):
        self._tally()[key] += amount

    def count(self, key):
        with self._lock:
            return sum(t.get(key, 0.0) for t in self._tallies)

    @property
    def counts(self) -> Dict[str, float]:
        """All counters, summed over threads."""
        merged: Dict[str, float] = defaultdict(float)
        with self._lock:
            for tally in self._tallies:
                for key, value in tally.items():
                    merged[key] += value
        return dict(merged)

    def span(self, layer, name, fn, *args, **kwargs):
        """Call ``fn`` inside a new span of ``layer``."""
        span = Span(layer, name, _current.get())
        token = _current.set(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            _current.reset(token)
            with self._lock:
                self.spans.append(span)

    def reset(self):
        with self._lock:
            self.spans = []
            self._tallies = []
            self._local = threading.local()

    # -- installing wrappers ---------------------------------------------

    def _patch(self, module, attr, wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper(original)))

    def __enter__(self):
        mods = {name: importlib.import_module(f"hermitewave.{name}")
                for name in ("cli", "_kernels", "wavefunction", "core_math",
                             "semiclassics", "observables",
                             "propagator_oracle")}
        try:
            for module, attr, make in _wrappers(self):
                self._patch(mods[module], attr, make)
            self._saved.append((mods["cli"], "ThreadPoolExecutor",
                                mods["cli"].ThreadPoolExecutor))
            mods["cli"].ThreadPoolExecutor = _ContextExecutor
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def patched(self):
        """(module, attribute, original) of everything currently wrapped."""
        return list(self._saved)


def _wrappers(tr: Tracer):
    """(module, attribute, wrapper factory) for every traced name."""
    from hermitewave.errors import GridTooSmallError

    def counted(key, steps=None):
        """Count calls (and, with ``steps``, the order passed first)."""
        def make(fn):
            def inner(*args, **kwargs):
                tally = tr._tally()
                tally[key] += 1
                if steps is not None:
                    tally[steps] += args[0]
                return fn(*args, **kwargs)
            return inner
        return make

    def spanned(layer, before=None, after=None, on_error=None):
        def make(fn):
            def inner(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                try:
                    result = tr.span(layer, fn.__name__, fn, *args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return inner
        return make

    # _kernels: entry points looked up as ``_kernels.<name>`` by callers.
    def kernel_work(xs, n, *rest, **kw):
        tr.add("kernels.calls")
        tr.add("kernels.points", len(xs))
        tr.add("kernels.recurrence_steps", len(xs) * n)

    kernel = spanned("kernels", before=kernel_work)

    # core_math
    hermite = counted("core_math.hermite_pair_calls",
                      steps="core_math.hermite_pair_steps")

    def quad_done(result, *args, **kwargs):
        tr.add("core_math.integrate_evals", result.evaluations)

    def quad_failed(exc):
        tr.add("core_math.integrate_failures")
        best = getattr(exc, "best", None)
        if best is not None:
            tr.add("core_math.integrate_evals", best.evaluations)

    def integrate(fn):
        traced = spanned("core_math.integrate", after=quad_done,
                         on_error=quad_failed)(fn)

        def inner(*args, **kwargs):
            tr.add("core_math.integrate_calls")
            return traced(*args, **kwargs)
        return inner

    def find_root(fn):
        def inner(f, *args, **kwargs):
            evals = [0]

            def counting(x):
                evals[0] += 1
                return f(x)
            tr.add("core_math.find_root_calls")
            try:
                return tr.span("core_math.find_root", "find_root", fn,
                               counting, *args, **kwargs)
            finally:
                tr.add("core_math.find_root_evals", evals[0])
        return inner

    # semiclassics
    def find_peaks(fn):
        def inner(params, *args, **kwargs):
            before = tr.count("core_math.hermite_pair_calls")
            peaks = tr.span("semiclassics", "find_peaks", fn, params, *args,
                            **kwargs)
            tr.add("semiclassics.find_peaks_calls")
            tr.add("semiclassics.find_peaks_hermite_calls",
                   tr.count("core_math.hermite_pair_calls") - before)
            tr.add("semiclassics.ridges_found", len(peaks))
            tr.add("semiclassics.ridges_expected", params.n + 1)
            return peaks
        return inner

    path = counted("semiclassics.path_calls")

    # propagator_oracle
    def propagate_work(initial, *args, **kwargs):
        tr.add("propagator_oracle.propagate_calls")
        tr.add("propagator_oracle.fft_points", initial.grid.nx)

    def propagate_refused(exc):
        if isinstance(exc, GridTooSmallError):
            tr.add("propagator_oracle.refusals")

    oracle = spanned("propagator_oracle")

    # observables
    def moments_work(*args, **kwargs):
        tr.add("observables.numeric_moments_calls")

    scalar = counted("wavefunction.scalar_calls")
    wave = spanned("wavefunction")

    return [
        ("_kernels", "density_profile", kernel),
        ("_kernels", "psi_profile", kernel),
        ("wavefunction", "hermite_pair", hermite),
        ("semiclassics", "hermite_pair", hermite),
        ("wavefunction", "integrate", integrate),
        ("observables", "integrate", integrate),
        ("semiclassics", "find_root", find_root),
        ("cli", "find_peaks", find_peaks),
        ("cli", "initial_conditions", path),
        ("cli", "evolve_path", path),
        ("cli", "analytic_field", oracle),
        ("cli", "spectral_propagate",
         spanned("propagator_oracle", before=propagate_work,
                 on_error=propagate_refused)),
        ("cli", "compare_fields", oracle),
        ("cli", "table_report", spanned("observables")),
        ("observables", "numeric_moments",
         spanned("observables", before=moments_work)),
        ("cli", "total_probability", wave),
        ("cli", "residual_convergence", wave),
        ("wavefunction", "density_grid", wave),
        ("wavefunction", "sample_field", wave),
        ("cli", "psi", scalar),
        ("cli", "psi_initial", scalar),
        ("wavefunction", "psi", scalar),
        ("wavefunction", "density", scalar),
        ("observables", "psi", scalar),
        ("observables", "psi_dx", scalar),
        ("observables", "density", scalar),
    ]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Wall-clock self time of each span, keyed by id.

    A span covers its window minus the part its children cover. Children
    that overlap (pool threads) are clipped against their earlier siblings,
    so each instant is charged to one span and the self times of a tree sum
    to its root's duration.
    """
    ids = {id(s) for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and id(s.parent) in ids:
            children[id(s.parent)].append(s)
    stack = [s for s in spans if id(s.parent) not in ids]
    window = {id(s): (s.start, s.end) for s in stack}
    out = {}
    while stack:
        s = stack.pop()
        lo, hi = window[id(s)]
        covered, cursor = 0.0, lo
        for child in sorted(children[id(s)], key=lambda c: c.start):
            c_lo = min(max(child.start, cursor), hi)
            c_hi = max(min(child.end, hi), c_lo)
            window[id(child)] = (c_lo, c_hi)
            covered += c_hi - c_lo
            cursor = max(cursor, c_hi)
            stack.append(child)
        out[id(s)] = (hi - lo) - covered
    return out


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per layer name."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.layer] += own[id(s)]
    return dict(totals)
