"""Span tracing of the csit layers, installed from the benchmark's side.

The package imports names by value (``cli`` and ``advection`` bind
``csit_quadrature`` at import time, ``instfreq`` binds
``continue_spectral``), so wrapping a function in its defining module is
not enough: :func:`install` replaces every binding of the function in
every loaded ``csit`` module.  The ``fft`` layer covers the 1-D entry
points of ``numpy.fft`` and ``scipy.fft``, patched on those modules so
that ``np.fft.fft(...)`` calls inside the package resolve to the wrapper.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``; spans
are kept in memory and only recorded while ``Tracer.request`` is set, so
the benchmark's own input generation and output checks stay untraced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "operators", "special", "continuation", "instfreq", "advection", "grid")

# called once per CSV cell: a span there would cost more than the work it
# measures and would inflate io.write_table_csv.s in the traced run
PER_ELEMENT = frozenset({"io.format_cell"})

FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")


class Tracer:
    """In-memory span and counter store for one benchmark child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.request: int | None = None
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop everything recorded so far (used after the cold repetition)."""
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, tally=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tally is not None:
                tally(self.counts, args, kwargs, result)
            return result

        return traced


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _tally_read(fn):
    def tally(counts, args, kwargs, result):
        counts["io.rows_read"] += len(result[0])
    return tally


def _tally_write_table(fn):
    def tally(counts, args, kwargs, result):
        bound = _bound(fn, args, kwargs)
        columns = bound["columns"]
        rows = len(columns[0]) if len(columns) else 0
        counts["io.cells_written"] += rows * len(bound["header"])
    return tally


def _tally_atomic_write(fn):
    def tally(counts, args, kwargs, result):
        counts["io.bytes_written"] += len(_bound(fn, args, kwargs)["text"].encode())
    return tally


def _tally_advection(fn):
    def tally(counts, args, kwargs, result):
        counts["advection.steps"] += _bound(fn, args, kwargs)["cfg"].n_t
    return tally


def _tally_if_csit(fn):
    def tally(counts, args, kwargs, result):
        counts["instfreq.if_csit.invalid"] += int(result.valid.size - result.valid.sum())
    return tally


_TALLIES = {
    "io.read_series_csv": _tally_read,
    "io.write_table_csv": _tally_write_table,
    "io.atomic_write_text": _tally_atomic_write,
    "advection.run_advection": _tally_advection,
    "instfreq.if_csit": _tally_if_csit,
}


def _tally_fft(counts, args, kwargs, result):
    """Computed work of one 1-D transform: points, 5 N log2 N flops, bytes in + out."""
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    source = args[0] if args else kwargs.get("a", kwargs.get("x"))
    in_bytes = getattr(source, "nbytes", 0)
    shape = result.shape
    n = shape[axis] if shape else 1
    if hasattr(source, "shape") and source.shape:
        n = max(n, source.shape[axis])  # irfft/hfft: the long side is the output
    batch = result.size // max(shape[axis], 1) if shape else 1
    counts["fft.points"] += n * batch
    counts["fft.flops_computed"] += 5.0 * n * math.log2(n) * batch if n > 1 else 0.0
    counts["fft.bytes_computed"] += in_bytes + result.nbytes


def _rebind(modules, old, new) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer and the FFT entry points."""
    import numpy.fft
    import scipy.fft

    layer_modules = {layer: importlib.import_module(f"csit.{layer}") for layer in LAYERS}
    package = [m for n, m in list(sys.modules.items()) if n == "csit" or n.startswith("csit.")]
    for layer, module in layer_modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            name = f"{layer}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in PER_ELEMENT:
                continue
            tally = _TALLIES[name](fn) if name in _TALLIES else None
            _rebind(package, fn, tracer.wrap(name, fn, tally))

    for lib in (numpy.fft, scipy.fft):
        for attr in FFT_ENTRY_POINTS:
            fn = getattr(lib, attr, None)
            if fn is None:
                continue
            wrapped = tracer.wrap(f"fft.{lib.__name__}.{attr}", fn, _tally_fft)
            setattr(lib, attr, wrapped)
            _rebind(package, fn, wrapped)

    series = layer_modules["grid"].Series
    post_init = series.__post_init__

    def counted_post_init(self):
        if tracer.request is not None:
            tracer.counts["grid.series_constructed"] += 1
        post_init(self)

    series.__post_init__ = counted_post_init


# --- per-layer metrics ------------------------------------------------------

# counts that must repeat exactly between two traced runs of the same code;
# io.bytes_written is left out because every manifest carries its own wall
# time and creation timestamp, whose text length varies from run to run
EXACT = (
    "io.rows_read",
    "io.cells_written",
    "advection.steps",
    "grid.series_constructed",
    "instfreq.if_csit.invalid",
    "fft.points",
    "fft.flops_computed",
    "fft.bytes_computed",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce the recorded spans and counters to named per-layer values."""
    calls: dict[str, int] = defaultdict(int)
    busy_ns: dict[str, int] = defaultdict(int)
    child_ns: dict[int, int] = defaultdict(int)
    for name, start, end, parent, _ in tracer.spans:
        calls[name] += 1
        busy_ns[name] += end - start
        if parent >= 0:
            child_ns[parent] += end - start

    def self_ns(target: str) -> int:
        return sum(
            end - start - child_ns[i]
            for i, (name, start, end, _, _) in enumerate(tracer.spans)
            if name == target
        )

    out: dict[str, float] = {}
    for name in sorted(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = busy_ns[name] * 1e-9
    out.update(tracer.counts)

    fft = [n for n in calls if n.startswith("fft.")]
    out["fft.calls"] = sum(calls[n] for n in fft)
    out["fft.s"] = sum(busy_ns[n] for n in fft) * 1e-9
    out["cli.self_s"] = self_ns("cli.main") * 1e-9
    write_s = busy_ns["io.write_table_csv"] * 1e-9
    out["io.cells_per_s"] = out.get("io.cells_written", 0.0) / write_s if write_s else 0.0
    steps = out.get("advection.steps", 0.0)
    # run_advection's only traced children are its derivative calls
    advect_self = self_ns("advection.run_advection") * 1e-9
    out["advection.overhead_per_step_us"] = 1e6 * advect_self / steps if steps else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
