"""Command-line front end for the transform and its two applications.

Subcommands map one-to-one onto the library: ``transform`` and
``symbol`` expose the operator itself, ``derive`` compares derivative
routes, ``advect`` runs the forced advection experiment, ``ifreq``
estimates instantaneous frequency, ``table1`` runs the closed-form
verification table, and ``replay`` re-executes any of them from a saved
manifest.

Each subcommand has one parameter table: for every key, in flag order,
its kind, its static default and its help line.  Each subcommand also
has one step, ``_<name>``.  One table, ``_COMMANDS``, lists each
subcommand with its step, help line, parameter table and manifest keys;
``build_parser``, ``_execute`` and ``replay`` all read it.  A step takes
raw parameter values, from the command line or from a manifest's
``parameters``, checks each as the kind its table gives (floats finite
and not bool, counts strict integers from 1 to
``MAX_COUNT``, choices among the allowed values), fills every
data-dependent default, loads the input, and computes every output.  A
check that the library makes before it computes anything is left to the
library.  The step returns the resolved parameters and the outputs
without writing; ``_execute`` creates the output directory only after
the step returns, so a rejected parameter or a diverged run leaves no
directory.  ``replay`` goes through the same step, so a manifest is
checked exactly like a command line; a key that no table lists is
rejected.

Every run writes its outputs plus a JSON manifest carrying the fully
resolved parameters; reduction order is fixed in all code paths, so
re-running a manifest reproduces output CSVs byte for byte.

A rerun removes each output that the same-named old manifest in its
directory lists and it did not write itself (plain file names only).

Exit codes: 0 success (for ``table1``: all rows passed, otherwise 1),
2 usage or parameter error (an allocation that fails included), 3
unreadable or malformed input data (including a manifest whose
parameters the step rejects), 4 numerical divergence (including an
``advect`` run whose leapfrog stability number is 1 or more).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .advection import (
    _SCHEMES,
    AdvectionConfig,
    DivergenceError,
    SourceTimeFunction,
    default_csit_params,
    dispersion_fd,
    parasitic_energy,
    pulse_centroid,
    pulse_speed,
    reference_config,
    run_advection,
)
from .grid import Series, UniformGrid
from .instfreq import (
    _classical_and_damped,
    analytic_signal,
    chirp,
    default_if_params,
    edge_mask,
    if_csit,
)
from .io import (
    CsvFormatError,
    RunManifest,
    _read_json_object,
    atomic_write_text,
    read_series_csv,
    write_table_csv,
)
from .operators import (
    _RULES,
    CsitParams,
    _derivative,
    csit_quadrature,
    csit_spectral,
    csit_symbol,
    fd_centered,
    pseudospectral_derivative,
    table1_verify,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# largest count (nodes per axis, samples, grid points, time steps) a run
# accepts; each count is capped on its own
MAX_COUNT = 2**20


# --- parameter tables ------------------------------------------------------


class _Param(NamedTuple):
    """One row of a parameter table.

    ``kind`` is "real", "count", "reals" (a list of reals), "path" (an input
    file, a positional argument), "out" (a plain file name), "csit" (a csit
    block), a tuple of choices, or None (checked where the value is used).
    ``default`` is static, ``_REQUIRED``, or None: none, or filled from the data.
    """

    kind: str | tuple | None
    default: object = None
    help: str | None = None


_REQUIRED = object()
_RECTANGLE = ("H", "Z", "eps", "n_eta", "n_tau", "rule")
# the library's defaults: the advection reference configuration, and the
# default rectangles at unit spacing, whose extents scale with the spacing
_REFERENCE = reference_config()
_UNIT_CSIT, _UNIT_IF = default_csit_params(1.0), default_if_params(1.0)


def _or(value, default):
    return default if value is None else value


def _rectangle_rows(eps_default: str, nodes: int | None = None, required: bool = False) -> dict:
    """The rows of ``_RECTANGLE``; H and Z are required or default to one sample spacing."""
    extent = "" if required else " (default: one sample spacing)"
    default = _REQUIRED if required else None
    return {
        "H": _Param("real", default, "real averaging half-width" + extent),
        "Z": _Param("real", default, "imaginary extent" + extent),
        "eps": _Param("real", None, f"lower tau cutoff (default: {eps_default})"),
        "n_eta": _Param("count", _or(nodes, CsitParams.n_eta), "eta node count"),
        "n_tau": _Param("count", _or(nodes, CsitParams.n_tau), "tau node count"),
        "rule": _Param(_RULES, CsitParams.rule, "tau weight rule"),
    }


_TRANSFORM = {
    "input": _Param("path", _REQUIRED, "two-column (x, value) CSV"),
    "mode": _Param(("quadrature", "symbol"), "quadrature",
                   "numerical quadrature or exact spectral symbol"),
    "out": _Param("out", "csit_transform.csv"),
    **_rectangle_rows("Z / max(n_tau, 2)", nodes=32, required=True),
}
_DERIVE = {
    "input": _Param("path", None, "two-column (t, value) CSV"),
    "demo": _Param(("logistic",), None, "built-in steep-transition experiment"),
    "n": _Param("count", 500, "demo sample count"),
    "k": _Param("real", 100.0, "demo steepness"),
    "t0": _Param("real", 0.5, "demo midpoint"),
    "out": _Param("out", "csit_derive.csv"),
    **_rectangle_rows("Z / max(n_tau, 2)"),
}
_ADVECT = {
    "scheme": _Param(_SCHEMES, _REFERENCE.scheme),
    "config": _Param(None, None, "JSON overrides for the reference configuration"),
    "snapshots": _Param("reals", None, "comma-separated output times (default: 0, T/2, T)"),
    "window": _Param("reals", None, "pulse window lo,hi for the parasitic-energy summary "
                                    "(default: final centroid +- 4 wavelengths)"),
    "out_dir": _Param(None, "csit_advect"),
}
# the fields of an advect --config object, its "csit" block and its "source" object
_ADVECT_CONFIG = {
    "c": _Param("real", _REFERENCE.c),
    "L": _Param("real", _REFERENCE.L),
    "x_s": _Param("real", _REFERENCE.x_s),
    "f0": _Param("real", _REFERENCE.f0),
    "n_x": _Param("count", _REFERENCE.n_x),
    "cfl": _Param("real", _REFERENCE.cfl),
    "n_t": _Param("count", _REFERENCE.n_t),
    "csit": _Param("csit", None),
}
_CSIT_BLOCK = {
    "eta_half_width": _Param("real", _REQUIRED),
    "tau_max": _Param("real", _REQUIRED),
    "tau_min": _Param("real", CsitParams.tau_min),
    "n_eta": _Param("count", CsitParams.n_eta),
    "n_tau": _Param("count", CsitParams.n_tau),
    "rule": _Param(_RULES, CsitParams.rule),
}
_SOURCE = {"kind": _Param(None, SourceTimeFunction.kind), "t_delay": _Param("real", None)}
# the keys of an advect manifest, in the order it records them
_ADVECT_KEYS = {"scheme": _ADVECT["scheme"], **_ADVECT_CONFIG, "source_kind": _SOURCE["kind"],
                "t_delay": _SOURCE["t_delay"], "window": _ADVECT["window"],
                "snapshots": _ADVECT["snapshots"]}
_IFREQ = {
    "input": _Param("path", None, "two-column (t, value) CSV"),
    "demo": _Param(("chirp",), None, "built-in linear chirp"),
    "f0": _Param("real", 20.0, "demo start frequency"),
    "rate": _Param("real", 20.0, "demo sweep rate"),
    "n": _Param("count", 2500, "demo sample count"),
    "out": _Param("out", "csit_ifreq.csv"),
    **_rectangle_rows("1e-2 * Z"),
    "backend": _Param(("pseudospectral", "fd"), "pseudospectral",
                      "time-derivative scheme for the classical ratio"),
    "damping": _Param("real", None, "damping for the damped ratio "
                                    "(default: 1e-3 of the peak amplitude)"),
    "trim": _Param("real", 0.05, "fraction of samples dropped per edge"),
}
_SYMBOL = {
    "kmax": _Param("real", None, "largest wavenumber (default: pi/dx)"),
    "samples": _Param("count", 200),
    "H": _Param("real", None, "real half-width (default: 0.1 dx)"),
    "Z": _Param("real", None, "imaginary extent (default: 5e-4 dx)"),
    "dx": _Param("real", 1.0, "grid spacing"),
    "c": _Param("real", 1.0, "advection speed"),
    "out": _Param("out", "csit_symbol.csv"),
}
_TABLE1 = {"out": _Param("out", "csit_table1.csv")}
_REPLAY = {
    "manifest": _Param("path", _REQUIRED, "manifest JSON written by a previous run"),
    "out_dir": _Param(None, _REQUIRED, "directory for the re-created outputs"),
}


# --- raw values ------------------------------------------------------------


def _get(params: dict, key: str):
    if key not in params:
        raise ValueError(f"parameter {key!r} is missing")
    return params[key]


def _finite(value, key: str) -> float:
    # abs(v) <= max is False for NaN and inf, and exact for huge integers
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _reals(value, key: str) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return [_finite(v, key) for v in value]


def _count(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_COUNT:
        raise ValueError(f"{key} must be an integer from 1 to {MAX_COUNT}, got {value!r}")
    return value


def _path(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a file path, got {value!r}")
    return str(Path(value).resolve())


def _plain(value) -> bool:
    """Whether ``value`` names a file in the output directory, nothing above or below it."""
    plain = isinstance(value, str) and Path(value).name == value and "\0" not in value
    return plain and value not in ("", ".", "..")


def _out_name(value, key: str) -> str:
    if not _plain(value):
        raise ValueError(f"{key} must be a plain file name, got {value!r}")
    return value


def _csit_block(block, key: str) -> CsitParams:
    if not isinstance(block, dict):
        raise ValueError(f"{key} must be an object, got {block!r}")
    _known(block, _CSIT_BLOCK, key)
    return CsitParams(**_read({**_defaults(_CSIT_BLOCK), **block}, _CSIT_BLOCK, *_CSIT_BLOCK))


_CHECKS = {"real": _finite, "reals": _reals, "count": _count, "path": _path,
           "out": _out_name, "csit": _csit_block}


def _read(raw: dict, table: dict, *keys: str) -> dict:
    """``raw[key]`` for each of ``keys``, checked as the kind its row gives.

    None passes for a row whose default is None.
    """
    values = {}
    for key in keys:
        kind, default, _ = table[key]
        value = _get(raw, key)
        if isinstance(kind, tuple):
            allowed = kind if default is not None else (None, *kind)
            if not (value is None or isinstance(value, str)) or value not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {value!r}")
        elif kind is not None and not (value is None and default is None):
            value = _CHECKS[kind](value, key)
        values[key] = value
    return values


def _defaults(table: dict) -> dict:
    return {key: row.default for key, row in table.items() if row.default is not _REQUIRED}


def _known(fields: dict, keys, what: str) -> None:
    unknown = set(fields) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")


def _rectangle(raw: dict, table: dict, dt: float) -> dict:
    """H, Z, eps, node counts and rule; H and Z default to ``dt``."""
    params = _read(raw, table, *_RECTANGLE)
    return dict(params, H=_or(params["H"], dt), Z=_or(params["Z"], dt))


# the keys that flags and manifests give the extents of a CsitParams
_EXTENT_KEYS = {"eta_half_width": "H", "tau_max": "Z", "tau_min": "eps"}


def _keyed(call, *args, keys=_EXTENT_KEYS, **kwargs):
    """``call(*args, **kwargs)``; a range error names key and field, as in "Z (tau_max)".

    ``keys`` maps the field names of ``call`` to the flag and manifest keys.
    """
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        message = str(exc)
        for field, key in keys.items():
            message = message.replace(field, f"{key} ({field})")
        raise ValueError(message) from None


def _csit_params(params: dict) -> CsitParams:
    """The rectangle of ``params``; ``params["eps"]`` becomes its resolved
    lower cutoff.  The route that takes it checks it against the grid."""
    extents = {field: params[key] for field, key in _EXTENT_KEYS.items()}
    p = _keyed(CsitParams, **extents, **{key: params[key] for key in ("n_eta", "n_tau", "rule")})
    params["eps"] = p.tau_min
    return p


def _load_series(path) -> Series:
    t, v = read_series_csv(path)
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    return Series(UniformGrid(x0=float(t[0]), length=n * dt, n=n), v)


# --- transform -------------------------------------------------------------

# a step returns the resolved parameters, its outputs by file name in write
# order -- (header, columns) for a CSV, text for summary.json -- and its exit code
_Step = tuple[dict, dict, int]


def _transform(raw: dict) -> _Step:
    params = _read(raw, _TRANSFORM, "input", "mode", *_RECTANGLE, "out")
    s = _load_series(params["input"])
    if params["mode"] == "quadrature":
        out = _keyed(csit_quadrature, s, _csit_params(params))
    else:
        out = _keyed(csit_spectral, s, params["H"], params["Z"])
    table = (["x", "input", "csit_output"], [s.grid.nodes, s.values, out.values])
    return params, {params["out"]: table}, EXIT_OK


# --- derive ----------------------------------------------------------------

# nodes blanked per edge in the relative-error columns; periodic averaging
# is asymmetric there and the comparison would be dominated by it
_DERIVE_EDGE = 5


def _derive(raw: dict) -> _Step:
    params = {**_read(raw, _DERIVE, "demo", "input"), "n": None, "k": None, "t0": None}
    if (params["demo"] is None) == (params["input"] is None):
        raise ValueError("provide exactly one of an input CSV or --demo")
    if params["demo"] == "logistic":
        params.update(_read(raw, _DERIVE, "n", "k", "t0"))
        if params["k"] == 0.0:
            raise ValueError("k must be nonzero")
        if params["n"] <= 2 * _DERIVE_EDGE:
            raise ValueError(f"n must exceed the {2 * _DERIVE_EDGE} blanked edge nodes, got {params['n']}")
        grid = UniformGrid(0.0, 1.0, params["n"])
        with np.errstate(over="ignore"):  # exp overflow gives the exact limit f = 0
            f = 1.0 / (1.0 + np.exp(-params["k"] * (grid.nodes - params["t0"])))
        s, analytic = Series(grid, f), params["k"] * f * (1.0 - f)
        if not np.any(analytic):  # the relative errors would divide by a zero scale
            raise ValueError(f"k {params['k']!r} and t0 {params['t0']!r} give an analytic "
                             "derivative that underflows to 0 at every node")
    else:
        s, analytic = _load_series(params["input"]), None
    params.update(_rectangle(raw, _DERIVE, s.grid.dx), **_read(raw, _DERIVE, "out"))
    p = _csit_params(params)
    fd = fd_centered(s).values
    ps = pseudospectral_derivative(s).values
    cs = _keyed(csit_quadrature, s, p).values

    header = ["t", "f", "fd", "pseudospectral", "csit"]
    columns = [s.grid.nodes, s.values, fd, ps, cs]
    if analytic is not None:
        scale = np.max(np.abs(analytic))
        interior = np.zeros(s.grid.n, dtype=bool)
        interior[_DERIVE_EDGE:-_DERIVE_EDGE] = True
        header.append("analytic")
        columns.append(analytic)
        for label, d in (("fd", fd), ("pseudospectral", ps), ("csit", cs)):
            rel = np.abs(d - analytic) / scale
            header.append(f"rel_err_{label}")
            columns.append(np.where(interior, rel, np.nan))
    return params, {params["out"]: (header, columns)}, EXIT_OK


# --- advect ----------------------------------------------------------------


def _advect(raw: dict) -> _Step:
    params = _read(raw, _ADVECT_KEYS, *_ADVECT_KEYS)
    if params["window"] is not None and len(params["window"]) != 2:
        raise ValueError("window needs exactly two numbers")
    cfg = AdvectionConfig(
        **{key: params[key] for key in ("c", "L", "x_s", "f0", "n_x", "cfl", "n_t", "scheme", "csit")}
    )
    params["csit"] = None if cfg.csit is None else dict(vars(cfg.csit))
    src = SourceTimeFunction(kind=params["source_kind"], f0=cfg.f0, t_delay=params["t_delay"])
    params["t_delay"] = src.t_delay
    if params["snapshots"] is None:
        duration = cfg.n_t * cfg.dt
        params["snapshots"] = [0.0, 0.5 * duration, duration]
    # leapfrog on an imaginary symbol stays bounded only for c*dt*max|sigma(k)| < 1;
    # above it the unstable mode may grow too slowly for run_advection's gate
    nu = cfg.c * cfg.dt * _derivative(cfg.grid, cfg.scheme, cfg.csit).max_rate
    if not nu < 1.0:
        raise DivergenceError(0.0, None, f"{cfg.scheme} at cfl {cfg.cfl:g} is unstable for leapfrog: "
                                         f"c*dt*max|sigma(k)| = {nu:.6g} must be below 1")
    # run_advection checks the snapshot times before its first step
    snapshots = run_advection(cfg, src, params["snapshots"])
    outputs = {
        f"snapshot_{index:03d}.csv": (["x", "u"], [snap.u.grid.nodes, snap.u.values])
        for index, snap in enumerate(snapshots)
    }

    if params["window"] is None:
        # pulse window: final centroid +- 4 wavelengths
        half = 4.0 * cfg.c / cfg.f0
        center = pulse_centroid(snapshots[-1])
        params["window"] = [center - half, center + half]
    window = params["window"]

    summary = {
        "scheme": cfg.scheme,
        "window": window,
        "wavelength": cfg.c / cfg.f0,
        "pulse_speed": pulse_speed(snapshots) if len(snapshots) >= 2 else None,
        "snapshots": [
            {
                "t": snap.t,
                "centroid": pulse_centroid(snap),
                "energy": float(np.sum(snap.u.values**2)),
                "parasitic_energy": _null_if_infinite(parasitic_energy(snap, tuple(window))),
            }
            for snap in snapshots
        ],
    }
    try:
        outputs["summary.json"] = json.dumps(summary, indent=2, allow_nan=False) + "\n"
    except ValueError:  # JSON has no NaN or Infinity
        raise ValueError(f"summary entry {_non_finite(summary)} is not finite") from None
    return params, outputs, EXIT_OK


def _null_if_infinite(ratio: float) -> float | None:
    # a window holding none of the energy gives an infinite ratio, which
    # JSON cannot hold: it is written as null
    return None if ratio == math.inf else ratio


def _non_finite(value, path: str = "") -> str | None:
    """``"<path> = <value>"`` of the first non-finite float in nested
    dicts and lists, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path} = {value}"
    if isinstance(value, dict):
        items = ((f"{path}.{key}".lstrip("."), item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite(item, where) for where, item in items)), None)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None


def _advect_raw(args: dict) -> dict:
    """The advect flags as raw parameters, with the --config overrides merged in."""
    overrides = {}
    if args["config"] is not None:
        overrides = _read_json_object(args["config"], "config")
    source = overrides.pop("source", {})
    if not isinstance(source, dict):
        raise ValueError(f"source must be an object, got {source!r}")
    _known(overrides, _ADVECT_CONFIG, "config")
    _known(source, _SOURCE, "source")
    source = {**_defaults(_SOURCE), **source}
    return {
        "scheme": args["scheme"],
        **_defaults(_ADVECT_CONFIG),
        **overrides,
        "source_kind": source["kind"],
        "t_delay": source["t_delay"],
        **{key: None if args[key] is None else _parse_floats(args[key], f"--{key}")
           for key in ("window", "snapshots")},
    }


# --- ifreq -----------------------------------------------------------------


def _ifreq(raw: dict) -> _Step:
    params = {**_read(raw, _IFREQ, "demo", "input"), "f0": None, "rate": None, "n": None}
    if (params["demo"] is None) == (params["input"] is None):
        raise ValueError("provide exactly one of an input CSV or --demo")
    # manifests written before the estimator had a single form name it
    if raw.get("variant", "spectral_shift") != "spectral_shift":
        raise ValueError(f"variant {raw['variant']!r} is not supported (only 'spectral_shift')")
    if params["demo"] == "chirp":
        params.update(_read(raw, _IFREQ, "f0", "rate", "n"))
        grid = UniformGrid(0.0, 1.0, params["n"])
        s = chirp(params["f0"], params["rate"], grid)
        truth = params["f0"] + params["rate"] * grid.nodes
    else:
        s, truth = _load_series(params["input"]), None
    trace = analytic_signal(s)
    params.update(_rectangle(raw, _IFREQ, s.grid.dx))
    params["eps"] = _or(params["eps"], _UNIT_IF.tau_min * params["Z"])
    params.update(_read(raw, _IFREQ, "backend", "damping", "trim", "out"))
    p = _csit_params(params)
    keep = _keyed(edge_mask, s.grid.n, params["trim"], keys={"fraction": "trim"})
    if not keep.any():
        raise ValueError(f"trim {params['trim']:g} leaves none of the {s.grid.n} samples")
    # one pair of phase-rate terms for both ratios, which resolve the default damping
    classical, damped, params["damping"] = _keyed(_classical_and_damped, trace, params["damping"],
                                                  params["backend"], keys={"eps_damp": "damping"})
    csit_est = _keyed(if_csit, trace, p)

    estimates = (classical, damped, csit_est)
    header = ["t", "value", "if_classical", "if_damped", "if_csit",
              "valid_classical", "valid_damped", "valid_csit"]
    columns = [s.grid.nodes[keep], s.values[keep], *(e.frequency[keep] for e in estimates),
               *(e.valid[keep] for e in estimates)]
    if truth is not None:
        header.append("truth")
        columns.append(truth[keep])
    return params, {params["out"]: (header, columns)}, EXIT_OK


# --- symbol ----------------------------------------------------------------


def _symbol(raw: dict) -> _Step:
    dx = _read(raw, _SYMBOL, "dx")["dx"]
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    params = _read(raw, _SYMBOL, *_SYMBOL)
    # the extents of default_csit_params(dx), which also requires 1/(2*H*Z)
    # finite; the symbol builds no quadrature and does not need it
    params.update(kmax=_or(params["kmax"], np.pi / dx),
                  H=_or(params["H"], _UNIT_CSIT.eta_half_width * dx),
                  Z=_or(params["Z"], _UNIT_CSIT.tau_max * dx))
    if params["samples"] < 2:
        raise ValueError("samples must be at least 2")
    if not 0.0 < params["kmax"] < np.inf:
        raise ValueError("kmax must be positive and finite")
    if not abs(params["c"] / dx) <= sys.float_info.max:  # omega_fd would be inf * 0 at k = 0
        raise ValueError(f"c/dx overflows for c {params['c']!r} and dx {dx!r}")
    kmax = params["kmax"]
    if not kmax * dx <= sys.float_info.max:  # the sine argument of omega_fd
        raise ValueError(f"kmax*dx overflows for kmax {kmax!r} and dx {dx!r}")
    k = np.linspace(0.0, kmax, params["samples"])
    sigma = _keyed(csit_symbol, k, params["H"], params["Z"])
    single = csit_symbol(k, 0.0, params["Z"])
    omega_fd = dispersion_fd(k, params["c"], dx)
    table = (["k", "abs_sigma_csit", "abs_sigma_single", "abs_ik", "omega_fd"],
             [k, np.abs(sigma), np.abs(single), np.abs(k), omega_fd])
    return params, {params["out"]: table}, EXIT_OK


# --- table1 ----------------------------------------------------------------


def _table1(raw: dict) -> _Step:
    params = _read(raw, _TABLE1, "out")
    report = table1_verify()
    table = (
        ["name", "reference", "max_deviation", "tolerance", "passed"],
        [
            np.array([row.name for row in report.rows], dtype=object),
            np.array([row.reference for row in report.rows], dtype=object),
            np.array([row.max_deviation for row in report.rows]),
            np.array([row.tolerance for row in report.rows]),
            np.array([row.passed for row in report.rows]),
        ],
    )
    return params, {params["out"]: table}, EXIT_OK if report.passed else EXIT_FAIL


# --- execution and replay --------------------------------------------------

# every subcommand, in the order of ``csit --help``: its step (None for
# ``replay``), its help line and flag table, and the keys a manifest of it may
# carry; besides these, a manifest of an earlier version may carry a thread
# count that nothing read
_COMMANDS = {
    "transform": (_transform, "apply the transform to a sampled series", _TRANSFORM, _TRANSFORM),
    "derive": (_derive, "compare derivative operators on a series", _DERIVE, _DERIVE),
    "advect": (_advect, "run the forced advection experiment", _ADVECT, _ADVECT_KEYS),
    # _ifreq checks the estimator variant that earlier versions recorded
    "ifreq": (_ifreq, "instantaneous-frequency estimates for a trace", _IFREQ, (*_IFREQ, "variant")),
    "symbol": (_symbol, "tabulate the operator symbol and dispersion curves", _SYMBOL, _SYMBOL),
    "table1": (_table1, "closed-form verification table for the transform", _TABLE1, _TABLE1),
    "replay": (None, "re-run a subcommand from its manifest", _REPLAY, ()),
}


def _execute(subcommand: str, raw: dict, out_dir: Path, manifest_path=None) -> int:
    """Run the step of ``subcommand`` on ``raw``; only then create ``out_dir``,
    write the outputs and the manifest, and remove each output that the
    old manifest of the same name lists and this run did not write.

    For a replay (``manifest_path`` given), unknown keys, parameters the
    step rejects and node counts too large to allocate are malformed input
    of that manifest.
    """
    started = time.perf_counter()
    step, _, _, keys = _COMMANDS[subcommand]
    try:
        if manifest_path is not None:
            _known(raw, (*keys, "threads"), "parameter")
        params, outputs, code = step(raw)
    except (ValueError, MemoryError) as exc:
        if manifest_path is None:
            raise
        raise CsvFormatError(manifest_path, f"bad parameters: {exc}") from None
    manifest_name = "manifest.json" if subcommand == "advect" else params["out"] + ".manifest.json"
    stale = _listed_outputs(out_dir / manifest_name) - {*outputs, manifest_name}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, output in outputs.items():
        if isinstance(output, str):
            atomic_write_text(out_dir / name, output)
        else:
            write_table_csv(out_dir / name, *output)
    manifest = RunManifest(
        subcommand=subcommand,
        parameters=params,
        inputs=[params["input"]] if params.get("input") else [],
        outputs=list(outputs),
    )
    manifest.finalize(time.perf_counter() - started).write(out_dir / manifest_name)
    for name in sorted(stale):
        if not (out_dir / name).is_dir():
            (out_dir / name).unlink(missing_ok=True)
    return code


def _listed_outputs(path: Path) -> set[str]:
    """The plain file names that the manifest at ``path`` lists as outputs;
    none if there is no manifest there or it cannot be read."""
    try:
        outputs = RunManifest.read(path).outputs
    except CsvFormatError:
        return set()
    return {name for name in outputs if _plain(name)} if isinstance(outputs, list) else set()


def _replay(path: str, out_dir: Path) -> int:
    manifest = RunManifest.read(path)
    # a manifest names a subcommand with a step, which replay has not
    if not (isinstance(manifest.subcommand, str) and _COMMANDS.get(manifest.subcommand, (None,))[0]):
        raise CsvFormatError(path, f"unknown subcommand {manifest.subcommand!r}")
    if not isinstance(manifest.parameters, dict):
        raise CsvFormatError(path, "manifest parameters must be a JSON object")
    return _execute(manifest.subcommand, manifest.parameters, out_dir, path)


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``csit: error:`` line instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="csit", description="Complex-step integral transform tools")
    parser.add_argument("--version", action="version", version=f"csit {__version__}")
    commands = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, summary, table, _) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        for key, (kind, default, text) in table.items():
            options = {"help": text, "type": {"real": float, "count": int}.get(kind)}
            if isinstance(kind, tuple):
                options["choices"] = kind
            if kind == "path":
                names = [key]
                if default is None:
                    options.update(nargs="?", default=None)
            else:
                names = ["--" + key.replace("_", "-")]
                options.update({"required": True} if default is _REQUIRED else {"default": default})
            sub.add_argument(*names, **options)
    return parser


# the parser of ``main``, built on its first call; argparse makes a new
# Namespace per parse and no default is mutable, so calls share no state
_parser = None


def main(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = vars(_parser.parse_args(argv))
        subcommand = args.pop("subcommand")
        if subcommand == "replay":
            return _replay(args["manifest"], Path(args["out_dir"]))
        if subcommand == "advect":
            return _execute("advect", _advect_raw(args), Path(args["out_dir"]))
        out = Path(args["out"])
        return _execute(subcommand, dict(args, out=out.name), out.parent)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (ValueError, OSError, DivergenceError, MemoryError) as exc:
        print(f"csit: error: {exc}", file=sys.stderr)
        if isinstance(exc, DivergenceError):
            return EXIT_DIVERGED
        return EXIT_DATA if isinstance(exc, (CsvFormatError, OSError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
