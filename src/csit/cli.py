"""Command-line front end for the transform and its two applications.

Subcommands map one-to-one onto the library: ``transform`` and
``symbol`` expose the operator itself, ``derive`` compares derivative
routes, ``advect`` runs the forced advection experiment, ``ifreq``
estimates instantaneous frequency, ``table1`` runs the closed-form
verification table, and ``replay`` re-executes any of them from a saved
manifest.

Each subcommand has one resolver, ``_resolve_<name>``.  It takes raw
parameter values, from the command line or from a manifest's
``parameters``, checks their types (floats finite and not bool, counts
strict integers from 1 to ``MAX_COUNT``, choices among the allowed
values), fills every data-dependent default, loads the input and builds
the typed objects, and applies the growth rule -- all before any output
directory is created.  The runner, ``_run_<name>``, then computes and
writes from that result.  ``replay`` goes through the same resolver, so
a manifest is checked exactly like a command line.

Every run writes its outputs plus a JSON manifest carrying the fully
resolved parameters; reduction order is fixed in all code paths, so
re-running a manifest reproduces output CSVs byte for byte.

Exit codes: 0 success (for ``table1``: all rows passed, otherwise 1),
2 usage or parameter error, 3 unreadable or malformed input data
(including a manifest whose parameters the resolver rejects),
4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .advection import (
    _SCHEMES,
    AdvectionConfig,
    DivergenceError,
    SourceTimeFunction,
    _snapshot_steps,
    dispersion_fd,
    parasitic_energy,
    pulse_centroid,
    pulse_speed,
    run_advection,
)
from .grid import Series, UniformGrid, wavenumbers
from .instfreq import (
    _check_damping,
    analytic_signal,
    chirp,
    edge_mask,
    if_classical,
    if_csit,
    if_damped,
)
from .io import CsvFormatError, RunManifest, atomic_write_text, read_series_csv, write_table_csv
from .operators import (
    _RULES,
    CsitParams,
    _check_extents,
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

_VERSION = "0.1.0"

# largest count (nodes per axis, samples, grid points, time steps) a run
# accepts; each count is capped on its own
MAX_COUNT = 2**20

_MODES = ("quadrature", "symbol")
_BACKENDS = ("pseudospectral", "fd")


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


def _real(params: dict, key: str, optional: bool = False) -> float | None:
    value = _get(params, key)
    return None if value is None and optional else _finite(value, key)


def _reals(params: dict, key: str) -> list[float] | None:
    value = _get(params, key)
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return [_finite(v, key) for v in value]


def _count(params: dict, key: str) -> int:
    value = _get(params, key)
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_COUNT:
        raise ValueError(f"{key} must be an integer from 1 to {MAX_COUNT}, got {value!r}")
    return value


def _choice(params: dict, key: str, allowed: tuple):
    value = _get(params, key)
    if not (value is None or isinstance(value, str)) or value not in allowed:
        raise ValueError(f"{key} must be one of {allowed}, got {value!r}")
    return value


def _path(params: dict, key: str, optional: bool = False) -> str | None:
    value = _get(params, key)
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a file path, got {value!r}")
    return str(Path(value).resolve())


def _out_name(params: dict) -> str:
    value = _get(params, "out")
    plain = isinstance(value, str) and Path(value).name == value and "\0" not in value
    if not plain or value in ("", ".", ".."):
        raise ValueError(f"out must be a plain file name, got {value!r}")
    return value


def _or(value, default):
    return default if value is None else value


def _rectangle(raw: dict, dt: float | None) -> dict:
    """H, Z, eps, node counts and rule; H and Z default to ``dt`` when it is given."""
    H, Z = (_real(raw, key, optional=dt is not None) for key in ("H", "Z"))
    return {
        "H": _or(H, dt),
        "Z": _or(Z, dt),
        "eps": _real(raw, "eps", optional=True),
        "n_eta": _count(raw, "n_eta"),
        "n_tau": _count(raw, "n_tau"),
        "rule": _choice(raw, "rule", _RULES),
    }


# the keys that flags and manifests give the extents of a CsitParams
_EXTENT_KEYS = {"eta_half_width": "H", "tau_max": "Z", "tau_min": "eps"}


def _keyed(check, *args, **kwargs):
    """``check(*args, **kwargs)``; a range error names key and field, as in "Z (tau_max)"."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        message = str(exc)
        for field, key in _EXTENT_KEYS.items():
            message = message.replace(field, f"{key} ({field})")
        raise ValueError(message) from None


def _csit_params(params: dict) -> CsitParams:
    extents = {field: params[key] for field, key in _EXTENT_KEYS.items()}
    return _keyed(CsitParams, **extents, **{key: params[key] for key in ("n_eta", "n_tau", "rule")})


def _load_series(path) -> Series:
    t, v = read_series_csv(path)
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    return Series(UniformGrid(x0=float(t[0]), length=n * dt, n=n), v)


# --- transform -------------------------------------------------------------


def _resolve_transform(raw: dict) -> tuple[dict, tuple]:
    params = {
        "input": _path(raw, "input"),
        "mode": _choice(raw, "mode", _MODES),
        **_rectangle(raw, None),
        "out": _out_name(raw),
    }
    p = None
    if params["mode"] == "quadrature":
        p = _csit_params(params)
        params["eps"] = p.tau_min
    s = _load_series(params["input"])
    _keyed(_check_extents, params["H"], params["Z"], wavenumbers(s.grid))
    return params, (s, p)


def _run_transform(params: dict, loaded: tuple, out_dir: Path) -> tuple[list, int]:
    s, p = loaded
    if p is not None:
        out = csit_quadrature(s, p)
    else:
        out = csit_spectral(s, params["H"], params["Z"])
    write_table_csv(
        out_dir / params["out"],
        ["x", "input", "csit_output"],
        [s.grid.nodes, s.values, out.values],
    )
    return [params["out"]], EXIT_OK


# --- derive ----------------------------------------------------------------

# nodes blanked per edge in the relative-error columns; periodic averaging
# is asymmetric there and the comparison would be dominated by it
_DERIVE_EDGE = 5


def _resolve_derive(raw: dict) -> tuple[dict, tuple]:
    params = {
        "demo": _choice(raw, "demo", (None, "logistic")),
        "input": _path(raw, "input", optional=True),
        "n": None,
        "k": None,
        "t0": None,
    }
    if (params["demo"] is None) == (params["input"] is None):
        raise ValueError("provide exactly one of an input CSV or --demo")
    if params["demo"] == "logistic":
        params.update(n=_count(raw, "n"), k=_real(raw, "k"), t0=_real(raw, "t0"))
        if params["k"] == 0.0:
            raise ValueError("k must be nonzero")
        if params["n"] <= 2 * _DERIVE_EDGE:
            raise ValueError(f"n must exceed the {2 * _DERIVE_EDGE} blanked edge nodes, got {params['n']}")
        grid = UniformGrid(0.0, 1.0, params["n"])
        with np.errstate(over="ignore"):  # exp overflow gives the exact limit f = 0
            f = 1.0 / (1.0 + np.exp(-params["k"] * (grid.nodes - params["t0"])))
        s, analytic = Series(grid, f), params["k"] * f * (1.0 - f)
    else:
        s, analytic = _load_series(params["input"]), None
    params.update(_rectangle(raw, s.grid.dx), out=_out_name(raw))
    p = _csit_params(params)
    params["eps"] = p.tau_min
    _check_extents(p.eta_half_width, p.tau_max, wavenumbers(s.grid))
    return params, (s, analytic, p)


def _run_derive(params: dict, loaded: tuple, out_dir: Path) -> tuple[list, int]:
    s, analytic, p = loaded
    fd = fd_centered(s).values
    ps = pseudospectral_derivative(s).values
    cs = csit_quadrature(s, p).values

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
    write_table_csv(out_dir / params["out"], header, columns)
    return [params["out"]], EXIT_OK


# --- advect ----------------------------------------------------------------

# the reference configuration; a --config JSON object overrides any of these
_ADVECT_DEFAULTS = {
    "c": 900.0, "L": 10000.0, "x_s": 5000.0, "f0": 1.0,
    "n_x": 500, "cfl": 0.25, "n_t": 600, "csit": None,
}
# optional fields of a csit block; eta_half_width and tau_max are required
_CSIT_DEFAULTS = {"tau_min": None, "n_eta": 4, "n_tau": 4, "rule": "trapezoid"}


def _csit_block(block) -> CsitParams | None:
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ValueError(f"csit must be an object, got {block!r}")
    unknown = set(block) - {"eta_half_width", "tau_max", *_CSIT_DEFAULTS}
    if unknown:
        raise ValueError(f"unknown csit fields {sorted(unknown)}")
    block = {**_CSIT_DEFAULTS, **block}
    return CsitParams(
        eta_half_width=_real(block, "eta_half_width"),
        tau_max=_real(block, "tau_max"),
        tau_min=_real(block, "tau_min", optional=True),
        n_eta=_count(block, "n_eta"),
        n_tau=_count(block, "n_tau"),
        rule=_choice(block, "rule", _RULES),
    )


def _resolve_advect(raw: dict) -> tuple[dict, tuple]:
    params = {
        "scheme": _get(raw, "scheme"),
        "c": _real(raw, "c"),
        "L": _real(raw, "L"),
        "x_s": _real(raw, "x_s"),
        "f0": _real(raw, "f0"),
        "n_x": _count(raw, "n_x"),
        "cfl": _real(raw, "cfl"),
        "n_t": _count(raw, "n_t"),
        "csit": None,
        "source_kind": _get(raw, "source_kind"),
        "t_delay": _real(raw, "t_delay", optional=True),
        "window": _reals(raw, "window"),
        "snapshots": _reals(raw, "snapshots"),
    }
    if params["window"] is not None and len(params["window"]) != 2:
        raise ValueError("window needs exactly two numbers")
    cfg = AdvectionConfig(
        **{key: params[key] for key in ("c", "L", "x_s", "f0", "n_x", "cfl", "n_t", "scheme")},
        csit=_csit_block(_get(raw, "csit")),
    )
    if cfg.csit is not None:
        params["csit"] = dict(vars(cfg.csit))
    if cfg.scheme == "csit":
        _check_extents(cfg.csit.eta_half_width, cfg.csit.tau_max, wavenumbers(cfg.grid))
    src = SourceTimeFunction(kind=params["source_kind"], f0=cfg.f0, t_delay=params["t_delay"])
    params["t_delay"] = src.t_delay
    if params["snapshots"] is None:
        duration = cfg.n_t * cfg.dt
        params["snapshots"] = [0.0, 0.5 * duration, duration]
    _snapshot_steps(cfg, params["snapshots"])
    return params, (cfg, src)


def _run_advect(params: dict, loaded: tuple, out_dir: Path) -> tuple[list, int]:
    cfg, src = loaded
    snapshots = run_advection(cfg, src, params["snapshots"])
    outputs = []
    for index, snap in enumerate(snapshots):
        name = f"snapshot_{index:03d}.csv"
        write_table_csv(
            out_dir / name, ["x", "u"], [snap.u.grid.nodes, snap.u.values]
        )
        outputs.append(name)

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
                "parasitic_energy": parasitic_energy(snap, tuple(window)),
            }
            for snap in snapshots
        ],
    }
    atomic_write_text(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    outputs.append("summary.json")
    return outputs, EXIT_OK


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None


def _advect_raw(args: dict) -> dict:
    """The advect flags as raw parameters, with the --config overrides merged in."""
    overrides = {}
    if args["config"] is not None:
        path = Path(args["config"])
        try:
            overrides = json.loads(path.read_text())
        except OSError as exc:
            raise CsvFormatError(path, f"cannot read config ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise CsvFormatError(path, f"invalid JSON ({exc})") from exc
        if not isinstance(overrides, dict):
            raise CsvFormatError(path, "config must be a JSON object")
    source = overrides.pop("source", {})
    if not isinstance(source, dict):
        raise ValueError(f"source must be an object, got {source!r}")
    unknown = set(overrides) - set(_ADVECT_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    unknown = set(source) - {"kind", "t_delay"}
    if unknown:
        raise ValueError(f"unknown source fields {sorted(unknown)}")
    return {
        "scheme": args["scheme"],
        **_ADVECT_DEFAULTS,
        **overrides,
        "source_kind": source.get("kind", "gaussian_derivative"),
        "t_delay": source.get("t_delay"),
        **{key: None if args[key] is None else _parse_floats(args[key], f"--{key}")
           for key in ("window", "snapshots")},
    }


# --- ifreq -----------------------------------------------------------------


def _resolve_ifreq(raw: dict) -> tuple[dict, tuple]:
    params = {
        "demo": _choice(raw, "demo", (None, "chirp")),
        "input": _path(raw, "input", optional=True),
        "f0": None,
        "rate": None,
        "n": None,
    }
    if (params["demo"] is None) == (params["input"] is None):
        raise ValueError("provide exactly one of an input CSV or --demo")
    # manifests written before the estimator had a single form name it
    if raw.get("variant", "spectral_shift") != "spectral_shift":
        raise ValueError(f"variant {raw['variant']!r} is not supported (only 'spectral_shift')")
    if params["demo"] == "chirp":
        params.update(f0=_real(raw, "f0"), rate=_real(raw, "rate"), n=_count(raw, "n"))
        grid = UniformGrid(0.0, 1.0, params["n"])
        s = chirp(params["f0"], params["rate"], grid)
        truth = params["f0"] + params["rate"] * grid.nodes
    else:
        s, truth = _load_series(params["input"]), None
    trace = analytic_signal(s)
    params.update(_rectangle(raw, s.grid.dx))
    params["eps"] = _or(params["eps"], 1e-2 * params["Z"])
    damping = _real(raw, "damping", optional=True)
    if damping is None:
        amplitude = np.max(np.abs(trace.amplitude))
        damping = 1e-3 * amplitude if amplitude > 0.0 else 1e-3
    params.update(
        backend=_choice(raw, "backend", _BACKENDS),
        damping=damping,
        trim=_real(raw, "trim"),
        out=_out_name(raw),
    )
    p = _csit_params(params)
    _check_extents(p.eta_half_width, p.tau_max, wavenumbers(s.grid))
    _check_damping(params["damping"])
    keep = edge_mask(s.grid.n, params["trim"])
    if not keep.any():
        raise ValueError(f"trim {params['trim']:g} leaves none of the {s.grid.n} samples")
    return params, (trace, truth, p, keep)


def _run_ifreq(params: dict, loaded: tuple, out_dir: Path) -> tuple[list, int]:
    trace, truth, p, keep = loaded
    s = trace.x
    classical = if_classical(trace, backend=params["backend"])
    damped = if_damped(trace, params["damping"], backend=params["backend"])
    csit_est = if_csit(trace, p)

    header = [
        "t",
        "value",
        "if_classical",
        "if_damped",
        "if_csit",
        "valid_classical",
        "valid_damped",
        "valid_csit",
    ]
    columns = [
        s.grid.nodes[keep],
        s.values[keep],
        classical.frequency[keep],
        damped.frequency[keep],
        csit_est.frequency[keep],
        classical.valid[keep],
        damped.valid[keep],
        csit_est.valid[keep],
    ]
    if truth is not None:
        header.append("truth")
        columns.append(truth[keep])
    write_table_csv(out_dir / params["out"], header, columns)
    return [params["out"]], EXIT_OK


# --- symbol ----------------------------------------------------------------


def _resolve_symbol(raw: dict) -> tuple[dict, tuple]:
    dx = _real(raw, "dx")
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    params = {
        "kmax": _or(_real(raw, "kmax", optional=True), np.pi / dx),
        "samples": _count(raw, "samples"),
        "H": _or(_real(raw, "H", optional=True), 0.1 * dx),
        "Z": _or(_real(raw, "Z", optional=True), 5e-4 * dx),
        "dx": dx,
        "c": _real(raw, "c"),
        "out": _out_name(raw),
    }
    if params["samples"] < 2:
        raise ValueError("samples must be at least 2")
    if not 0.0 < params["kmax"] < np.inf:
        raise ValueError("kmax must be positive and finite")
    _keyed(_check_extents, params["H"], params["Z"], params["kmax"])
    return params, ()


def _run_symbol(params: dict, loaded: tuple, out_dir: Path) -> tuple[list, int]:
    k = np.linspace(0.0, params["kmax"], params["samples"])
    sigma = csit_symbol(k, params["H"], params["Z"])
    single = csit_symbol(k, 0.0, params["Z"])
    omega_fd = dispersion_fd(k, params["c"], params["dx"])
    write_table_csv(
        out_dir / params["out"],
        ["k", "abs_sigma_csit", "abs_sigma_single", "abs_ik", "omega_fd"],
        [k, np.abs(sigma), np.abs(single), np.abs(k), omega_fd],
    )
    return [params["out"]], EXIT_OK


# --- table1 ----------------------------------------------------------------


def _resolve_table1(raw: dict) -> tuple[dict, tuple]:
    return {"out": _out_name(raw)}, ()


def _run_table1(params: dict, loaded: tuple, out_dir: Path) -> tuple[list, int]:
    report = table1_verify()
    write_table_csv(
        out_dir / params["out"],
        ["name", "reference", "max_deviation", "tolerance", "passed"],
        [
            np.array([row.name for row in report.rows], dtype=object),
            np.array([row.reference for row in report.rows], dtype=object),
            np.array([row.max_deviation for row in report.rows]),
            np.array([row.tolerance for row in report.rows]),
            np.array([row.passed for row in report.rows]),
        ],
    )
    return [params["out"]], EXIT_OK if report.passed else EXIT_FAIL


# --- execution and replay --------------------------------------------------

_COMMANDS = {
    "transform": (_resolve_transform, _run_transform),
    "derive": (_resolve_derive, _run_derive),
    "advect": (_resolve_advect, _run_advect),
    "ifreq": (_resolve_ifreq, _run_ifreq),
    "symbol": (_resolve_symbol, _run_symbol),
    "table1": (_resolve_table1, _run_table1),
}


def _execute(subcommand: str, raw: dict, out_dir: Path, manifest_path=None) -> int:
    """Resolve ``raw``; only then create ``out_dir``, run, and write the manifest.

    For a replay (``manifest_path`` given), parameters the resolver
    rejects are malformed input of that manifest.
    """
    started = time.perf_counter()
    resolve, run = _COMMANDS[subcommand]
    try:
        params, loaded = resolve(raw)
    except ValueError as exc:
        if manifest_path is None:
            raise
        raise CsvFormatError(manifest_path, f"bad parameters: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, code = run(params, loaded, out_dir)
    manifest = RunManifest(
        subcommand=subcommand,
        parameters=params,
        inputs=[params["input"]] if params.get("input") else [],
        outputs=outputs,
        version=_VERSION,
    )
    name = "manifest.json" if subcommand == "advect" else params["out"] + ".manifest.json"
    manifest.finalize(time.perf_counter() - started).write(out_dir / name)
    return code


def _replay(path: str, out_dir: Path) -> int:
    manifest = RunManifest.read(path)
    if not (isinstance(manifest.subcommand, str) and manifest.subcommand in _COMMANDS):
        raise CsvFormatError(path, f"unknown subcommand {manifest.subcommand!r}")
    if not isinstance(manifest.parameters, dict):
        raise CsvFormatError(path, "manifest parameters must be a JSON object")
    return _execute(manifest.subcommand, manifest.parameters, out_dir, path)


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``csit: error:`` line instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _add_rectangle_flags(sub, nodes=4, eps_default="Z / max(n_tau, 2)", required=False):
    extent = "" if required else " (default: one sample spacing)"
    sub.add_argument("--H", type=float, required=required,
                     help="real averaging half-width" + extent)
    sub.add_argument("--Z", type=float, required=required,
                     help="imaginary extent" + extent)
    sub.add_argument("--eps", type=float, default=None,
                     help=f"lower tau cutoff (default: {eps_default})")
    sub.add_argument("--n-eta", type=int, default=nodes, help="eta node count")
    sub.add_argument("--n-tau", type=int, default=nodes, help="tau node count")
    sub.add_argument("--rule", choices=_RULES, default="trapezoid", help="tau weight rule")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="csit",
        description="Complex-step integral transform tools",
    )
    parser.add_argument("--version", action="version", version=f"csit {_VERSION}")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    transform = commands.add_parser(
        "transform", help="apply the transform to a sampled series"
    )
    transform.add_argument("input", help="two-column (x, value) CSV")
    transform.add_argument("--mode", choices=_MODES, default="quadrature",
                           help="numerical quadrature or exact spectral symbol")
    transform.add_argument("--out", default="csit_transform.csv")
    _add_rectangle_flags(transform, nodes=32, required=True)

    derive = commands.add_parser(
        "derive", help="compare derivative operators on a series"
    )
    derive.add_argument("input", nargs="?", default=None,
                        help="two-column (t, value) CSV")
    derive.add_argument("--demo", choices=["logistic"], default=None,
                        help="built-in steep-transition experiment")
    derive.add_argument("--n", type=int, default=500, help="demo sample count")
    derive.add_argument("--k", type=float, default=100.0, help="demo steepness")
    derive.add_argument("--t0", type=float, default=0.5, help="demo midpoint")
    derive.add_argument("--out", default="csit_derive.csv")
    _add_rectangle_flags(derive)

    advect = commands.add_parser(
        "advect", help="run the forced advection experiment"
    )
    advect.add_argument("--scheme", choices=_SCHEMES, default="csit")
    advect.add_argument("--config", default=None,
                        help="JSON overrides for the reference configuration")
    advect.add_argument("--snapshots", default=None,
                        help="comma-separated output times (default: 0, T/2, T)")
    advect.add_argument("--window", default=None,
                        help="pulse window lo,hi for the parasitic-energy summary "
                             "(default: final centroid +- 4 wavelengths)")
    advect.add_argument("--out-dir", default="csit_advect")

    ifreq = commands.add_parser(
        "ifreq", help="instantaneous-frequency estimates for a trace"
    )
    ifreq.add_argument("input", nargs="?", default=None,
                       help="two-column (t, value) CSV")
    ifreq.add_argument("--demo", choices=["chirp"], default=None,
                       help="built-in linear chirp")
    ifreq.add_argument("--f0", type=float, default=20.0, help="demo start frequency")
    ifreq.add_argument("--rate", type=float, default=20.0, help="demo sweep rate")
    ifreq.add_argument("--n", type=int, default=2500, help="demo sample count")
    ifreq.add_argument("--out", default="csit_ifreq.csv")
    _add_rectangle_flags(ifreq, eps_default="1e-2 * Z")
    ifreq.add_argument("--backend", choices=_BACKENDS, default="pseudospectral",
                       help="time-derivative scheme for the classical ratio")
    ifreq.add_argument("--damping", type=float, default=None,
                       help="damping for the damped ratio "
                            "(default: 1e-3 of the peak amplitude)")
    ifreq.add_argument("--trim", type=float, default=0.05,
                       help="fraction of samples dropped per edge")

    symbol = commands.add_parser(
        "symbol", help="tabulate the operator symbol and dispersion curves"
    )
    symbol.add_argument("--kmax", type=float, default=None,
                        help="largest wavenumber (default: pi/dx)")
    symbol.add_argument("--samples", type=int, default=200)
    symbol.add_argument("--H", type=float, default=None,
                        help="real half-width (default: 0.1 dx)")
    symbol.add_argument("--Z", type=float, default=None,
                        help="imaginary extent (default: 5e-4 dx)")
    symbol.add_argument("--dx", type=float, default=1.0, help="grid spacing")
    symbol.add_argument("--c", type=float, default=1.0, help="advection speed")
    symbol.add_argument("--out", default="csit_symbol.csv")

    table1 = commands.add_parser(
        "table1", help="closed-form verification table for the transform"
    )
    table1.add_argument("--out", default="csit_table1.csv")

    replay = commands.add_parser(
        "replay", help="re-run a subcommand from its manifest"
    )
    replay.add_argument("manifest", help="manifest JSON written by a previous run")
    replay.add_argument("--out-dir", required=True,
                        help="directory for the re-created outputs")

    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        subcommand = args.pop("subcommand")
        if subcommand == "replay":
            return _replay(args["manifest"], Path(args["out_dir"]))
        if subcommand == "advect":
            return _execute("advect", _advect_raw(args), Path(args["out_dir"]))
        out = Path(args["out"])
        return _execute(subcommand, dict(args, out=out.name), out.parent)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except CsvFormatError as exc:
        print(f"csit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"csit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"csit: error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        print(f"csit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
