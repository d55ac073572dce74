"""Command-line front end for the transform and its two applications.

Subcommands map one-to-one onto the library: ``transform`` and
``symbol`` expose the operator itself, ``derive`` compares derivative
routes, ``advect`` runs the forced advection experiment, ``ifreq``
estimates instantaneous frequency, ``table1`` runs the closed-form
verification table, and ``replay`` re-executes any of them from a saved
manifest.

Every run writes its outputs plus a JSON manifest carrying the fully
resolved parameters; reduction order is fixed in all code paths, so
re-running a manifest reproduces output CSVs byte for byte.

Exit codes: 0 success (for ``table1``: all rows passed, otherwise 1),
2 usage or parameter error, 3 unreadable or malformed input data,
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
    AdvectionConfig,
    DivergenceError,
    SourceTimeFunction,
    parasitic_energy,
    pulse_centroid,
    pulse_speed,
    run_advection,
)
from .grid import Series, UniformGrid
from .instfreq import (
    IfParams,
    analytic_signal,
    chirp,
    edge_mask,
    if_classical,
    if_csit,
    if_damped,
)
from .io import CsvFormatError, RunManifest, atomic_write_text, read_series_csv, write_table_csv
from .operators import (
    CsitParams,
    csit_quadrature,
    csit_spectral,
    csit_symbol,
    fd_centered,
    pseudospectral_derivative,
    table1_verify,
)
from .advection import dispersion_fd

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

_VERSION = "0.1.0"


def _load_series(path) -> Series:
    t, v = read_series_csv(path)
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    return Series(UniformGrid(x0=float(t[0]), length=n * dt, n=n), v)


def _quadrature_params(params: dict) -> CsitParams:
    return CsitParams(
        eta_half_width=params["H"],
        tau_max=params["Z"],
        tau_min=params["eps"],
        n_eta=params["n_eta"],
        n_tau=params["n_tau"],
        rule=params["rule"],
    )


def _manifest(subcommand: str, params: dict, inputs, outputs, started: float) -> RunManifest:
    manifest = RunManifest(
        subcommand=subcommand,
        parameters=params,
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
        version=_VERSION,
    )
    return manifest.finalize(time.perf_counter() - started)


# --- transform -------------------------------------------------------------


def run_transform(params: dict, out_dir: Path) -> tuple[RunManifest, int]:
    started = time.perf_counter()
    s = _load_series(params["input"])
    if params["mode"] == "quadrature":
        out = csit_quadrature(s, _quadrature_params(params))
    else:
        out = csit_spectral(s, params["H"], params["Z"])
    out_csv = out_dir / params["out"]
    write_table_csv(
        out_csv,
        ["x", "input", "csit_output"],
        [s.grid.nodes, s.values, out.values],
    )
    manifest = _manifest(
        "transform", params, [params["input"]], [params["out"]], started
    )
    manifest.write(out_dir / (params["out"] + ".manifest.json"))
    return manifest, EXIT_OK


def _cmd_transform(args) -> int:
    out = Path(args.out)
    eps = args.eps
    params = {
        "input": str(Path(args.input).resolve()),
        "mode": args.mode,
        "H": args.H,
        "Z": args.Z,
        "eps": eps,
        "n_eta": args.n_eta,
        "n_tau": args.n_tau,
        "rule": args.rule,
        "out": out.name,
    }
    # validate eagerly so bad parameters exit as usage errors
    if params["mode"] == "quadrature":
        resolved = _quadrature_params(params)
        params["eps"] = resolved.tau_min
    out_dir = out.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_transform(params, out_dir)[1]


# --- derive ----------------------------------------------------------------

# nodes blanked per edge in the relative-error columns; periodic averaging
# is asymmetric there and the comparison would be dominated by it
_DERIVE_EDGE = 5


def run_derive(params: dict, out_dir: Path) -> tuple[RunManifest, int]:
    started = time.perf_counter()
    if params["demo"] == "logistic":
        grid = UniformGrid(0.0, 1.0, params["n"])
        t = grid.nodes
        steep, midpoint = params["k"], params["t0"]
        f = 1.0 / (1.0 + np.exp(-steep * (t - midpoint)))
        analytic = steep * f * (1.0 - f)
        s = Series(grid, f)
        inputs = []
    else:
        s = _load_series(params["input"])
        analytic = None
        inputs = [params["input"]]

    fd = fd_centered(s).values
    ps = pseudospectral_derivative(s).values
    cs = csit_quadrature(s, _quadrature_params(params)).values

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
    out_csv = out_dir / params["out"]
    write_table_csv(out_csv, header, columns)
    manifest = _manifest("derive", params, inputs, [params["out"]], started)
    manifest.write(out_dir / (params["out"] + ".manifest.json"))
    return manifest, EXIT_OK


def _cmd_derive(args) -> int:
    if (args.demo is None) == (args.input is None):
        raise ValueError("provide exactly one of an input CSV or --demo")
    out = Path(args.out)
    if args.demo == "logistic":
        dt = 1.0 / args.n
    else:
        s = _load_series(args.input)
        dt = s.grid.dx
    H = args.H if args.H is not None else dt
    Z = args.Z if args.Z is not None else dt
    demo = args.demo == "logistic"
    params = {
        "demo": args.demo,
        "input": None if args.input is None else str(Path(args.input).resolve()),
        "n": args.n if demo else None,
        "k": args.k if demo else None,
        "t0": args.t0 if demo else None,
        "H": H,
        "Z": Z,
        "eps": args.eps,
        "n_eta": args.n_eta,
        "n_tau": args.n_tau,
        "rule": args.rule,
        "out": out.name,
    }
    params["eps"] = _quadrature_params(params).tau_min
    out.parent.mkdir(parents=True, exist_ok=True)
    return run_derive(params, out.parent)[1]


# --- advect ----------------------------------------------------------------


class _ZeroSource:
    """Source that never injects; used for the zero-source trivial run."""

    def __call__(self, t) -> float:
        return 0.0


def _advect_config(params: dict) -> tuple[AdvectionConfig, object]:
    csit_params = None
    if params.get("csit") is not None:
        c = params["csit"]
        csit_params = CsitParams(
            eta_half_width=c["eta_half_width"],
            tau_max=c["tau_max"],
            tau_min=c.get("tau_min"),
            n_eta=c.get("n_eta", 4),
            n_tau=c.get("n_tau", 4),
            rule=c.get("rule", "trapezoid"),
        )
    cfg = AdvectionConfig(
        c=params["c"],
        L=params["L"],
        x_s=params["x_s"],
        f0=params["f0"],
        n_x=params["n_x"],
        cfl=params["cfl"],
        n_t=params["n_t"],
        scheme=params["scheme"],
        csit=csit_params,
    )
    kind = params["source_kind"]
    if kind == "none":
        src = _ZeroSource()
    else:
        src = SourceTimeFunction(
            kind=kind, f0=params["f0"], t_delay=params["t_delay"]
        )
    return cfg, src


def run_advect(params: dict, out_dir: Path) -> tuple[RunManifest, int]:
    started = time.perf_counter()
    cfg, src = _advect_config(params)
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
        window = [center - half, center + half]
    else:
        window = [float(w) for w in params["window"]]
    params = dict(params, window=window)

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
    manifest = _manifest("advect", params, [], outputs, started)
    manifest.write(out_dir / "manifest.json")
    return manifest, EXIT_OK


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None


def _cmd_advect(args) -> int:
    overrides = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            overrides = json.loads(path.read_text())
        except OSError as exc:
            raise CsvFormatError(path, f"cannot read config ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise CsvFormatError(path, f"invalid JSON ({exc})") from exc
        if not isinstance(overrides, dict):
            raise CsvFormatError(path, "config must be a JSON object")
    source = overrides.pop("source", {})
    known = {"c", "L", "x_s", "f0", "n_x", "cfl", "n_t", "csit"}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    unknown = set(source) - {"kind", "t_delay"}
    if unknown:
        raise ValueError(f"unknown source fields {sorted(unknown)}")
    params = {
        "scheme": args.scheme,
        "c": float(overrides.get("c", 900.0)),
        "L": float(overrides.get("L", 10000.0)),
        "x_s": float(overrides.get("x_s", 5000.0)),
        "f0": float(overrides.get("f0", 1.0)),
        "n_x": int(overrides.get("n_x", 500)),
        "cfl": float(overrides.get("cfl", 0.25)),
        "n_t": int(overrides.get("n_t", 600)),
        "csit": overrides.get("csit"),
        "source_kind": source.get("kind", "gaussian_derivative"),
        "t_delay": source.get("t_delay"),
        "window": None if args.window is None else _parse_floats(args.window, "--window"),
    }
    if params["window"] is not None and len(params["window"]) != 2:
        raise ValueError("--window needs exactly two numbers")
    cfg, src = _advect_config(params)  # validate before touching the disk
    if params["source_kind"] != "none":
        params["t_delay"] = src.t_delay
    if params["csit"] is None and cfg.scheme == "csit":
        params["csit"] = {
            "eta_half_width": cfg.csit.eta_half_width,
            "tau_max": cfg.csit.tau_max,
            "tau_min": cfg.csit.tau_min,
            "n_eta": cfg.csit.n_eta,
            "n_tau": cfg.csit.n_tau,
            "rule": cfg.csit.rule,
        }
    duration = cfg.n_t * cfg.dt
    if args.snapshots is None:
        params["snapshots"] = [0.0, 0.5 * duration, duration]
    else:
        params["snapshots"] = _parse_floats(args.snapshots, "--snapshots")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_advect(params, out_dir)[1]


# --- ifreq -----------------------------------------------------------------


def run_ifreq(params: dict, out_dir: Path) -> tuple[RunManifest, int]:
    started = time.perf_counter()
    if params["demo"] == "chirp":
        grid = UniformGrid(0.0, 1.0, params["n"])
        s = chirp(params["f0"], params["rate"], grid)
        truth = params["f0"] + params["rate"] * grid.nodes
        inputs = []
    else:
        s = _load_series(params["input"])
        truth = None
        inputs = [params["input"]]

    trace = analytic_signal(s)
    p = IfParams(
        eta_half_width=params["H"],
        tau_max=params["Z"],
        tau_min=params["eps"],
        n_eta=params["n_eta"],
        n_tau=params["n_tau"],
        rule=params["rule"],
        variant=params["variant"],
    )
    classical = if_classical(trace, backend=params["backend"])
    damped = if_damped(trace, params["damping"], backend=params["backend"])
    csit_est = if_csit(trace, p)

    keep = edge_mask(s.grid.n, params["trim"])
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
    out_csv = out_dir / params["out"]
    write_table_csv(out_csv, header, columns)
    manifest = _manifest("ifreq", params, inputs, [params["out"]], started)
    manifest.write(out_dir / (params["out"] + ".manifest.json"))
    return manifest, EXIT_OK


def _cmd_ifreq(args) -> int:
    if (args.demo is None) == (args.input is None):
        raise ValueError("provide exactly one of an input CSV or --demo")
    out = Path(args.out)
    if args.demo == "chirp":
        grid = UniformGrid(0.0, 1.0, args.n)
        s = chirp(args.f0, args.rate, grid)
    else:
        s = _load_series(args.input)
    dt = s.grid.dx
    H = args.H if args.H is not None else dt
    Z = args.Z if args.Z is not None else dt
    eps = args.eps if args.eps is not None else 1e-2 * Z
    if args.damping is not None:
        damping = args.damping
    else:
        amplitude = np.max(np.abs(analytic_signal(s).amplitude))
        damping = 1e-3 * amplitude if amplitude > 0.0 else 1e-3
    demo = args.demo == "chirp"
    params = {
        "demo": args.demo,
        "input": None if args.input is None else str(Path(args.input).resolve()),
        "f0": args.f0 if demo else None,
        "rate": args.rate if demo else None,
        "n": args.n if demo else None,
        "H": H,
        "Z": Z,
        "eps": eps,
        "n_eta": args.n_eta,
        "n_tau": args.n_tau,
        "rule": args.rule,
        "variant": args.variant,
        "backend": args.backend,
        "damping": damping,
        "trim": args.trim,
        "out": out.name,
    }
    IfParams(
        eta_half_width=H, tau_max=Z, tau_min=eps, n_eta=args.n_eta,
        n_tau=args.n_tau, rule=args.rule, variant=args.variant,
    )
    edge_mask(s.grid.n, args.trim)
    out.parent.mkdir(parents=True, exist_ok=True)
    return run_ifreq(params, out.parent)[1]


# --- symbol ----------------------------------------------------------------


def run_symbol(params: dict, out_dir: Path) -> tuple[RunManifest, int]:
    started = time.perf_counter()
    k = np.linspace(0.0, params["kmax"], params["samples"])
    sigma = csit_symbol(k, params["H"], params["Z"])
    single = csit_symbol(k, 0.0, params["Z"])
    omega_fd = dispersion_fd(k, params["c"], params["dx"])
    out_csv = out_dir / params["out"]
    write_table_csv(
        out_csv,
        ["k", "abs_sigma_csit", "abs_sigma_single", "abs_ik", "omega_fd"],
        [k, np.abs(sigma), np.abs(single), np.abs(k), omega_fd],
    )
    manifest = _manifest("symbol", params, [], [params["out"]], started)
    manifest.write(out_dir / (params["out"] + ".manifest.json"))
    return manifest, EXIT_OK


def _cmd_symbol(args) -> int:
    if args.dx <= 0.0:
        raise ValueError("--dx must be positive")
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    H = args.H if args.H is not None else 0.1 * args.dx
    Z = args.Z if args.Z is not None else 5e-4 * args.dx
    kmax = args.kmax if args.kmax is not None else np.pi / args.dx
    if kmax <= 0.0:
        raise ValueError("--kmax must be positive")
    out = Path(args.out)
    params = {
        "kmax": kmax,
        "samples": args.samples,
        "H": H,
        "Z": Z,
        "dx": args.dx,
        "c": args.c,
        "out": out.name,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    return run_symbol(params, out.parent)[1]


# --- table1 ----------------------------------------------------------------


def run_table1(params: dict, out_dir: Path) -> tuple[RunManifest, int]:
    started = time.perf_counter()
    report = table1_verify()
    out_csv = out_dir / params["out"]
    write_table_csv(
        out_csv,
        ["name", "reference", "max_deviation", "tolerance", "passed"],
        [
            np.array([row.name for row in report.rows], dtype=object),
            np.array([row.reference for row in report.rows], dtype=object),
            np.array([row.max_deviation for row in report.rows]),
            np.array([row.tolerance for row in report.rows]),
            np.array([row.passed for row in report.rows]),
        ],
    )
    manifest = _manifest("table1", params, [], [params["out"]], started)
    manifest.write(out_dir / (params["out"] + ".manifest.json"))
    return manifest, EXIT_OK if report.passed else EXIT_FAIL


def _cmd_table1(args) -> int:
    out = Path(args.out)
    params = {"out": out.name}
    out.parent.mkdir(parents=True, exist_ok=True)
    return run_table1(params, out.parent)[1]


# --- replay ----------------------------------------------------------------

_RUNNERS = {
    "transform": run_transform,
    "derive": run_derive,
    "advect": run_advect,
    "ifreq": run_ifreq,
    "symbol": run_symbol,
    "table1": run_table1,
}


def _cmd_replay(args) -> int:
    manifest = RunManifest.read(args.manifest)
    runner = _RUNNERS.get(manifest.subcommand)
    if runner is None:
        raise CsvFormatError(
            args.manifest, f"unknown subcommand {manifest.subcommand!r}"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return runner(manifest.parameters, out_dir)[1]
    except KeyError as exc:
        raise CsvFormatError(
            args.manifest, f"manifest parameters lack {exc.args[0]!r}"
        ) from None


# --- parser ----------------------------------------------------------------


def _add_quadrature_flags(sub, h_default=None, z_default=None, nodes=4):
    sub.add_argument("--H", type=float, default=h_default,
                     help="real averaging half-width (default: one sample spacing)")
    sub.add_argument("--Z", type=float, default=z_default,
                     help="imaginary extent (default: one sample spacing)")
    sub.add_argument("--eps", type=float, default=None,
                     help="lower tau cutoff (default: Z divided by the tau node count, at least 2)")
    sub.add_argument("--n-eta", type=int, default=nodes, help="eta node count")
    sub.add_argument("--n-tau", type=int, default=nodes, help="tau node count")
    sub.add_argument("--rule", choices=["trapezoid", "midpoint"],
                     default="trapezoid", help="tau weight rule")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csit",
        description="Complex-step integral transform tools",
    )
    parser.add_argument("--version", action="version", version=f"csit {_VERSION}")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    transform = commands.add_parser(
        "transform", help="apply the transform to a sampled series"
    )
    transform.add_argument("input", help="two-column (x, value) CSV")
    transform.add_argument("--mode", choices=["quadrature", "symbol"],
                           default="quadrature",
                           help="numerical quadrature or exact spectral symbol")
    transform.add_argument("--out", default="csit_transform.csv")
    transform.add_argument("--H", type=float, required=True,
                           help="real averaging half-width")
    transform.add_argument("--Z", type=float, required=True,
                           help="imaginary extent")
    transform.add_argument("--eps", type=float, default=None,
                           help="lower tau cutoff (default: Z / n_tau)")
    transform.add_argument("--n-eta", type=int, default=32)
    transform.add_argument("--n-tau", type=int, default=32)
    transform.add_argument("--rule", choices=["trapezoid", "midpoint"],
                           default="trapezoid")
    transform.set_defaults(func=_cmd_transform)

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
    _add_quadrature_flags(derive)
    derive.set_defaults(func=_cmd_derive)

    advect = commands.add_parser(
        "advect", help="run the forced advection experiment"
    )
    advect.add_argument("--scheme", choices=["fd", "pseudospectral", "csit"],
                        default="csit")
    advect.add_argument("--config", default=None,
                        help="JSON overrides for the reference configuration")
    advect.add_argument("--snapshots", default=None,
                        help="comma-separated output times (default: 0, T/2, T)")
    advect.add_argument("--window", default=None,
                        help="pulse window lo,hi for the parasitic-energy summary "
                             "(default: final centroid +- 4 wavelengths)")
    advect.add_argument("--out-dir", default="csit_advect")
    advect.set_defaults(func=_cmd_advect)

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
    _add_quadrature_flags(ifreq)
    ifreq.add_argument("--variant",
                       choices=["spectral_shift", "pointwise_additive"],
                       default="spectral_shift")
    ifreq.add_argument("--backend", choices=["pseudospectral", "fd"],
                       default="pseudospectral",
                       help="time-derivative scheme for the classical ratio")
    ifreq.add_argument("--damping", type=float, default=None,
                       help="damping for the damped ratio "
                            "(default: 1e-3 of the peak amplitude)")
    ifreq.add_argument("--trim", type=float, default=0.05,
                       help="fraction of samples dropped per edge")
    ifreq.set_defaults(func=_cmd_ifreq)

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
    symbol.set_defaults(func=_cmd_symbol)

    table1 = commands.add_parser(
        "table1", help="closed-form verification table for the transform"
    )
    table1.add_argument("--out", default="csit_table1.csv")
    table1.set_defaults(func=_cmd_table1)

    replay = commands.add_parser(
        "replay", help="re-run a subcommand from its manifest"
    )
    replay.add_argument("manifest", help="manifest JSON written by a previous run")
    replay.add_argument("--out-dir", required=True,
                        help="directory for the re-created outputs")
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
