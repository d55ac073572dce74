"""The three benchmark workloads: seeded inputs, timed operations, output checks.

A repetition is a list of :class:`Step`.  Only ``Step.run`` is timed (and
traced); inputs are built before it and outputs checked after it.  Each
check compares against references computed here from the generated
inputs with numpy and scipy alone, never with package code, except where
the property under test is a package output itself (the classical
estimator's flags, table1's exit code).

Every call into the package goes through ``csit.cli.main`` or the public
library API, looked up on the module at call time so that the tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

import csit.cli
import csit.grid
import csit.instfreq


class CheckFailed(Exception):
    """An operation's output disagreed with the benchmark's reference."""


@dataclass
class Step:
    op: str                              # metric stem: the timing is reported as <op>_s
    run: Callable[[], object]            # the timed call into the package
    check: Callable[[object], None]      # raises CheckFailed


@dataclass
class Context:
    root: Path        # checkout root (holds src/ and calibration/)
    rep_dir: Path     # fresh, empty directory for this repetition's outputs
    run_dir: Path     # per-process directory for inputs shared by repetitions
    seed: int
    smoke: bool


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _cli(argv: list[str]) -> Callable[[], int]:
    return lambda: csit.cli.main(argv)


def _exit_ok(rc) -> None:
    _require(rc == 0, f"exit code {rc}")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a package CSV; empty cells read as NaN."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(c) if c else math.nan for c in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def _column(header: list[str], data: np.ndarray, name: str) -> np.ndarray:
    _require(name in header, f"missing column {name!r}")
    return data[:, header.index(name)]


def _num(x: float) -> str:
    return repr(float(x))


# --- advect_ring ------------------------------------------------------------

ADVECT_SCHEMES = ("csit", "fd", "pseudospectral")
# reference configuration (csit.advection.reference_config), restated here so
# that the checks do not read it from the package
RING = {"c": 900.0, "L": 10000.0, "n_x": 500, "f0": 1.0, "cfl": 0.25, "n_t": 600}
# the two output times of the shipped calibration runs: 2.5 s and the final step
ADVECT_SNAPSHOTS = "2.5,3.3333333333333335"
CALIBRATION_RTOL = 1e-9  # max |u - u_cal| relative to max |u_cal|


def _ring_centroid(x: np.ndarray, u: np.ndarray) -> float:
    angle = 2.0 * np.pi * x / RING["L"]
    w = u * u
    mean = math.atan2(float(np.sum(w * np.sin(angle))), float(np.sum(w * np.cos(angle))))
    return (mean % (2.0 * np.pi)) * RING["L"] / (2.0 * np.pi)


def _advect_check(scheme: str, out: Path, calibrate: bool, root: Path):
    def check(rc):
        _exit_ok(rc)
        snaps = []
        for index in range(2):
            header, data = read_csv(out / f"snapshot_{index:03d}.csv")
            x, u = _column(header, data, "x"), _column(header, data, "u")
            _require(len(u) == RING["n_x"], f"{scheme}: {len(u)} nodes")
            _require(np.all(np.isfinite(u)), f"{scheme}: non-finite snapshot {index}")
            snaps.append((x, u))
            if calibrate:
                _, cal = read_csv(root / "calibration" / f"advect_{scheme}" / f"snapshot_{index:03d}.csv")
                scale = float(np.max(np.abs(cal[:, 1])))
                dev = float(np.max(np.abs(u - cal[:, 1])))
                _require(np.array_equal(x, cal[:, 0]), f"{scheme}: grid differs from calibration")
                _require(dev <= CALIBRATION_RTOL * scale,
                         f"{scheme}: snapshot {index} off calibration by {dev / scale:.2e}")
        if scheme != "csit":
            return
        # acceptance 06c: energy outside final centroid +- 4 wavelengths < 0.05 of inside
        x, u = snaps[-1]
        center = _ring_centroid(x, u)
        half = 4.0 * RING["c"] / RING["f0"]
        L = RING["L"]
        inside = np.abs((x - center + 0.5 * L) % L - 0.5 * L) <= half
        e_in, e_out = float(np.sum(u[inside] ** 2)), float(np.sum(u[~inside] ** 2))
        _require(e_in > 0.0 and e_out / e_in < 0.05, f"csit parasitic energy {e_out}/{e_in}")
        # acceptance 06d: centroid speed within 2% of c
        dt = RING["cfl"] * (L / RING["n_x"]) / RING["c"]
        steps = [round(float(t) / dt) for t in ADVECT_SNAPSHOTS.split(",")]
        c0, c1 = (_ring_centroid(*s) for s in snaps)
        travel = (c1 - c0 + 0.5 * L) % L - 0.5 * L
        speed = travel / ((steps[1] - steps[0]) * dt)
        _require(abs(speed - RING["c"]) < 0.02 * RING["c"], f"csit pulse speed {speed:.2f}")

    return check


def advect_ring(ctx: Context, rng: np.random.Generator, index: int) -> list[Step]:
    """Repetition 0 is the calibration case (x_s = 5000 m, the default)."""
    calibrate = index == 0
    steps = []
    for scheme in ADVECT_SCHEMES:
        out = ctx.rep_dir / f"advect_{scheme}"
        argv = ["advect", "--scheme", scheme, "--snapshots", ADVECT_SNAPSHOTS, "--out-dir", str(out)]
        if not calibrate:
            config = ctx.rep_dir / f"advect_{scheme}.json"
            config.write_text(json.dumps({"x_s": float(rng.uniform(500.0, 9500.0))}))
            argv += ["--config", str(config)]
        steps.append(Step(f"advect_{scheme}", _cli(argv), _advect_check(scheme, out, calibrate, ctx.root)))
    return steps


# --- ifreq_chirp ------------------------------------------------------------

IFREQ_N = 2500
IFREQ_TRIM = 0.05  # the CLI's default --trim


def _ifreq_check(out: Path, f0: float, rate: float):
    def check(rc):
        _exit_ok(rc)
        header, data = read_csv(out)
        keep = IFREQ_N - 2 * math.ceil(IFREQ_TRIM * IFREQ_N)
        _require(data.shape == (keep, 9), f"ifreq output shape {data.shape}")
        truth = f0 + rate * _column(header, data, "t")
        # acceptance 08a: both estimators within 0.5 Hz on the interior 90%
        for name in ("if_classical", "if_csit"):
            err = float(np.max(np.abs(_column(header, data, name) - truth)))
            _require(err < 0.5, f"{name} off by {err:.3f} Hz")  # NaN fails too

    return check


def enveloped_chirp(n: int, f0: float, rate: float):
    """Analytic chirp under a periodic Hann envelope whose zero sits at t = 0.

    Built with numpy alone: the one-sided spectrum of the chirp without its
    DC and Nyquist bins (they hold only leakage, and the envelope's side
    lines would move them onto the negative branch), times the envelope.
    """
    t = np.arange(n) / n
    coeffs = np.fft.fft(np.cos(2.0 * np.pi * (f0 * t + 0.5 * rate * t * t)))
    coeffs[1 : n // 2] *= 2.0
    coeffs[n // 2 :] = 0.0
    coeffs[0] = 0.0
    product = (0.5 - 0.5 * np.cos(2.0 * np.pi * t)) * np.fft.ifft(coeffs)
    grid = csit.grid.UniformGrid(0.0, 1.0, n)
    return csit.instfreq.AnalyticTrace(
        csit.grid.Series(grid, product.real), csit.grid.Series(grid, product.imag)
    )


def _enveloped_check(trace, peak: float):
    def check(est):
        freq = np.asarray(est.frequency)
        _require(np.all(np.isfinite(freq)), "if_csit not finite on the enveloped chirp")
        worst = float(np.max(np.abs(freq)))
        # acceptance 08c
        _require(worst < 10.0 * peak, f"if_csit reaches {worst:.1f} Hz")
        classical = csit.instfreq.if_classical(trace)
        _require(not np.all(classical.valid), "classical ratio flagged no node")

    return check


def ifreq_chirp(ctx: Context, rng: np.random.Generator, index: int) -> list[Step]:
    """The sweep ends on a whole number of cycles (f0 + rate/2), as the CLI's
    default 20 Hz + 20 Hz/s does, so the periodic wrap has no jump whose
    ringing would reach the interior."""
    f0 = float(rng.uniform(15.0, 30.0))
    cycles = math.ceil(f0 + 5.0) + int(rng.integers(0, 10))
    rate = 2.0 * (cycles - f0)
    out = ctx.rep_dir / "ifreq.csv"
    argv = ["ifreq", "--demo", "chirp", "--n", str(IFREQ_N), "--f0", _num(f0),
            "--rate", _num(rate), "--out", str(out)]
    trace = enveloped_chirp(IFREQ_N, f0, rate)
    params = csit.instfreq.default_if_params(1.0 / IFREQ_N)
    return [
        Step("ifreq_chirp", _cli(argv), _ifreq_check(out, f0, rate)),
        Step("if_csit_enveloped", lambda: csit.instfreq.if_csit(trace, params),
             _enveloped_check(trace, f0 + rate)),
    ]


# --- operator_routes --------------------------------------------------------

TRANSFORM_ROWS = 65536
SMOKE_TRANSFORM_ROWS = 4096
TRANSFORM_RTOL = 1e-6
LOGISTIC_N = 500
LOGISTIC_EDGE = 5      # the CLI blanks this many nodes per edge
LOGISTIC_EXEMPT = 10   # acceptance 05 exempts the midpoint +- 10 nodes


def _modes(seed: int) -> np.ndarray:
    """Rows (k, a, phi) of the input sum a*sin(k x + phi), fixed per seed."""
    rng = np.random.default_rng([seed, 1 << 20])
    count = int(rng.integers(3, 6))
    k = rng.choice(np.arange(1, 65), size=count, replace=False).astype(np.float64)
    return np.column_stack([k, rng.uniform(0.2, 1.0, count), rng.uniform(0.0, 2.0 * np.pi, count)])


def _transform_input(ctx: Context) -> tuple[Path, np.ndarray, np.ndarray]:
    path = ctx.run_dir / "modes.csv"
    n = SMOKE_TRANSFORM_ROWS if ctx.smoke else TRANSFORM_ROWS
    x = np.arange(n) * (2.0 * np.pi / n)
    modes = _modes(ctx.seed)
    if not path.exists():
        f = sum(a * np.sin(k * x + phi) for k, a, phi in modes)
        path.write_text("x,value\n" + "".join(f"{float(u)!r},{float(v)!r}\n" for u, v in zip(x, f)))
    return path, x, modes


def _transform_check(out: Path, x: np.ndarray, modes: np.ndarray, H: float, Z: float):
    def check(rc):
        _exit_ok(rc)
        header, data = read_csv(out)
        _require(data.shape == (len(x), 3), f"transform output shape {data.shape}")
        # closed form: a*sin(kx+phi) -> a*(shi(kZ)/Z)*sinc(kH)*cos(kx+phi)
        ref = sum(
            a * (special.shichi(k * Z)[0] / Z) * (math.sin(k * H) / (k * H)) * np.cos(k * x + phi)
            for k, a, phi in modes
        )
        err = float(np.max(np.abs(_column(header, data, "csit_output") - ref)) / np.max(np.abs(ref)))
        _require(err < TRANSFORM_RTOL, f"transform off closed form by {err:.2e} relative")

    return check


def _derive_check(out: Path, steep: float):
    def check(rc):
        _exit_ok(rc)
        header, data = read_csv(out)
        t = np.arange(LOGISTIC_N) / LOGISTIC_N
        f = 1.0 / (1.0 + np.exp(-steep * (t - 0.5)))
        exact = steep * f * (1.0 - f)
        idx = np.arange(LOGISTIC_N)
        interior = (idx >= LOGISTIC_EDGE) & (idx < LOGISTIC_N - LOGISTIC_EDGE)
        interior &= np.abs(idx - LOGISTIC_N // 2) > LOGISTIC_EXEMPT
        scale = float(np.max(np.abs(exact)))
        err = {
            name: float(np.max(np.abs(_column(header, data, name)[interior] - exact[interior]))) / scale
            for name in ("csit", "pseudospectral")
        }
        # acceptance 05
        _require(err["csit"] < err["pseudospectral"], f"derive interior errors {err}")

    return check


def _table1_check(out: Path):
    def check(rc):
        _exit_ok(rc)
        lines = out.read_text().splitlines()
        column = lines[0].split(",").index("passed")
        passed = [line.split(",")[column] for line in lines[1:]]
        _require(passed == ["1"] * 5, f"table1 passed column {passed}")

    return check


def operator_routes(ctx: Context, rng: np.random.Generator, index: int) -> list[Step]:
    """Distinct H and Z per call, so no operator can be reused across calls."""
    path, x, modes = _transform_input(ctx)
    # extents scale with the full-size grid spacing also in smoke runs, where
    # wider ones would leave the 32-node eta rule above the 1e-6 tolerance
    dx = 2.0 * np.pi / TRANSFORM_ROWS
    steps = []
    for mode in ("quadrature", "symbol"):
        H, Z = (float(dx * np.exp(rng.uniform(np.log(0.5), np.log(2.0)))) for _ in range(2))
        out = ctx.rep_dir / f"transform_{mode}.csv"
        argv = ["transform", str(path), "--mode", mode, "--H", _num(H), "--Z", _num(Z), "--out", str(out)]
        steps.append(Step(f"transform_{mode}", _cli(argv), _transform_check(out, x, modes, H, Z)))
    steep = float(rng.uniform(60.0, 140.0))
    out = ctx.rep_dir / "derive.csv"
    argv = ["derive", "--demo", "logistic", "--n", str(LOGISTIC_N), "--k", _num(steep), "--out", str(out)]
    steps.append(Step("derive_logistic", _cli(argv), _derive_check(out, steep)))
    out = ctx.rep_dir / "table1.csv"
    steps.append(Step("table1", _cli(["table1", "--out", str(out)]), _table1_check(out)))
    return steps


WORKLOADS = {
    "advect_ring": advect_ring,
    "ifreq_chirp": ifreq_chirp,
    "operator_routes": operator_routes,
}
