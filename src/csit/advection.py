"""Leapfrog 1D advection solver with pluggable spatial derivative.

Solves u_t + c u_x = f(t) delta(x - x_s) on a periodic domain with a
three-level leapfrog update and one of three derivative operators:
second-order centered differences, the pseudospectral derivative, or the
complex-step integral transform.  The point source injects at the grid
node nearest x_s with weight 1/dx.

The module also carries the semi-discrete dispersion relations of the fd
and csit operators and the trailing-energy diagnostic used to quantify
parasitic (checkerboard) contamination behind the main pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Series, UniformGrid
from .operators import CsitParams, _derivative, csit_symbol

__all__ = [
    "AdvectionConfig",
    "SourceTimeFunction",
    "WavefieldSnapshot",
    "DivergenceError",
    "run_advection",
    "dispersion_fd",
    "dispersion_csit",
    "parasitic_energy",
    "pulse_centroid",
    "pulse_speed",
    "reference_config",
    "default_csit_params",
]

_SCHEMES = ("fd", "pseudospectral", "csit")

# largest max|u| a step may leave before the run counts as diverged
_GATE = 1e30

# bytes of the new rows of one block of the step loop: with the gate's
# |u| copy of them about 256 KiB, which stays in a core's L2 cache
_BLOCK_BYTES = 1 << 17


def default_csit_params(dx: float) -> CsitParams:
    """Transform extents used by the reference pulse experiment.

    The real half-width rides at 0.1 dx so the sinc taper attenuates the
    checkerboard band, while the imaginary extent stays at 0.0005 dx,
    small enough that the hyperbolic amplification of high wavenumbers
    is negligible and the symbol remains a monotone low-pass curve.
    """
    return CsitParams(eta_half_width=0.1 * dx, tau_max=0.0005 * dx)


@dataclass(frozen=True, eq=False)
class SourceTimeFunction:
    """Injected source wavelet.

    Parameters
    ----------
    kind : {"gaussian_derivative", "ricker"}
        Waveform family.  Both are normalized to unit peak amplitude.
    f0 : float
        Peak frequency in Hz.
    t_delay : float
        Onset delay in seconds; defaults to 1.2/f0 so the wavelet starts
        near zero amplitude.  Near, not at: the default leaves the
        ``gaussian_derivative`` wavelet at about 5.6e-12 of its peak at
        t=0, and this switch-on sets the ~4e-27 parasitic-energy floor of
        the non-fd schemes in the reference experiment.
    """

    kind: str = "gaussian_derivative"
    f0: float = 1.0
    t_delay: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian_derivative", "ricker"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not self.f0 > 0.0:
            raise ValueError("source peak frequency must be positive")
        # the wavelet divides by 2*pi*f0 and the default delay is 1.2/f0
        f0 = float(self.f0)
        if not (math.isfinite(2.0 * math.pi * f0) and math.isfinite(1.2 / f0)):
            raise ValueError(f"source peak frequency f0 {f0:g} is out of range: "
                             "2*pi*f0 and 1.2/f0 must be finite")
        if self.t_delay is None:
            object.__setattr__(self, "t_delay", 1.2 / f0)
        elif not 0.0 <= self.t_delay < math.inf:
            raise ValueError("source delay must be finite and nonnegative")

    def __call__(self, t):
        s = np.asarray(t, dtype=np.float64) - self.t_delay
        if self.kind == "ricker":
            # float_power is C pow, as the ** of a single time is; ** 2 on
            # an array is one multiplication, which rounds differently for
            # about one argument in a thousand, so a whole run's times
            # would not give the bits of one call per time
            a = np.float_power(np.pi * self.f0 * s, 2)
            out = (1.0 - 2.0 * a) * np.exp(-a)
        else:
            # derivative of a Gaussian whose spectrum peaks at f0,
            # rescaled to unit maximum
            sigma = 1.0 / (2.0 * np.pi * self.f0)
            w = s / sigma
            out = -w * np.exp(0.5 - 0.5 * w * w)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class AdvectionConfig:
    """Simulation parameters for the periodic advection experiment."""

    c: float
    L: float
    x_s: float
    f0: float
    n_x: int
    cfl: float = 0.25
    n_t: int = 600
    scheme: str = "csit"
    csit: CsitParams | None = None
    initial_field: np.ndarray | None = None

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("velocity must be positive")
        if not self.L > 0.0:
            raise ValueError("domain length must be positive")
        # pulse_centroid turns positions into angles 2*pi*x/L
        if not math.isfinite(2.0 * math.pi * float(self.L)):
            raise ValueError(f"domain length L {self.L:g} is too large: 2*pi*L overflows float64")
        if not 0.0 < self.x_s < self.L:
            raise ValueError("source position must lie inside the domain")
        if not self.f0 > 0.0:
            raise ValueError("source frequency must be positive")
        if self.n_x < 16:
            raise ValueError("grid count must be at least 16")
        if not self.cfl > 0.0:
            raise ValueError("Courant number must be positive")
        if self.n_t < 1:
            raise ValueError("time-step count must be at least 1")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        # pulse_speed fits a line through snapshot times, which squares them
        if not (np.finfo(np.float64).tiny < self.dt * self.dt and self.dt < np.inf):
            raise ValueError("time step cfl*dx/c must be finite and above 1.5e-154")
        if self.scheme == "csit" and self.csit is None:
            object.__setattr__(self, "csit", default_csit_params(self.dx))
        if self.initial_field is not None:
            u0 = np.asarray(self.initial_field, dtype=np.float64)
            if u0.shape != (self.n_x,):
                raise ValueError("initial field length must match the grid count")
            if not np.all(np.isfinite(u0)):
                raise ValueError("initial field must be finite")
            object.__setattr__(self, "initial_field", u0)

    @property
    def dx(self) -> float:
        return self.L / self.n_x

    @property
    def dt(self) -> float:
        return self.cfl * self.dx / self.c

    @property
    def grid(self) -> UniformGrid:
        return UniformGrid(x0=0.0, length=self.L, n=self.n_x)


def reference_config(scheme: str = "csit", n_t: int = 600) -> AdvectionConfig:
    """Baseline pulse-propagation configuration.

    900 m/s advection on a 10 km periodic domain, 500 nodes, a 1 Hz
    source at midpoint, and cfl 0.25; 600 steps carry the pulse 30
    percent of the way around the domain.
    """
    return AdvectionConfig(
        c=900.0, L=10000.0, x_s=5000.0, f0=1.0, n_x=500, cfl=0.25, n_t=n_t, scheme=scheme
    )


@dataclass(frozen=True, eq=False)
class WavefieldSnapshot:
    """Field state at a single output time."""

    t: float
    u: Series


class DivergenceError(RuntimeError):
    """Raised when the field stops being finite, or before the first step
    for a run that cannot stay bounded.

    Carries the last finite state so the caller can inspect how the
    blow-up developed; a run refused before its first step has none, and
    its ``message`` says why.
    """

    def __init__(self, t: float, last_finite: WavefieldSnapshot | None, message: str | None = None):
        super().__init__(message or f"simulation diverged at t={t:.6g} s")
        self.t = t
        self.last_finite = last_finite


def _snapshot_steps(cfg: AdvectionConfig, snapshot_times: Sequence[float]) -> set[int]:
    """The completed step nearest each snapshot time."""
    if len(snapshot_times) == 0:
        raise ValueError("at least one snapshot time is required")
    steps = set()
    for t in snapshot_times:
        position = float(t) / cfg.dt
        step = int(round(position)) if np.isfinite(position) else -1
        if step < 0 or step > cfg.n_t:
            raise ValueError(f"snapshot time {t} outside the simulated range")
        steps.add(step)
    return steps


def _forcing(cfg: AdvectionConfig, src: SourceTimeFunction) -> np.ndarray:
    """The point source's term in u_t at every step, injected with weight
    1/dx; a ValueError if the step times overflow or if the source alone
    would carry the field past the divergence gate in one step.  A
    non-finite term stays for the step loop to report as divergence."""
    with np.errstate(all="ignore"):  # far from its peak a wavelet underflows or overflows to 0
        times = np.arange(cfg.n_t) * cfg.dt
        if not np.isfinite(times[-1]):
            raise ValueError(f"the last step time (n_t - 1)*dt overflows float64: n_t {cfg.n_t}, "
                             f"dt = cfl*dx/c = {cfg.dt:g} s")
        force = np.asarray(src(times), dtype=np.float64) * (1.0 / cfg.dx)
        force = np.broadcast_to(force, (cfg.n_t,))
        # a leapfrog step adds 2*dt*force at the source node
        injected = 2.0 * cfg.dt * np.max(np.abs(force), where=np.isfinite(force), initial=0.0)
    if not injected <= _GATE:
        raise ValueError(f"c {cfg.c:g} with cfl {cfg.cfl:g} lets the source alone add {injected:g} "
                         f"in one step (2*dt*max|f(t)|/dx), above the divergence gate {_GATE:g}")
    return force


def run_advection(
    cfg: AdvectionConfig,
    src: SourceTimeFunction,
    snapshot_times: Sequence[float],
) -> list[WavefieldSnapshot]:
    """Integrate the forced advection equation and return snapshots.

    Three-level leapfrog in time, bootstrapped with a single forward
    Euler step; the derivative operator is selected by ``cfg.scheme`` and
    built once per run.  Snapshot times snap to the nearest completed step.

    ``src`` is called once, on the array of the ``n_t`` step times
    ``step * dt``, so it must act elementwise; a scalar result is
    broadcast to every step.

    The steps run in blocks of B rows, B from a byte cap of the block
    (one row per block on a large grid), written into one ring of B + 2
    rows whose first two hold the history.  The divergence gate takes one
    max|u| reduction per block and reports the first step of the block
    that broke it; the steps after that one are discarded.

    Raises
    ------
    ValueError
        Before the first step, if a step time is not finite, if the
        finite source terms of one step would carry the field past the
        divergence gate 1e30 on their own, or if the sum of the squared
        snapshot times (which :func:`pulse_speed` forms) overflows.
    DivergenceError
        At the first step whose field is not finite or exceeds 1e30 in
        magnitude; the exception carries the field of the step before.
    """
    grid = cfg.grid
    dt = cfg.dt
    wanted = _snapshot_steps(cfg, snapshot_times)
    deriv = _derivative(grid, cfg.scheme, cfg.csit).writer(cfg.n_x)
    j_src = int(round((cfg.x_s - grid.x0) / grid.dx)) % cfg.n_x
    force = _forcing(cfg, src).tolist()
    # pulse_speed fits a line through the snapshot times, summing their squares
    times = [float(step) * float(dt) for step in wanted]
    if not math.isfinite(sum(t * t for t in times)):
        raise ValueError(f"snapshot times up to {max(times):g} s (n_t {cfg.n_t}, dt {dt:g} s) are "
                         "too large: the speed fit's sum of their squares overflows float64")
    neg_c, two_dt = -cfg.c, 2.0 * dt

    # row r of a block holds the field after its step r - 2, and rows 0
    # and 1 the two fields before the block; before the first block both
    # hold the initial field, from which step 0 takes a forward-Euler step
    rows = max(1, _BLOCK_BYTES // (8 * cfg.n_x))
    ring = np.empty((rows + 2, cfg.n_x))
    ring[:2] = 0.0 if cfg.initial_field is None else cfg.initial_field
    views = list(ring)  # the row views, made once and not per step
    collected = [WavefieldSnapshot(t=0.0, u=Series(grid, ring[1]))] if 0 in wanted else []

    for first in range(0, cfg.n_t, rows):
        count = min(rows, cfg.n_t - first)
        # a step past a diverged one may overflow; the gate discards it
        with np.errstate(over="ignore", invalid="ignore"):
            for r, step in enumerate(range(first, first + count), 2):
                # (-c * u_x + forcing) * h + base, with the operand order,
                # and so the rounding, of that formula
                row = views[r]
                deriv(views[r - 1], row)
                row *= neg_c
                row[j_src] += force[step]
                row *= two_dt if step else dt
                row += views[r - 2]
        # the gate fires well before float overflow, so the derivative of a
        # field that passed it stays finite; a NaN fails the comparison
        failed = np.flatnonzero(~(np.abs(ring[2:count + 2]).max(axis=1) <= _GATE))
        if failed.size:
            r = int(failed[0]) + 2
            before = WavefieldSnapshot(t=(first + r - 2) * dt, u=Series(grid, ring[r - 1]))
            raise DivergenceError((first + r - 1) * dt, before)
        # Series copies the field
        collected += [WavefieldSnapshot(t=(first + r - 1) * dt, u=Series(grid, ring[r]))
                      for r in range(2, count + 2) if first + r - 1 in wanted]
        # row by row: with one row a block the two slices would overlap
        ring[0] = ring[count]
        ring[1] = ring[count + 1]

    return collected


def dispersion_fd(k, c: float, dx: float):
    """Semi-discrete frequency of the centered-difference operator.

    omega = (c/dx) sin(k dx); the sine is snapped to exactly zero at
    integer multiples of pi so the stationary checkerboard root is not
    blurred by rounding in pi.
    """
    theta = np.asarray(k, dtype=np.float64) * dx
    cycles = theta / np.pi
    snapped = np.where(np.abs(cycles - np.round(cycles)) < 1e-12, 0.0, np.sin(theta))
    out = (c / dx) * snapped
    return out if out.ndim else float(out)


def dispersion_csit(k, c: float, eta_half_width: float, tau_max: float):
    """Semi-discrete frequency of the transform-based derivative.

    omega = c * Im sigma(k) = c (shi(k Z)/Z) sinc(k H) with sigma the
    :func:`~csit.operators.csit_symbol`, H the real half-width and Z the
    imaginary extent; H = 0 drops the sinc taper.  H, Z and k obey the
    symbol's extent and growth rules.
    """
    out = c * np.imag(csit_symbol(k, eta_half_width, tau_max))
    return out if np.ndim(out) else float(out)


def pulse_centroid(snap: WavefieldSnapshot) -> float:
    """Energy centroid of the field, periodic-aware.

    Positions enter through the circular mean of u^2 so a pulse
    straddling the domain seam still reports a sensible center.
    """
    u2 = snap.u.values.real**2 + snap.u.values.imag**2
    total = np.sum(u2)
    grid = snap.u.grid
    if total == 0.0:
        return grid.x0
    angle = 2.0 * np.pi * (grid.nodes - grid.x0) / grid.length
    mean = np.arctan2(np.sum(u2 * np.sin(angle)), np.sum(u2 * np.cos(angle)))
    return grid.x0 + (mean % (2.0 * np.pi)) * grid.length / (2.0 * np.pi)


def pulse_speed(snapshots: Sequence[WavefieldSnapshot]) -> float:
    """Propagation speed from a linear fit to unwrapped centroids."""
    if len(snapshots) < 2:
        raise ValueError("speed estimation needs at least two snapshots")
    times = np.array([s.t for s in snapshots])
    length = snapshots[0].u.grid.length
    raw = np.array([pulse_centroid(s) for s in snapshots])
    unwrapped = raw.copy()
    for i in range(1, len(unwrapped)):
        jump = unwrapped[i] - unwrapped[i - 1]
        unwrapped[i] -= length * np.round(jump / length)
    return float(np.polyfit(times, unwrapped, 1)[0])


def parasitic_energy(snap: WavefieldSnapshot, pulse_window: tuple[float, float]) -> float:
    """Ratio of field energy outside the window to energy inside.

    The window is an arc (lo, hi) in domain coordinates and may wrap
    around the seam when lo > hi.  An identically zero field reports 0;
    a finite field with no energy inside the window reports inf.
    """
    grid = snap.u.grid
    lo, hi = pulse_window
    pos = np.mod(grid.nodes - grid.x0, grid.length)
    wlo = np.mod(lo - grid.x0, grid.length)
    whi = np.mod(hi - grid.x0, grid.length)
    if wlo <= whi:
        inside = (pos >= wlo) & (pos <= whi)
    else:
        inside = (pos >= wlo) | (pos <= whi)
    u2 = snap.u.values.real**2 + snap.u.values.imag**2
    e_in = float(np.sum(u2[inside]))
    e_out = float(np.sum(u2[~inside]))
    if e_in == 0.0:
        return 0.0 if e_out == 0.0 else np.inf
    return e_out / e_in
