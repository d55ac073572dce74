"""Analytic-signal construction and instantaneous-frequency estimation.

A real trace and its quadrature component (the periodic Hilbert
transform, one Fourier multiplier) form an analytic trace whose phase
rate is the instantaneous frequency.  Three estimators share that trace:

* the classical ratio ``(x*dy/dt - y*dx/dt) / (x^2 + y^2)``, which is
  indeterminate at amplitude zeros,
* its damped variant with an additive ``eps^2`` in the denominator,
* a complex-step estimator that averages ``Im[arctan(B/A)]/tau`` over a
  small rectangle of complex shifts, ``A`` and ``B`` being the trace at
  ``t + eta + i*tau``.  That is ``0.5*ln(|A - iB| / |A + iB|)/tau``, the
  log-modulus difference of the analytic signal across ``t + eta +- i*tau``:
  by Cauchy-Riemann, the complex-step phase derivative, finite at amplitude
  zeros without any damping term.  The rectangle and its nodes are a
  :class:`~csit.operators.CsitParams`, the same object that fixes the
  transform; :func:`default_if_params` gives the one-sample default.

All estimators return samples in Hz together with a validity mask; only
the classical ratio ever produces invalid (NaN) samples in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .continuation import _check_range, _continue_rows, _decay, _multiplier
from .grid import Series, UniformGrid, wavenumbers
from .operators import CsitParams, _derivative, hilbert_fft

__all__ = [
    "AnalyticTrace",
    "FrequencyEstimate",
    "analytic_signal",
    "default_if_params",
    "if_classical",
    "if_damped",
    "if_csit",
    "chirp",
    "edge_mask",
]

_TWO_PI = 2.0 * np.pi
# squared amplitudes below this are treated as exact zeros of the trace
_DENOM_FLOOR = 1e-300
# |A + iB|*|A - iB| / |A|^2 = |1 + (B/A)^2| below this marks a branch point
_BRANCH_TOL = 1e-14


@dataclass(frozen=True)
class AnalyticTrace:
    """A real trace paired with its quadrature component.

    ``x + i*y`` must be one-sided in the Fourier domain: coefficients on
    the strictly negative branch (Nyquist excluded) may not exceed 1e-10
    of the largest coefficient or, if larger, ``n`` subnormal spacings.
    :func:`analytic_signal` is the usual constructor; building the pair
    by hand is allowed as long as that invariant holds.  A pair whose
    spectrum overflows float64 is refused.
    """

    x: Series
    y: Series

    def __post_init__(self) -> None:
        if not (self.x.is_real and self.y.is_real):
            raise ValueError("trace components must be real series")
        if self.x.grid != self.y.grid:
            raise ValueError("trace components must share one grid")
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.fft.fft(self.x.values + 1j * self.y.values)
            if not np.isfinite(coeffs.view(np.float64)).all():
                peak = max(np.max(np.abs(self.x.values)), np.max(np.abs(self.y.values)))
                raise ValueError(f"trace too large (peak |value| {peak:g}): its spectrum overflows float64")
            tail = np.abs(coeffs[self.grid.n // 2 + 1 :])
            largest = np.max(np.abs(coeffs))
        floor = self.grid.n * np.finfo(np.float64).smallest_subnormal  # above subnormal rounding
        if tail.size and tail.max() > max(1e-10 * largest, floor):
            raise ValueError("quadrature component leaves negative-frequency content")

    @property
    def grid(self) -> UniformGrid:
        return self.x.grid

    @property
    def amplitude(self) -> np.ndarray:
        """Envelope ``sqrt(x^2 + y^2)``."""
        return np.hypot(self.x.values, self.y.values)

    @property
    def phase(self) -> np.ndarray:
        """Wrapped phase ``arctan2(y, x)`` in (-pi, pi]."""
        return np.arctan2(self.y.values, self.x.values)


def analytic_signal(s: Series) -> AnalyticTrace:
    """Build the analytic trace ``x + i*hilbert_fft(x)`` of a real series.

    The quadrature component is :func:`~csit.operators.hilbert_fft`, the
    ``-i*sign(k)`` multiplier: positive frequencies of ``x + i*y`` are
    doubled, negative ones cancel, and the mean and (even-grid) Nyquist
    mode stay in ``x`` alone.

    Parameters
    ----------
    s : Series
        Real input samples on a uniform periodic grid.

    Returns
    -------
    AnalyticTrace
        The input as ``x`` and its Hilbert transform as ``y``.
    """
    if not s.is_real:
        raise ValueError("analytic signal needs a real input series")
    return AnalyticTrace(x=s, y=hilbert_fft(s))


def default_if_params(dt: float) -> CsitParams:
    """Shift rectangle for a trace sampled at spacing ``dt``.

    Both extents equal one sample (``H = Z = dt``) with the lower tau
    cutoff at ``dt/100`` and 4 nodes per axis.  A smaller cutoff is not
    recommended: it amplifies the high-frequency noise inherent to the
    analytic continuation.
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError("sample spacing dt must be positive and finite")
    return CsitParams(eta_half_width=dt, tau_max=dt, tau_min=1e-2 * dt)


@dataclass(frozen=True)
class FrequencyEstimate:
    """Instantaneous-frequency samples in Hz with a validity mask.

    ``frequency`` is finite wherever ``valid`` is True.  Invalid samples
    hold NaN when the estimator refused to divide (classical ratio at an
    amplitude zero) or a finite placeholder when it fell back to one
    (complex-step estimator with every quadrature node flagged).
    """

    grid: UniformGrid
    frequency: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequency, dtype=np.float64).copy()
        valid = np.asarray(self.valid, dtype=bool).copy()
        if freq.shape != (self.grid.n,) or valid.shape != (self.grid.n,):
            raise ValueError("estimate length must match the grid")
        if not np.all(np.isfinite(freq[valid])):
            raise ValueError("samples marked valid must be finite")
        freq.flags.writeable = False
        valid.flags.writeable = False
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "valid", valid)


def _phase_rate_terms(tr: AnalyticTrace, backend: str) -> tuple[np.ndarray, np.ndarray]:
    """The numerator x*dy/dt - y*dx/dt, with one derivative operator for
    both parts, and the squared amplitude x^2 + y^2.

    Raises ValueError when either is not finite at some sample (a trace
    too large for float64), before any warning.
    """
    if backend not in ("pseudospectral", "fd"):
        raise ValueError(f"unknown derivative backend {backend!r}")
    deriv = _derivative(tr.grid, backend)
    x, y = tr.x.values, tr.y.values
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = x * deriv(y) - y * deriv(x)
        square = x**2 + y**2
    if not (np.all(np.isfinite(numerator)) and np.all(np.isfinite(square))):
        peak = max(np.max(np.abs(x)), np.max(np.abs(y)))
        raise ValueError(f"trace too large (peak |x|, |y| {peak:g}): "
                         "x*dy/dt - y*dx/dt or x^2 + y^2 overflows float64")
    return numerator, square


def _ratio(grid: UniformGrid, num: np.ndarray, denom: np.ndarray,
           floor: float = 0.0) -> FrequencyEstimate:
    """``num / (2*pi*denom)``, NaN and invalid where ``denom`` is below
    ``floor`` or the ratio is not finite: the estimate of :func:`if_classical`
    (floor 1e-300) or :func:`if_damped` from its phase-rate terms."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = num / denom / _TWO_PI
    valid = (denom >= floor) & np.isfinite(ratio)
    return FrequencyEstimate(grid, np.where(valid, ratio, np.nan), valid)


def if_classical(
    tr: AnalyticTrace,
    backend: Literal["pseudospectral", "fd"] = "pseudospectral",
) -> FrequencyEstimate:
    """Classical phase-rate ratio with flagged amplitude zeros.

    Computes ``(x*dy/dt - y*dx/dt) / (2*pi*(x^2 + y^2))``.  Samples
    where the squared amplitude falls below 1e-300, or where the ratio
    overflows, are flagged invalid and reported NaN rather than as a
    fabricated value.  Raises ValueError when the numerator or
    ``x^2 + y^2`` overflows float64 at some sample.

    Parameters
    ----------
    tr : AnalyticTrace
        Trace to analyze.
    backend : {"pseudospectral", "fd"}
        Time-derivative scheme; the default differentiates the
        trigonometric interpolant, "fd" uses the second-order centered
        difference.
    """
    num, square = _phase_rate_terms(tr, backend)
    return _ratio(tr.grid, num, square, _DENOM_FLOOR)


def _check_damping(eps_damp: float) -> None:
    with np.errstate(over="ignore"):
        if not (eps_damp > 0.0 and np.isfinite(eps_damp * eps_damp)):
            raise ValueError(f"eps_damp {eps_damp:g} must be positive with a finite square")


def if_damped(
    tr: AnalyticTrace,
    eps_damp: float,
    backend: Literal["pseudospectral", "fd"] = "pseudospectral",
) -> FrequencyEstimate:
    """Phase-rate ratio with an additive ``eps_damp**2`` damping term.

    The damped denominator ``x^2 + y^2 + eps_damp^2`` vanishes only where
    ``eps_damp^2`` and the squared amplitude both underflow to 0, a
    sample flagged invalid and reported NaN; so amplitude zeros yield 0 Hz
    instead of an indeterminate value.  Where the amplitude dominates the
    damping the estimate matches the classical one to first order in
    ``eps_damp^2 / amplitude^2``.
    Raises ValueError for an ``eps_damp`` whose square is not finite and
    then, as :func:`if_classical` does, for a trace too large for float64.
    """
    _check_damping(eps_damp)
    num, square = _phase_rate_terms(tr, backend)
    return _ratio(tr.grid, num, square + eps_damp**2)


def _classical_and_damped(
    tr: AnalyticTrace, eps_damp: float | None, backend: str
) -> tuple[FrequencyEstimate, FrequencyEstimate, float]:
    """``if_classical``, ``if_damped`` and the damping used, from one set of
    phase-rate terms.  A given damping is checked first, as :func:`if_damped`
    does; ``None`` takes 1e-3 of the peak amplitude (1e-3 where that is 0)
    after the terms, so an overflowing trace is the error reported."""
    if eps_damp is not None:
        _check_damping(eps_damp)
    num, square = _phase_rate_terms(tr, backend)
    if eps_damp is None:
        eps_damp = 1e-3 * np.max(tr.amplitude) or 1e-3
    classical = _ratio(tr.grid, num, square, _DENOM_FLOOR)
    return classical, _ratio(tr.grid, num, square + eps_damp**2), eps_damp


def _work_arrays(*specs: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Empty arrays of the given ``(shape, dtype)`` pairs, all views of one
    allocation, each starting a multiple of 64 bytes into it."""
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    starts = np.cumsum([0] + [-(-size // 64) * 64 for size in sizes])
    block = np.empty(int(starts[-1]), dtype=np.uint8)
    return [block[start : start + size].view(dtype).reshape(shape)
            for (shape, dtype), start, size in zip(specs, starts, sizes)]


def _imag_arctan_ratio(a: np.ndarray, b: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``Im[arctan(b/a)]`` with branch-point flags.

    The value is ``0.5*ln(|a - i*b| / |a + i*b|)`` (DLMF 4.23); entries with
    ``|a + i*b|*|a - i*b| < _BRANCH_TOL*|a|^2`` are flagged, each modulus
    divided by ``|a|`` first so that the test cannot overflow.  Entries
    with ``a = b = 0`` exactly contribute zero unflagged.  ``out`` gives
    the arrays to write, each of ``a``'s shape: the value and the flag,
    which are returned, a complex array for ``a +- i*b`` and three float64
    arrays for ``|a + i*b|``, ``|a - i*b|`` and ``|a|``; by default the
    call makes its own.
    """
    shape = a.shape
    value, flag, z, plus, minus, scale = out or _work_arrays(
        (shape, np.float64), (shape, np.bool_), (shape, np.complex128), *[(shape, np.float64)] * 3)
    np.abs(a, out=scale)
    np.multiply(1j, b, out=z)
    np.add(a, z, out=z)
    np.abs(z, out=plus)
    np.multiply(1j, b, out=z)
    np.subtract(a, z, out=z)
    np.abs(z, out=minus)
    # branch-point hits give infinite values, flagged and replaced by the
    # caller; a = 0 gives infinite and a = b = 0 NaN ratios, never flagged
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(minus, plus, out=value)
        np.log(value, out=value)
        np.multiply(0.5, value, out=value)
        np.equal(plus, minus, out=flag)
        np.copyto(value, 0.0, where=flag)
        np.divide(plus, scale, out=plus)
        np.divide(minus, scale, out=minus)
        np.multiply(plus, minus, out=plus)
        np.less(plus, _BRANCH_TOL, out=flag)
    return value, flag


def _patch_flagged(integrand: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """Replace flagged integrand entries in place; return the validity mask.

    ``integrand`` and ``flagged`` have shape ``(n_eta, n_tau, n)``.  Each
    flagged (node, sample) takes the value of the first clean node of the
    same sample in the node's candidate order: ``np.lexsort`` ranks all
    nodes by tau-index distance, then eta-index distance, then the signed
    tau and eta offsets (so the lower index wins a tie).  A sample with no
    clean node is zeroed and marked invalid.  One lookup serves all
    flagged samples of a node, and the work stays within arrays the size
    of ``flagged``.
    """
    n = integrand.shape[2]
    bad = flagged.reshape(-1, n)
    valid = ~bad.all(axis=0)
    eta_idx, tau_idx = np.indices(flagged.shape[:2]).reshape(2, -1)
    for node in np.nonzero(bad.any(axis=1))[0]:
        d_eta, d_tau = eta_idx - eta_idx[node], tau_idx - tau_idx[node]
        order = np.lexsort((d_eta, d_tau, np.abs(d_eta), np.abs(d_tau)))
        cols = np.nonzero(bad[node] & valid)[0]
        first = order[np.argmax(~bad[order][:, cols], axis=0)]
        source = integrand[eta_idx[first], tau_idx[first], cols]
        integrand[eta_idx[node], tau_idx[node], cols] = source
    integrand[:, :, ~valid] = 0.0
    return valid


def if_csit(tr: AnalyticTrace, p: CsitParams) -> FrequencyEstimate:
    """Complex-step estimator: rectangle average of ``Im[arctan(B/A)]/tau``.

    ``A`` and ``B`` are both trace components evaluated at the shifted
    time ``t + eta + i*tau`` through their spectra, for the quadrature
    nodes of ``p`` (the rectangle of the transform itself): one forward
    FFT per component and one table of the decays ``exp(-k*tau)``, then
    per eta row one rotation ``exp(i*k*eta)``, whose products with the
    table form the multiplier of every tau node, and one batched inverse
    FFT per component.  Each node contributes
    ``0.5*ln(|A - iB| / |A + iB|)/tau``, the imaginary-step difference of
    ``ln|z|`` for the analytic signal ``z``, which stays finite at
    amplitude zeros without any explicit damping term.

    Each eta row writes into work arrays made once per call: the
    integrand, and, as views of one allocation, its flags, the row's
    multiplier, the continued rows and the arrays of the arctangent.
    glibc's malloc keeps one such block mapped between calls where a dozen
    arrays were unmapped, so a call on a trace the size of the last faults
    in no fresh pages.  The result aliases none of them.

    Nodes with ``|A + iB|*|A - iB| < 1e-14*|A|^2`` (arctangent branch
    points) borrow the value of the nearest clean node of the same
    sample (smallest tau distance first, then eta distance, lower index
    on ties); a sample with no clean node at all is reported as 0 Hz
    and flagged invalid.  Raises ValueError for a rectangle outside the
    range rule of the grid, the one rule of the transform: tau_max, which
    bounds every tau node, within the growth limit, and a finite
    max|k|*H.  Raises it too, naming the peak of the trace, when a
    continued trace overflows float64 ("series too large ..."), and,
    naming tau_min, when the frequency of a valid sample is not finite (a
    tau_min so small that the division by tau overflows).
    """
    etas, w_eta = p.eta_nodes_weights()
    taus, w_tau = p.tau_nodes_weights()
    k = wavenumbers(tr.grid)
    _check_range(k, p.eta_half_width, p.tau_max)
    spectra = [np.fft.fft(tr.x.values), np.fft.fft(tr.y.values)]
    row = (len(taus), tr.grid.n)
    nodes = (len(etas), *row)
    integrand = np.empty(nodes)
    # after the integrand, the largest array, so that a node count too
    # large for memory fails at its allocation first
    decay = _decay(k, taus)
    flagged, mult, *rows, z, plus, minus, scale = _work_arrays(
        (nodes, np.bool_), *[(row, np.complex128)] * 4, *[(row, np.float64)] * 3)
    for ip, eta in enumerate(etas):
        a, b = _continue_rows(spectra, _multiplier(k, eta, decay, mult), rows)
        _imag_arctan_ratio(a, b, (integrand[ip], flagged[ip], z, plus, minus, scale))
    # a subnormal tau_min overflows the division; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        integrand /= taus[:, None]
        valid = _patch_flagged(integrand, flagged)
        weights = np.outer(w_eta, w_tau)[:, :, None]
        freq = np.sum(np.multiply(weights, integrand, out=integrand), axis=(0, 1)) / (_TWO_PI * p.normalization)
    if not np.all(np.isfinite(freq[valid])):
        raise ValueError(f"tau_min {p.tau_min:g} is too small: the frequency of a valid "
                         "sample is not finite")
    return FrequencyEstimate(tr.grid, freq, valid)


def chirp(f0: float, rate: float, grid: UniformGrid) -> Series:
    """Cosine sweep ``cos(2*pi*(f0*t + 0.5*rate*t^2))`` on the grid.

    Its instantaneous frequency at time ``t`` is ``f0 + rate*t``; a rate
    of zero degenerates to a pure tone at ``f0``.  Raises ValueError when
    the phase overflows (or is NaN) at some node.
    """
    t = grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        phase = _TWO_PI * (f0 * t + 0.5 * rate * t * t)
    if not np.all(np.isfinite(phase)):
        raise ValueError(f"chirp phase is not finite on this grid for f0={f0:g}, rate={rate:g}")
    return Series(grid, np.cos(phase))


def edge_mask(n: int, fraction: float = 0.05) -> np.ndarray:
    """Boolean mask keeping the interior, dropping a fraction per edge.

    ``ceil(fraction * n)`` samples are masked off at each end; analytic
    signals built by periodic transforms carry their wrap artifacts
    there.
    """
    if not (0.0 <= fraction < 0.5):
        raise ValueError("fraction must lie in [0, 0.5)")
    trim = int(np.ceil(fraction * n))
    mask = np.ones(n, dtype=bool)
    if trim:
        mask[:trim] = False
        mask[-trim:] = False
    return mask
