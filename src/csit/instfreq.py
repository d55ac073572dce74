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

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .continuation import _check_growth, _continue_rows, _decay
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
    the strictly negative branch (Nyquist excluded) may not exceed
    1e-10 of the largest coefficient.  :func:`analytic_signal` is the
    usual constructor; building the pair by hand is allowed as long as
    that invariant holds.
    """

    x: Series
    y: Series

    def __post_init__(self) -> None:
        if not (self.x.is_real and self.y.is_real):
            raise ValueError("trace components must be real series")
        if self.x.grid != self.y.grid:
            raise ValueError("trace components must share one grid")
        coeffs = np.fft.fft(self.x.values + 1j * self.y.values)
        tail = np.abs(coeffs[self.grid.n // 2 + 1 :])
        if tail.size and tail.max() > 1e-10 * np.max(np.abs(coeffs)):
            raise ValueError(
                "quadrature component leaves negative-frequency content"
            )

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


def _classical(grid: UniformGrid, num: np.ndarray, denom: np.ndarray) -> FrequencyEstimate:
    """The ratio of :func:`if_classical` from its phase-rate terms."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = num / denom / _TWO_PI
    valid = (denom >= _DENOM_FLOOR) & np.isfinite(ratio)
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
    return _classical(tr.grid, *_phase_rate_terms(tr, backend))


def _check_damping(eps_damp: float) -> None:
    with np.errstate(over="ignore"):
        square = eps_damp * eps_damp
    if not (eps_damp > 0.0 and np.isfinite(square)):
        raise ValueError(f"eps_damp {eps_damp:g} must be positive with a finite square")


def _damped(grid: UniformGrid, num: np.ndarray, square: np.ndarray,
            eps_damp: float) -> FrequencyEstimate:
    """The ratio of :func:`if_damped` from its phase-rate terms."""
    denom = square + eps_damp**2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = num / denom / _TWO_PI
    valid = np.isfinite(ratio)
    return FrequencyEstimate(grid, np.where(valid, ratio, np.nan), valid)


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
    return _damped(tr.grid, *_phase_rate_terms(tr, backend), eps_damp)


def _classical_and_damped(
    tr: AnalyticTrace, eps_damp: float, backend: str
) -> tuple[FrequencyEstimate, FrequencyEstimate]:
    """``if_classical(tr, backend)`` and ``if_damped(tr, eps_damp, backend)``
    from one numerator and squared amplitude, with the errors of
    :func:`if_damped` in its order: the damping is checked first."""
    _check_damping(eps_damp)
    num, square = _phase_rate_terms(tr, backend)
    return _classical(tr.grid, num, square), _damped(tr.grid, num, square, eps_damp)


def _imag_arctan_ratio(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``Im[arctan(b/a)]`` with branch-point flags.

    The value is ``0.5*ln(|a - i*b| / |a + i*b|)`` (DLMF 4.23); entries with
    ``|a + i*b|*|a - i*b| < _BRANCH_TOL*|a|^2`` are flagged, each modulus
    divided by ``|a|`` first so that the test cannot overflow.  Entries
    with ``a = b = 0`` exactly contribute zero unflagged.
    """
    ib = 1j * b
    plus, minus, scale = np.abs(a + ib), np.abs(a - ib), np.abs(a)
    # branch-point hits give infinite values, flagged and replaced by the
    # caller; a = 0 gives infinite and a = b = 0 NaN ratios, never flagged
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = np.where(plus == minus, 0.0, 0.5 * np.log(minus / plus))
        flag = (plus / scale) * (minus / scale) < _BRANCH_TOL
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

    Nodes with ``|A + iB|*|A - iB| < 1e-14*|A|^2`` (arctangent branch
    points) borrow the value of the nearest clean node of the same
    sample (smallest tau distance first, then eta distance, lower index
    on ties); a sample with no clean node at all is reported as 0 Hz
    and flagged invalid.  Raises ValueError naming the first tau node
    whose continuation would overflow, when a continued trace is not
    finite, and, naming tau_min, when the frequency of a valid sample is
    not finite (a tau_min so small that the division by tau overflows).
    """
    etas, w_eta = p.eta_nodes_weights()
    taus, w_tau = p.tau_nodes_weights()
    k = wavenumbers(tr.grid)
    _check_growth(k, taus)
    spectra = [np.fft.fft(tr.x.values), np.fft.fft(tr.y.values)]
    n = tr.grid.n
    integrand = np.empty((len(etas), len(taus), n))
    flagged = np.empty((len(etas), len(taus), n), dtype=bool)
    # after the integrand, the largest array, so that a node count too
    # large for memory fails at its allocation first
    decay = _decay(k, taus)
    for ip, eta in enumerate(etas):
        a, b = _continue_rows(spectra, k, eta, decay)
        # a large trace continued far off the axis can overflow float64
        if not (np.isfinite(a.view(np.float64)).all() and np.isfinite(b.view(np.float64)).all()):
            raise ValueError("series values must all be finite")
        integrand[ip], flagged[ip] = _imag_arctan_ratio(a, b)
    # a subnormal tau_min overflows the division; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        integrand /= taus[:, None]
        valid = _patch_flagged(integrand, flagged)
        weights = np.outer(w_eta, w_tau)[:, :, None]
        freq = np.sum(weights * integrand, axis=(0, 1)) / (_TWO_PI * p.normalization)
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
