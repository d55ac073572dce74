"""Analytic continuation of sampled periodic data to complex arguments.

A band-limited periodic function sampled on a uniform grid extends off the
real axis mode by mode: the coefficient of exp(i k x) becomes the
coefficient of exp(i k (x + eta + i tau)) = exp(i k eta) * exp(-k tau).
The multiplier is built from those two factors: a decay table
exp(-k tau) with one row per tau, made once per call, and per eta one
rotation exp(i k eta); each entry is one product of the two.  That
product is bit for bit the complex exponential exp(i k eta - k tau) as
long as the C library's complex exp (glibc's ``cexp``, which numpy's
complex ``exp`` calls) returns exp(x)*cos(y) and exp(x)*sin(y), each
rounded once, for |x| up to about 709; the growth limit keeps |k tau|
within 700.  numpy's real ``np.exp`` is a different routine whose last
bits differ, so the decay is the real part of a complex exp.  One
private helper applies the multiplier over the full signed spectrum: for
a row of shifts that share one eta it inverts each given spectrum at all
of them with one batched inverse FFT, into arrays of its own or into
arrays the caller gives.  ``continue_spectral`` is its one-shift call,
one FFT pair on the raw samples; the complex-step frequency estimator
takes one forward FFT per trace component, one decay table and one call
per eta row, each eta row into the same arrays.  ``continue_direct``
simply evaluates a
closed-form function at the shifted argument, and the two agree on
band-limited data.  The multiplier is diagonal, so the phase that
absolute coordinates attach to the coefficients of a grid with
``x0 != 0`` cancels and is never applied, and complex input needs no
splitting: the FFT is linear over complex scalars.

Negative wavenumbers carry exp(+|k| tau), which grows with tau.  That is
the correct continuation of the negative-frequency half of a real signal,
but it caps how far a given grid can be continued; shifts with
max(-k)*tau > 700 would overflow and are rejected.  Every kernel checks
that limit on tau_max (a shift's tau) and a finite max|k|*H with one range
rule, ``_check_range``; ``_continue_rows`` refuses a row that still overflows,
and ``continue_spectral`` a spectrum of its samples that does, with the same line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Series, wavenumbers

__all__ = [
    "AnalyticFunction",
    "ComplexShift",
    "continue_spectral",
    "continue_direct",
]

# evaluating a function at complex arguments; must be analytic in the strip used
AnalyticFunction = Callable[[np.ndarray], np.ndarray]

_EXP_ARG_LIMIT = 700.0


@dataclass(frozen=True)
class ComplexShift:
    """Shift ``eta + i*tau`` with ``tau >= 0`` (upper half-plane only)."""

    eta: float
    tau: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.eta) and np.isfinite(self.tau)):
            raise ValueError("shift components must be finite")
        if self.tau < 0.0:
            raise ValueError("imaginary shift tau must be nonnegative")


def _check_range(k: np.ndarray, eta_half_width: float, tau_max: float) -> None:
    """The range rule of a rectangle on the wavenumbers ``k`` of the multiplier
    a kernel builds: the growth limit of tau_max and a finite max|k|*H."""
    k_max = float(np.max(np.abs(k), initial=0.0))
    if float(tau_max) * k_max > _EXP_ARG_LIMIT:
        raise ValueError(f"continuation step too large: tau_max {tau_max:g} times "
                         f"wavenumber {k_max:.6g} exceeds {_EXP_ARG_LIMIT:g}")
    if not np.isfinite(k_max * float(eta_half_width)):
        raise ValueError(f"eta_half_width {eta_half_width:g} times wavenumber {k_max:.6g} overflows")


def _decay(k: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The decay ``exp(-k*tau)`` as a contiguous float64 ``(len(taus), n)``
    table, taken from the complex exp so that :func:`_multiplier` matches
    ``exp(i*k*eta - k*tau)`` bit for bit; no complex array stays alive."""
    return np.exp(-(k * taus[:, None]) + 0j).real.copy()


def _multiplier(k: np.ndarray, eta: float, decay: np.ndarray, out=None) -> np.ndarray:
    """``exp(i*k*eta - k*tau)`` for every row of ``decay = _decay(k, taus)``.

    One rotation ``exp(i*k*eta)`` per call; each part of the complex
    result is one product ``decay * cos`` or ``decay * sin``, written
    through the float64 views of ``out``, a complex array of ``decay``'s
    shape, which is returned; by default the call makes its own.
    """
    rotation = np.exp(1j * (k * eta))
    mult = np.empty(decay.shape, dtype=np.complex128) if out is None else out
    np.multiply(decay, rotation.real, out=mult.real)
    np.multiply(decay, rotation.imag, out=mult.imag)
    return mult


def _continue_rows(spectra, mult: np.ndarray, out=None) -> list[np.ndarray]:
    """Each spectrum of ``spectra`` continued to ``x + eta + i*tau`` for every
    row of ``mult = _multiplier(k, eta, _decay(k, taus))``, as an array the
    shape of ``mult``.

    Each spectrum takes one product with ``mult`` and one inverse FFT along
    the last axis, both written into its row array.  ``out`` gives these,
    one complex array of ``mult``'s shape per spectrum, which are returned;
    by default the call makes its own.  The caller checks the range rule;
    a row that overflows float64 is refused with one error naming the
    series' peak.
    """
    rows = [np.empty_like(mult) for _ in spectra] if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        for coeffs, row in zip(spectra, rows):
            np.multiply(coeffs, mult, out=row)
            np.fft.ifft(row, out=row)
        if not all(np.isfinite(row.view(np.float64)).all() for row in rows):
            raise _too_large(max(np.max(np.abs(np.fft.ifft(coeffs))) for coeffs in spectra))
    return rows


def _too_large(peak: float) -> ValueError:
    """The one refusal of a series whose continuation overflows float64."""
    return ValueError(f"series too large (peak |value| {peak:g}): "
                      "its continuation off the real axis overflows float64")


def continue_spectral(s: Series, shift: ComplexShift) -> Series:
    """Continue a sampled series to ``x + eta + i*tau`` via its spectrum.

    Multiplies the coefficient of each mode by ``exp(i*k*eta - k*tau)``
    between one forward and one inverse FFT of the samples, real or
    complex.  Returns a complex series; for ``eta = tau = 0`` the input
    comes back unchanged (complexified) up to rounding.

    Raises
    ------
    ValueError
        If tau breaks the range rule of the grid ("continuation step too
        large"), or the series' spectrum or its continuation overflows
        ("series too large").
    """
    k = wavenumbers(s.grid)
    _check_range(k, 0.0, shift.tau)
    # a spectrum that overflows would leave the refusal a peak of nan
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.fft.fft(s.values)
        if not np.isfinite(coeffs.view(np.float64)).all():
            raise _too_large(np.max(np.abs(s.values)))
    decay = _decay(k, np.array([shift.tau], dtype=np.float64))
    (rows,) = _continue_rows([coeffs], _multiplier(k, shift.eta, decay))
    return Series(s.grid, rows[0])


def continue_direct(f: AnalyticFunction, x: np.ndarray, shift: ComplexShift) -> np.ndarray:
    """Evaluate ``f`` at ``x + eta + i*tau`` directly (no sampling, no FFT)."""
    x = np.asarray(x, dtype=np.float64)
    return np.asarray(f(x + complex(shift.eta, shift.tau)), dtype=np.complex128)
