"""Analytic continuation of sampled periodic data to complex arguments.

A band-limited periodic function sampled on a uniform grid extends off the
real axis mode by mode: the coefficient of exp(i k x) becomes the
coefficient of exp(i k (x + eta + i tau)) = exp(i k eta) * exp(-k tau).
One private helper applies that multiplier over the full signed spectrum:
it builds exp(i k eta - k tau) once for a row of shifts that share one eta
and inverts each given spectrum at all of them with one batched inverse
FFT.  ``continue_spectral`` is its one-shift call, one FFT pair on the raw
samples; the complex-step frequency estimator takes one forward FFT per
trace component and one call per eta row.  ``continue_direct`` simply
evaluates a closed-form function at the shifted argument, and the two
agree on band-limited data.  The multiplier is diagonal, so the phase
that absolute coordinates attach to the coefficients of a grid with
``x0 != 0`` cancels and is never applied, and complex input needs no
splitting: the FFT is linear over complex scalars.

Negative wavenumbers carry exp(+|k| tau), which grows with tau.  That is
the correct continuation of the negative-frequency half of a real signal,
but it caps how far a given grid can be continued; shifts with
max(-k)*tau > 700 would overflow and are rejected.
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


def _check_growth(k: np.ndarray, taus: float | np.ndarray, name: str = "imaginary extent") -> None:
    """Reject the first imaginary extent of ``taus`` (one, or several in
    node order) with exp(|k|*tau) near overflow; the message calls it ``name``."""
    k_max = float(np.max(np.abs(k), initial=0.0))
    for tau in np.atleast_1d(taus):
        if tau * k_max > _EXP_ARG_LIMIT:
            raise ValueError(
                f"continuation step too large: {name} {tau:g} times "
                f"wavenumber {k_max:.6g} exceeds {_EXP_ARG_LIMIT:g}"
            )


def _continue_rows(spectra, k: np.ndarray, eta: float, taus: np.ndarray) -> list[np.ndarray]:
    """Each spectrum of ``spectra`` continued to ``x + eta + i*tau`` for every
    tau of ``taus``, as a ``(len(taus), n)`` array.

    The multiplier ``exp(i*k*eta - k*tau)`` is built once for all spectra,
    and each spectrum takes one inverse FFT along the last axis.  The
    caller checks the growth of ``taus``.
    """
    mult = np.exp(1j * k * eta - k * taus[:, None])
    return [np.fft.ifft(coeffs * mult) for coeffs in spectra]


def continue_spectral(s: Series, shift: ComplexShift) -> Series:
    """Continue a sampled series to ``x + eta + i*tau`` via its spectrum.

    Multiplies the coefficient of each mode by ``exp(i*k*eta - k*tau)``
    between one forward and one inverse FFT of the samples, real or
    complex.  Returns a complex series; for ``eta = tau = 0`` the input
    comes back unchanged (complexified) up to rounding.

    Raises
    ------
    ValueError
        If the imaginary shift would overflow the growing negative-k
        branch ("continuation step too large").
    """
    k = wavenumbers(s.grid)
    _check_growth(k, shift.tau)
    taus = np.array([shift.tau], dtype=np.float64)
    (rows,) = _continue_rows([np.fft.fft(s.values)], k, shift.eta, taus)
    return Series(s.grid, rows[0])


def continue_direct(f: AnalyticFunction, x: np.ndarray, shift: ComplexShift) -> np.ndarray:
    """Evaluate ``f`` at ``x + eta + i*tau`` directly (no sampling, no FFT)."""
    x = np.asarray(x, dtype=np.float64)
    return np.asarray(f(x + complex(shift.eta, shift.tau)), dtype=np.complex128)
