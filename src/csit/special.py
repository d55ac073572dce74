"""Real-argument special functions used by the transform kernels.

shi and si are the hyperbolic and ordinary sine integrals

    shi(z) = integral_0^z sinh(t)/t dt,    si(z) = integral_0^z sin(t)/t dt,

both odd, both zero at the origin.  sinc_kernel is the unnormalized
cardinal sine sin(w)/w with the removable singularity filled in.

Both integrals are summed with numpy alone, so numpy is the package's
only runtime dependency.  Each sum runs until every element has converged,
and an element's sum stops changing on the term that converged it.  shi
takes the positive power series up to |z| = 40, summed term by term as the
cephes ``shichi`` loop sums it (so arguments below 8, table1's shi(0.1)
among them, keep that routine's bits), and above 40 the asymptotic series
e^z/(2z) * sum_k k!/z^k.  si takes the alternating power series up to
|z| = 4 and above it the continued fraction of E1(iz) by modified Lentz,
as in the ``cisi`` routine of *Numerical Recipes*.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shi", "si", "sinc_kernel"]

# sinh overflows float64 near 710; shi(z) ~ e^z/(2z) overflows shortly after
_SHI_OVERFLOW = 713.0

# cephes' MACHEP, the relative size of a term that no longer moves a sum
_EPS = 2.0**-53

# the power series up to each bound, the asymptotic series or continued
# fraction above it.  At 40 the smallest term k!/z^k of shi's asymptotic
# series, about sqrt(2*pi*40)*e^-40, is below _EPS; si's series and fraction
# are both within 2e-15 of si at 4, where neither is yet the worse
_SHI_SERIES_MAX = 40.0
_SI_SERIES_MAX = 4.0


def _odd(z, bound: float, series, beyond, limit: float = np.nan):
    """``series`` on |z| <= bound and ``beyond`` on finite |z| above it, with
    the sign of z put back (+0 at z = -0); a NaN stays NaN and an infinite z
    maps to +-``limit``."""
    z = np.asarray(z, dtype=np.float64)
    a = np.abs(z)
    out = np.where(np.isinf(a), limit, a)
    small = a <= bound
    large = (a > bound) & np.isfinite(a)
    out[small] = series(a[small])
    out[large] = beyond(a[large])
    np.negative(out, out=out, where=z < 0.0)
    return out if out.ndim else float(out)


def _shi_series(x: np.ndarray) -> np.ndarray:
    """x * sum_k x^(2k)/((2k+1)*(2k+1)!), term by term as cephes' shichi sums it."""
    z = x * x
    a, s = np.ones_like(x), np.ones_like(x)
    done = np.zeros(x.shape, dtype=bool)
    k = 2.0
    while not done.all():
        a *= z / k
        k += 1.0
        a /= k
        np.add(s, a / k, out=s, where=~done)
        k += 1.0
        done |= a / s <= _EPS
    return s * x


def _shi_asymptotic(x: np.ndarray) -> np.ndarray:
    """e^x/(2x) * sum_k k!/x^k for x > 40, with e^x as e^(x/2)*e^(x/2) so that
    shi stays finite past the overflow of e^x."""
    term, s = np.ones_like(x), np.ones_like(x)
    done = np.zeros(x.shape, dtype=bool)
    k = 1.0
    while not done.all():
        term *= k / x
        k += 1.0
        np.add(s, term, out=s, where=~done)
        done |= term <= _EPS * s
    half = np.exp(0.5 * x)
    return half * (half / (2.0 * x) * s)


def _si_series(x: np.ndarray) -> np.ndarray:
    """sum_k (-1)^k x^(2k+1)/((2k+1)*(2k+1)!) for 0 <= x <= 4."""
    z = -(x * x)
    term, s = x.copy(), x.copy()
    done = np.zeros(x.shape, dtype=bool)
    k = 1.0
    while not done.all():
        term *= z / ((k + 1.0) * (k + 2.0))
        k += 2.0
        step = term / k
        np.add(s, step, out=s, where=~done)
        done |= np.abs(step) <= _EPS * s
    return s


def _si_continued_fraction(x: np.ndarray) -> np.ndarray:
    """pi/2 + Im(e^(-ix) * h) for x > 4, with h = e^(ix) * E1(ix) the fraction
    1/(1+ix - 1^2/(3+ix - 2^2/(5+ix - ...))) by modified Lentz."""
    b = 1.0 + 1j * x
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    i = 1.0
    while not done.all():
        a = -(i * i)
        i += 1.0
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        np.multiply(h, delta, out=h, where=~done)
        done |= np.abs(delta.real - 1.0) + np.abs(delta.imag) <= 4.0 * _EPS
    return 0.5 * np.pi + (np.cos(x) * h.imag - np.sin(x) * h.real)


def shi(z):
    """Hyperbolic sine integral, elementwise on real input.

    Raises
    ------
    OverflowError
        If ``|z|`` is large enough that sinh exceeds the float64 range.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(np.abs(z) > _SHI_OVERFLOW):
        raise OverflowError(
            f"shi argument exceeds the representable range (|z| > {_SHI_OVERFLOW:g})"
        )
    return _odd(z, _SHI_SERIES_MAX, _shi_series, _shi_asymptotic)


def si(z):
    """Sine integral, elementwise on real input; si(z) -> pi/2 as z -> inf."""
    return _odd(z, _SI_SERIES_MAX, _si_series, _si_continued_fraction, limit=0.5 * np.pi)


def sinc_kernel(w):
    """sin(w)/w with sinc_kernel(0) == 1, elementwise on real input."""
    w = np.asarray(w, dtype=np.float64)
    out = np.sinc(w / np.pi)
    return out if out.ndim else float(out)
