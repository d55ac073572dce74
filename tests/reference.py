"""Independent reference implementations used only by the test suite.

Everything here recomputes quantities from definitions, sharing no code
with the package: power series and hand-written adaptive Simpson for the
sine integrals, an O(n^2) summation DFT, and a nested adaptive quadrature
of the defining double integral of the transform.  Tolerances are
absolute unless noted.
"""

from __future__ import annotations

import math

import numpy as np


def adaptive_simpson(
    f, a: float, b: float, tol: float = 1e-12, max_depth: int = 50, rel_tol: float | None = None
):
    """Recursive adaptive Simpson integration.

    With ``rel_tol`` the tolerance is ``rel_tol`` times the magnitude of
    the whole-interval Simpson estimate instead of ``tol``: an integrand
    that spans many orders of magnitude would otherwise drive an absolute
    tolerance to the maximum depth everywhere.

    Returns
    -------
    (value, error_estimate) : tuple of float
        The integral and an accumulated bound on the truncation error.
    """

    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a, m)
        right = simpson(fm, frm, fb, m, b)
        delta = left + right - whole
        if depth >= max_depth or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
        rv, re = recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1)
        return lv + rv, le + re

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(fa, fm, fb, a, b)
    if rel_tol is not None:
        tol = rel_tol * abs(whole)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def series_shi(z: float, terms: int = 40) -> float:
    """Partial sums of shi's power series sum z^(2m+1)/((2m+1)(2m+1)!)."""
    total = 0.0
    for m in range(terms):
        n = 2 * m + 1
        total += z**n / (n * math.factorial(n))
    return total


def series_si(z: float, terms: int = 40) -> float:
    """Partial sums of si's alternating series sum (-1)^m z^(2m+1)/((2m+1)(2m+1)!)."""
    total = 0.0
    for m in range(terms):
        n = 2 * m + 1
        total += (-1.0) ** m * z**n / (n * math.factorial(n))
    return total


def oracle_shi(z: float) -> float:
    """shi via series for small arguments, adaptive Simpson otherwise.

    The integrand grows like e^t/t, so the Simpson tolerance is relative
    (1e-14 of the integral's size) rather than absolute.
    """
    if abs(z) <= 4.0:
        return series_shi(z)
    val, _ = adaptive_simpson(
        lambda t: math.sinh(t) / t if t != 0.0 else 1.0, 0.0, abs(z), rel_tol=1e-14
    )
    return math.copysign(val, z)


def oracle_si(z: float) -> float:
    """si via series for small arguments, adaptive Simpson otherwise."""
    if abs(z) <= 4.0:
        return series_si(z)
    val, _ = adaptive_simpson(lambda t: math.sin(t) / t if t != 0.0 else 1.0, 0.0, abs(z))
    return math.copysign(val, z)


def dft_direct(values: np.ndarray, x0: float, length: float) -> np.ndarray:
    """Plain-summation DFT against exp(-i k x_j), absolute coordinates.

    O(n^2); matches the package's analysis convention including the
    origin phase.
    """
    values = np.asarray(values)
    n = len(values)
    dx = length / n
    xj = x0 + dx * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    kernel = np.exp(-1j * np.outer(k, xj))
    return kernel @ values.astype(np.complex128)


def csit_bruteforce(
    f,
    x: float,
    eta_half_width: float,
    tau_max: float,
    tau_min: float = 1e-13,
    tol: float = 1e-11,
) -> float:
    """Nested adaptive quadrature of the defining rectangle average.

    (1/(2HZ)) * int_{-H}^{H} int_{tau_min}^{Z} Im[f(x+eta+i tau)]/tau dtau deta

    evaluated with the hand-written Simpson rule above; independent of all
    FFT machinery and of the package's fixed-node quadratures.  The
    quotient is cancellation-free, so tau_min may be taken near zero to
    recover the full limit.
    """
    H, Z = eta_half_width, tau_max

    def inner(eta: float) -> float:
        g = lambda tau: complex(f(x + eta + 1j * tau)).imag / tau
        val, _ = adaptive_simpson(g, tau_min, Z, tol)
        return val

    if H == 0.0:
        return inner(0.0) / Z
    outer, _ = adaptive_simpson(inner, -H, H, tol)
    return outer / (2.0 * H * Z)


def enveloped_chirp_trace(n: int, f0: float = 20.0, rate: float = 20.0):
    """Analytic chirp trace under a periodic Hann envelope, zero at t = 0.

    Returns the real and imaginary parts ``(x, y)`` on the nodes
    ``t_j = j/n`` of [0, 1).  The chirp ``cos(2*pi*(f0*t + rate*t^2/2))``
    becomes analytic through a one-sided FFT mask: positive-frequency
    coefficients doubled, negative ones and the Nyquist bin dropped.  The
    envelope 0.5 - 0.5*cos(2*pi*t) multiplies the analytic trace
    componentwise, which keeps the pair one-sided only if the trace has
    no DC or Nyquist content (the envelope's three spectral lines shift
    everything by one bin, and those two bins are where a shifted line
    can land on the negative branch).  Both lines carry only spectral
    leakage of the chirp (measured near 2e-4 and 1e-6 relative), so bins
    0 and n//2 are zeroed before enveloping.  The resulting amplitude has
    exactly one float-exact zero, at the window edge t = 0.
    """
    t = np.arange(n) * (1.0 / n)
    coeffs = np.fft.fft(np.cos(2.0 * np.pi * (f0 * t + 0.5 * rate * t * t)))
    positive = (n + 1) // 2
    coeffs[1:positive] *= 2.0
    coeffs[positive:] = 0.0
    coeffs[0] = 0.0
    coeffs[n // 2] = 0.0
    product = (0.5 - 0.5 * np.cos(2.0 * np.pi * t)) * np.fft.ifft(coeffs)
    return product.real, product.imag


def imag_arctan_two_branch(a: np.ndarray, b: np.ndarray):
    """Elementwise ``Im[arctan(b/a)]`` with branch-point flags, through arctan.

    The complex-step frequency integrand from its definition through
    ``np.arctan`` instead of in log-modulus form: the ratio is formed
    with the smaller-modulus component on top, using
    ``Im[arctan(w)] = -Im[arctan(1/w)]``, and an entry is flagged where
    ``|1 + (b/a)^2| < 1e-14``, tested through whichever ratio was formed.
    ``a = b = 0`` gives zero unflagged.  Returns ``(values, flags)``.
    """
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    out = np.zeros(a.shape)
    flag = np.zeros(a.shape, dtype=bool)
    inverse = np.abs(b) > np.abs(a)
    direct = ~inverse & (a != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(direct):
            w = b[direct] / a[direct]
            out[direct] = np.arctan(w).imag
            flag[direct] = np.abs(1.0 + w * w) < 1e-14
        if np.any(inverse):
            u = a[inverse] / b[inverse]
            out[inverse] = -np.arctan(u).imag
            flag[inverse] = np.abs(1.0 + u * u) < 1e-14 * np.abs(u) ** 2
    return out, flag


def patch_flagged_loop(integrand: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """Node patching of the complex-step frequency estimator, one sample at a time.

    ``integrand`` and ``flagged`` have shape (n_eta, n_tau, n).  Each
    flagged node of a sample takes the integrand of the closest unflagged
    node of that sample under the key (|tau offset|, |eta offset|, tau
    offset, eta offset), offsets counted in node indices; a sample with no
    unflagged node is zeroed.  Patches ``integrand`` in place and returns
    the per-sample validity mask.
    """
    n_eta, n_tau, n = integrand.shape
    valid = np.ones(n, dtype=bool)
    for j in range(n):
        good = ~flagged[:, :, j]
        if not good.any():
            integrand[:, :, j] = 0.0
            valid[j] = False
            continue
        for ip in range(n_eta):
            for im in range(n_tau):
                if good[ip, im]:
                    continue
                best_key, best = None, None
                for jp in range(n_eta):
                    for jm in range(n_tau):
                        key = (abs(jm - im), abs(jp - ip), jm - im, jp - ip)
                        if good[jp, jm] and (best_key is None or key < best_key):
                            best_key, best = key, (jp, jm)
                integrand[ip, im, j] = integrand[best[0], best[1], j]
    return valid
