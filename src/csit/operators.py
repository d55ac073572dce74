"""Derivative operators: the complex-step integral transform and baselines.

The transform estimates f'(x) by averaging the complex-step quotient
Im[f(x + eta + i*tau)]/tau over a small rectangle of shifts, eta in
[-H, H] and tau in (0, Z], normalized by 1/(2*H*Z).  The eta average is
symmetric, which cancels the O(H) bias and leaves an O(H^2 + Z^2) error
with constants M/6 and M/18 (M a bound on f''').

On periodic samples the transform acts diagonally in Fourier space with
symbol

    sigma(k) = i * (shi(k*Z)/Z) * sinc_kernel(k*H),

purely imaginary and odd, reducing to i*k as H, Z -> 0.  Closed forms for
a few reference functions follow from the same normalization, e.g.
sin -> sinc_kernel(H)*(shi(Z)/Z)*cos.

Quadrature layout: eta nodes are symmetric midpoints
eta_p = -H + (p - 1/2)*(2H/n_eta); tau nodes span [tau_min, Z] with
trapezoid (default) or midpoint weights, and the first tau weight absorbs
a rectangle patch for the [0, tau_min) strip so the weighted sum
approximates the full [0, Z] integral that the 1/Z normalization assumes.
The lower cutoff tau_min only has to dodge the removable singularity at
tau = 0; the quotient itself is cancellation-free, so tiny cutoffs are
safe.

``csit_quadrature_direct`` evaluates that weighted sum at complex points.
On periodic samples the same sum is exactly one multiplier per mode,

    m_q(k) = (i/norm) * (sum_p w_p cos(k*eta_p)) * (sum_m w_m sinh(k*tau_m)/tau_m),

which ``csit_quadrature`` builds once and applies with a single real-FFT
pair.  Taking the multiplier itself, rather than the imaginary part of
continued samples, keeps rounding noise proportional to the result and
not to the field (the Im-extraction would amplify it by 1/(k*tau) at
small tau).  Every k-diagonal route here -- m_q, the exact symbol, i*k and
the Hilbert multiplier -- is odd and purely imaginary, with the even-grid
Nyquist bin zeroed, so real input comes back real.

Each route builds its symbol once and applies it through one private
frozen type, ``_Operator(mult, dx=None)``.  ``_derivative(grid, scheme, p)``
returns one for each derivative scheme; fd carries its symbol
i*sin(k*dx)/dx but applies the centered stencil (``dx`` set), the others
apply ``mult`` with one rfft/irfft pair.  ``max_rate`` = max|mult| bounds
the operator's rate, so c*dt*max_rate < 1 is the leapfrog stability limit.

The pair runs numpy's pocketfft kernels directly, the gufuncs
``rfft_n_even``/``rfft_n_odd`` and ``irfft`` of the private
``numpy.fft._pocketfft_umath``.  ``np.fft.rfft`` and ``np.fft.irfft``
call the same kernels with the same scale factors, 1 and 1/n, after a few
microseconds of argument handling that a 500-point advection step would
otherwise spend twice; so the bits are the wrappers' bits.  Where a numpy
has no such module, ``_Operator`` calls the public wrappers instead.

:class:`CsitParams` holds the range rules that need no grid; ``_multiplier``
checks the one that does, ``continuation._check_range``, on the k of each
csit multiplier.  A bin that is not finite is refused, unless it is the
zeroed even-grid Nyquist bin, and so is a public route's overflowing output.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

try:  # the kernels behind np.fft.rfft and np.fft.irfft, private to numpy
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:  # a numpy that moved them: _Operator calls the public wrappers
    _pocketfft = None

from .continuation import AnalyticFunction, _check_range
from .grid import Series, UniformGrid
from .special import shi, sinc_kernel

__all__ = [
    "CsitParams",
    "csit_quadrature",
    "csit_quadrature_direct",
    "csit_spectral",
    "csit_symbol",
    "fd_centered",
    "pseudospectral_derivative",
    "complex_step_derivative",
    "hilbert_fft",
    "Table1Row",
    "Table1Report",
    "table1_verify",
]

_RULES = ("trapezoid", "midpoint")


def _check_extents(eta_half_width: float, tau_max: float) -> None:
    """The H/Z rule of every route that needs no grid."""
    if not (eta_half_width >= 0.0 and np.isfinite(eta_half_width)):
        raise ValueError("eta_half_width must be finite and nonnegative")
    if not (tau_max > 0.0 and np.isfinite(tau_max)):
        raise ValueError("tau_max must be positive and finite")


@dataclass(frozen=True)
class CsitParams:
    """Averaging rectangle and quadrature resolution for the transform.

    Parameters
    ----------
    eta_half_width : float
        Real averaging half-width H, >= 0.  Zero degenerates the eta
        average to evaluation at eta = 0 (n_eta is forced to 1).
    tau_max : float
        Imaginary extent Z, > 0.
    tau_min : float, optional
        Lower tau cutoff; defaults to ``tau_max / n_tau`` and must lie in
        (0, tau_max).
    n_eta, n_tau : int
        Node counts per axis, >= 1.
    rule : {"trapezoid", "midpoint"}
        Weight rule for the tau axis (eta always uses symmetric
        midpoints).
    """

    eta_half_width: float
    tau_max: float
    tau_min: float | None = None
    n_eta: int = 4
    n_tau: int = 4
    rule: Literal["trapezoid", "midpoint"] = "trapezoid"

    def __post_init__(self) -> None:
        _check_extents(self.eta_half_width, self.tau_max)
        if not np.isfinite(2.0 * float(self.eta_half_width)):  # the eta node span
            raise ValueError(f"eta_half_width {self.eta_half_width:g} is too large: 2*H overflows")
        for count in (self.n_eta, self.n_tau):
            if isinstance(count, (bool, np.bool_)) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"node counts must be integers, got {count!r}")
        if self.n_eta < 1 or self.n_tau < 1:
            raise ValueError("node counts must be at least 1")
        if self.rule not in _RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.tau_min is None:
            object.__setattr__(
                self, "tau_min", self.tau_max / max(self.n_tau, 2)
            )
        if not (0.0 < self.tau_min < self.tau_max):
            raise ValueError("tau_min must lie strictly between 0 and tau_max")
        if self.eta_half_width == 0.0 and self.n_eta != 1:
            object.__setattr__(self, "n_eta", 1)
        if not self.normalization > 1.0 / np.finfo(np.float64).max:
            raise ValueError("extents too small: 1/(2*H*Z) overflows")

    def eta_nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric midpoint nodes and weights over [-H, H].

        For H = 0 the single node 0 carries weight 1 so that the
        normalization below stays 1/Z.
        """
        H = self.eta_half_width
        if H == 0.0:
            return np.zeros(1), np.ones(1)
        d = 2.0 * H / self.n_eta
        nodes = -H + (np.arange(self.n_eta) + 0.5) * d
        return nodes, np.full(self.n_eta, d)

    def tau_nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Patched tau nodes and weights approximating the [0, Z] integral."""
        lo, hi, m = self.tau_min, self.tau_max, self.n_tau
        if m == 1:
            nodes = np.array([0.5 * (lo + hi)])
            weights = np.array([hi - lo])
        elif self.rule == "trapezoid":
            nodes = np.linspace(lo, hi, m)
            d = nodes[1] - nodes[0]
            weights = np.full(m, d)
            weights[0] = weights[-1] = 0.5 * d
        else:
            d = (hi - lo) / m
            nodes = lo + (np.arange(m) + 0.5) * d
            weights = np.full(m, d)
        weights[0] += lo  # rectangle patch for the [0, tau_min) strip
        return nodes, weights

    @property
    def normalization(self) -> float:
        """Denominator of the rectangle average: 2*H*Z, or Z when H = 0."""
        H = self.eta_half_width
        return self.tau_max if H == 0.0 else 2.0 * H * self.tau_max


def _multiplier(grid: UniformGrid, symbol: Callable[[np.ndarray], np.ndarray],
                extents: tuple[float, float] | None = None) -> np.ndarray:
    """An odd, purely imaginary symbol on the half spectrum k >= 0.

    A csit symbol's ``extents`` (H, Z) are range-checked on these k first.
    The Nyquist bin of even-length grids is zeroed: its sign is ambiguous
    on the grid and every odd symbol vanishes there in the symmetric
    limit.  An overflow there goes with it; any other bin that is not
    finite is refused, naming the tau_max of ``extents``.
    """
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
    if extents is not None:
        _check_range(k, *extents)
    with np.errstate(over="ignore", invalid="ignore"):
        mult = np.asarray(symbol(k), dtype=np.complex128)
    if grid.n % 2 == 0:
        mult[-1] = 0.0
    finite = np.isfinite(mult)
    if not finite.all():
        of = "" if extents is None else f" of tau_max {extents[1]:g}"
        raise ValueError(f"the multiplier{of} overflows float64 at wavenumber {k[~finite][0]:.6g}")
    return mult


@dataclass(frozen=True, eq=False)
class _Operator:
    """The half-spectrum symbol ``mult`` of :func:`_multiplier` on raw samples
    of its grid: the centered stencil of spacing ``dx`` if set, else one
    rfft/irfft pair, part-wise for complex input (so linear over complex scalars).

    The pair is the pocketfft kernels behind ``np.fft.rfft``/``np.fft.irfft``
    (module docstring), or those wrappers where the kernels do not import;
    either way the result on float64 samples equals
    ``np.fft.irfft(np.fft.rfft(v) * mult, n)`` bit for bit.  Several callers share one operator, so each call writes
    into arrays of its own and the operator keeps no buffer."""

    mult: np.ndarray
    dx: float | None = None

    @property
    def max_rate(self) -> float:
        """max|mult|: a leapfrog step of u_t = -c*op(u) is stable for c*dt*max_rate < 1."""
        return float(np.max(np.abs(self.mult)))

    def apply(self, s: Series) -> Series:
        """This operator on the samples of ``s``; an output that overflows
        float64 is refused, without a numpy warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = self(s.values)
            if not np.isfinite(values).all():
                raise ValueError(f"series too large (peak |value| {np.max(np.abs(s.values)):g}): "
                                 "the operator's output overflows float64")
        return Series(s.grid, values)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if self.dx is not None:
            # (v[j+1] - v[j-1]) / (2 dx) with periodic wrap, in one new array
            out = np.empty_like(values)
            np.subtract(values[2:], values[:-2], out=out[1:-1])
            out[0] = values[1] - values[-1]
            out[-1] = values[0] - values[-2]
            out /= 2.0 * self.dx
            return out
        if np.iscomplexobj(values):
            return self(values.real) + 1j * self(values.imag)
        n = len(values)
        if _pocketfft is None:
            return np.fft.irfft(np.fft.rfft(values) * self.mult, n)
        rfft = _pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even
        spectrum = rfft(values, 1, out=np.empty(n // 2 + 1, dtype=np.complex128))
        spectrum *= self.mult
        return _pocketfft.irfft(spectrum, 1.0 / n, out=np.empty(n))


# points per block of csit_quadrature_direct: a complex128 temporary of a
# block is 512 KiB, which stays in a core's L2 cache
_DIRECT_BLOCK_POINTS = 1 << 15


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(block: Callable[[int], None], n_blocks: int) -> None:
    """Call ``block(0)``, ..., ``block(n_blocks - 1)`` on every usable CPU.

    The caller's thread takes blocks too, so a single block (or a single
    CPU) starts no thread.  Each worker runs in a copy of the caller's
    context, which carries numpy's error state.  Once a block raises, no
    new block starts; every thread is joined and the first exception is
    re-raised.
    """
    n_threads = min(n_blocks, _cpu_count())
    pending = iter(range(n_blocks))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        while not errors:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            try:
                block(index)
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(n_threads - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _quadrature_multiplier(grid: UniformGrid, p: CsitParams) -> np.ndarray:
    """The quadrature's exact multiplier m_q (see the module docstring).

    Raises ValueError when the range rule of ``p`` fails on this grid or
    m_q overflows below its Nyquist bin.
    """
    etas, w_eta = p.eta_nodes_weights()
    taus, w_tau = p.tau_nodes_weights()

    def symbol(k: np.ndarray) -> np.ndarray:
        eta_factor = sum(w * np.cos(k * eta) for eta, w in zip(etas, w_eta))
        tau_factor = sum(w * np.sinh(k * tau) / tau for tau, w in zip(taus, w_tau))
        return (1j / p.normalization) * eta_factor * tau_factor

    return _multiplier(grid, symbol, (p.eta_half_width, p.tau_max))


def csit_quadrature(s: Series, p: CsitParams) -> Series:
    """Transform a sampled series via spectral continuation and quadrature.

    Real input gives a real series.  Complex input is handled as
    transform(Re) + i*transform(Im), which keeps the operator linear over
    complex scalars.  Raises ValueError for a rectangle outside the range
    rule of this grid, and for a multiplier or an output that overflows.
    """
    return _derivative(s.grid, "csit", p).apply(s)


def csit_quadrature_direct(
    f: AnalyticFunction, x: np.ndarray, p: CsitParams
) -> np.ndarray:
    """Transform a closed-form function by direct evaluation (no FFT).

    ``f`` must accept complex arrays and be real-valued on the real axis:
    the quadrature takes ``Im f(z)``.  The operator is defined part-wise,
    so a caller with a complex-valued function passes its real and
    imaginary parts as two functions real on the axis and combines the
    results, as the ``cexp`` row of :func:`table1_verify` does.

    ``f`` is applied elementwise to blocks of shifted points
    ``x + eta_p + i*tau_m`` (a few eta rows at a time), possibly on
    several threads at once, so it must not depend on the shape of its
    argument or keep state between calls.  Each thread runs in a copy of
    the caller's context, so an ``np.errstate`` around the call holds
    inside ``f``, and the first exception raised by ``f`` is re-raised
    here.  Returns the array of transform values at ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    etas, w_eta = p.eta_nodes_weights()
    taus, w_tau = p.tau_nodes_weights()
    quot = np.empty((len(etas), len(taus), len(x)))
    rows = max(1, _DIRECT_BLOCK_POINTS // (len(taus) * max(len(x), 1)))

    def block(index: int) -> None:
        sl = slice(index * rows, (index + 1) * rows)
        shifts = etas[sl, None] + 1j * taus[None, :]
        fz = np.asarray(f(x + shifts[:, :, None]), dtype=np.complex128)
        np.divide(fz.imag, taus[:, None], out=quot[sl])

    _run_blocks(block, -(-len(etas) // rows))
    return np.einsum("p,m,pmn->n", w_eta, w_tau, quot) / p.normalization


def _sigma(k: np.ndarray, eta_half_width: float, tau_max: float):
    """i*(shi(k*Z)/Z)*sinc_kernel(k*H), unchecked: not finite where shi(k*Z)/Z overflows."""
    return 1j * (shi(k * tau_max) / tau_max) * sinc_kernel(k * eta_half_width)


def csit_symbol(k, eta_half_width: float, tau_max: float):
    """Fourier symbol i*(shi(k*Z)/Z)*sinc_kernel(k*H), elementwise in k.

    Purely imaginary and odd; reduces to i*k as H, Z -> 0 with expansion
    sigma/(i k) = 1 - (kH)^2/6 + (kZ)^2/18 + O(k^4).  H and Z obey the
    rule of :class:`CsitParams` and the range rule on ``k``, and
    shi(k*Z)/Z, which grows with |k|, must be finite at max|k|.
    """
    k = np.asarray(k, dtype=np.float64)
    _check_extents(eta_half_width, tau_max)
    _check_range(k, eta_half_width, tau_max)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _sigma(k, eta_half_width, tau_max)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"shi(kmax*Z)/Z overflows for kmax {float(np.max(np.abs(k)))!r} "
                         f"and Z {float(tau_max)!r}")
    return out if np.ndim(out) else complex(out)


def csit_spectral(s: Series, eta_half_width: float, tau_max: float) -> Series:
    """Exact-symbol form of the transform (the quadrature's fine limit).

    The Nyquist mode of even-length grids is zeroed.  Raises ValueError
    for extents that :func:`csit_symbol` rejects on this grid, and for a
    multiplier below the Nyquist mode or an output that overflows.
    """
    extents = (eta_half_width, tau_max)
    _check_extents(*extents)
    return _Operator(_multiplier(s.grid, lambda k: _sigma(k, *extents), extents)).apply(s)


def _derivative(grid: UniformGrid, scheme: str, p: CsitParams | None = None) -> _Operator:
    """The derivative of a scheme on raw sample arrays of ``grid``, built once:
    ``"fd"`` the centered stencil, of symbol i*sin(k*dx)/dx, ``"pseudospectral"``
    the i*k multiplier, ``"csit"`` the quadrature multiplier m_q of ``p``."""
    if scheme == "fd":
        return _Operator(_multiplier(grid, lambda k: 1j * np.sin(k * grid.dx) / grid.dx), grid.dx)
    if scheme == "pseudospectral":
        return _Operator(_multiplier(grid, lambda k: 1j * k))
    if scheme == "csit":
        return _Operator(_quadrature_multiplier(grid, p))
    raise ValueError(f"unknown derivative scheme {scheme!r}")


def fd_centered(s: Series) -> Series:
    """Second-order centered difference with periodic wrap."""
    return _derivative(s.grid, "fd").apply(s)


def pseudospectral_derivative(s: Series) -> Series:
    """Exact derivative of the trigonometric interpolant (i*k multiplier,
    Nyquist zeroed on even grids)."""
    return _derivative(s.grid, "pseudospectral").apply(s)


def complex_step_derivative(f: AnalyticFunction, x, h: float = 0.0, v: float = 1e-200):
    """Single-shift complex-step derivative Im[f(x + h + i*v)]/v.

    Subtraction-free, so v may be taken down to 1e-200 and beyond without
    losing digits.
    """
    if not (np.isfinite(h) and np.isfinite(v)):
        raise ValueError("steps h and v must be finite")
    if v <= 0.0:
        raise ValueError("imaginary step v must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(f(x + complex(h, v))).imag / v
    return out if out.ndim else float(out)


def hilbert_fft(s: Series) -> Series:
    """Periodic Hilbert transform via the -i*sign(k) multiplier.

    The mean (k = 0) and the even-grid Nyquist mode are annihilated;
    applying the transform twice negates a zero-mean series.
    """
    return _Operator(_multiplier(s.grid, lambda k: -1j * np.sign(k))).apply(s)


# --- closed-form verification table ---------------------------------------

_NORMALIZATION_NOTE = (
    "closed forms carry the 1/Z factor of the rectangle-average "
    "normalization 1/(2*H*Z); e.g. sin -> sinc_kernel(H)*(shi(Z)/Z)*cos"
)


@dataclass(frozen=True)
class Table1Row:
    name: str
    reference: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[Table1Row, ...]
    note: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


# Gauss-Legendre nodes per axis of the table1 reference; even, so that no
# tau node falls on the removable singularity at tau = 0
_REFERENCE_NODES = 24


def _bruteforce_reference(
    f: AnalyticFunction, xs: np.ndarray, H: float, Z: float
) -> np.ndarray:
    """Tensor Gauss-Legendre rule for the defining double integral.

    The rectangle average is the eta mean over [-H, H] of the tau mean
    over [0, Z] of Im f(x + eta + i*tau)/tau.  For an entire f that is
    real on the real axis this integrand is entire and even in tau, so
    its tau mean over [0, Z] equals that over [-Z, Z], and the Gauss
    rule on both axes converges geometrically.  It shares no node or
    weight with the midpoint and trapezoid rules it checks.
    """
    t, w = np.polynomial.legendre.leggauss(_REFERENCE_NODES)
    taus, w_tau = Z * t, 0.5 * w
    if H == 0.0:
        etas, w_eta = np.zeros(1), np.ones(1)
    else:
        etas, w_eta = H * t, 0.5 * w
    x = np.asarray(xs, dtype=np.float64)
    z = x[:, None, None] + etas[None, :, None] + 1j * taus[None, None, :]
    quot = np.asarray(f(z), dtype=np.complex128).imag / taus
    return np.einsum("p,m,npm->n", w_eta, w_tau, quot)


def table1_verify(
    eta_half_width: float = 0.1,
    tau_max: float = 0.1,
    n_eta: int = 128,
    n_tau: int = 128,
    tau_min: float | None = None,
    n_points: int = 20,
    tolerance: float = 1e-6,
) -> Table1Report:
    """Check the transform against closed forms on five reference functions.

    Each row runs the direct-evaluation quadrature and compares against
    either the closed form (sin, cos, exp(i x)) or a Gauss-Legendre
    double-quadrature reference (exp, Gaussian).  The exp row has the
    separable closed form exp(x)*(sinh(H)/H)*(si(Z)/Z); only the Gaussian's
    would need the complex error function.
    """
    H, Z = eta_half_width, tau_max
    if tau_min is None:
        tau_min = Z / 512.0
    p = CsitParams(H, Z, tau_min, n_eta, n_tau)
    scale = sinc_kernel(H) * shi(Z) / Z

    xs_circle = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)

    def row(name, got, want, reference="closed form"):
        return Table1Row(name, reference, float(np.max(np.abs(got - want))), tolerance)

    def reference_row(name, f, xs):
        return row(name, csit_quadrature_direct(f, xs, p), _bruteforce_reference(f, xs, H, Z),
                   "double quadrature")

    got_sin = csit_quadrature_direct(np.sin, xs_circle, p)
    got_cos = csit_quadrature_direct(np.cos, xs_circle, p)
    rows = [
        row("sin", got_sin, scale * np.cos(xs_circle)),
        row("cos", got_cos, -(scale * np.sin(xs_circle))),
        reference_row("exp", np.exp, np.linspace(-1.0, 1.0, n_points)),
        reference_row("gaussian", lambda z: np.exp(-(z**2)), np.linspace(-2.0, 2.0, n_points)),
        # exp(i x) = cos x + i sin x, transformed part-wise from the rows above
        row("cexp", got_cos + 1j * got_sin, 1j * scale * np.exp(1j * xs_circle)),
    ]

    return Table1Report(tuple(rows), _NORMALIZATION_NOTE)
