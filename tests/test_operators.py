"""Tests for the transform quadratures, the spectral symbol, and the
derivative helpers.

Frozen numbers here come from the oracle module (series sine integrals,
nested adaptive Simpson of the defining double integral); the quadrature
and spectral routes are also cross-checked against each other since they
approximate the same operator from opposite ends.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csit import operators
from csit.grid import UniformGrid, Series
from csit.operators import (
    CsitParams,
    complex_step_derivative,
    csit_quadrature,
    csit_quadrature_direct,
    csit_spectral,
    csit_symbol,
    fd_centered,
    hilbert_fft,
    pseudospectral_derivative,
    table1_verify,
)
from csit.operators import _REFERENCE_NODES, _bruteforce_reference, _derivative
from csit.special import shi, si, sinc_kernel

from reference import csit_bruteforce, quadrature_direct_one_array


def _band_limited_series(seed: int, n: int, max_mode: int) -> Series:
    rng = np.random.default_rng(seed)
    grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n)
    vals = np.zeros(n)
    for m in rng.integers(1, max_mode + 1, size=5):
        vals += rng.standard_normal() * np.sin(m * grid.nodes + rng.uniform(0, 2 * np.pi))
    return Series(grid, vals)


class TestCsitParams:
    def test_default_tau_min(self):
        p = CsitParams(eta_half_width=0.1, tau_max=0.2, n_tau=8)
        assert p.tau_min == pytest.approx(0.2 / 8)
        # a single tau node still needs tau_min strictly inside (0, Z)
        q = CsitParams(eta_half_width=0.1, tau_max=0.2, n_tau=1)
        assert 0.0 < q.tau_min < q.tau_max

    def test_eta_nodes_symmetric_midpoints(self):
        p = CsitParams(eta_half_width=0.3, tau_max=0.1, n_eta=6)
        nodes, weights = p.eta_nodes_weights()
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-15)
        assert np.sum(weights) == pytest.approx(0.6)
        assert nodes[0] == pytest.approx(-0.3 + 0.05)

    def test_tau_weights_sum_to_tau_max(self):
        # the short-strip patch folds [0, tau_min) into the first weight,
        # so the weights always resolve the full [0, Z] measure
        for rule in ("trapezoid", "midpoint"):
            p = CsitParams(eta_half_width=0.1, tau_max=0.25, n_tau=9, rule=rule)
            _, weights = p.tau_nodes_weights()
            assert np.sum(weights) == pytest.approx(0.25, abs=1e-15)

    def test_tau_nodes_stay_inside_interval(self):
        p = CsitParams(eta_half_width=0.1, tau_max=0.2, tau_min=0.01, n_tau=7, rule="midpoint")
        nodes, _ = p.tau_nodes_weights()
        assert np.all(nodes > 0.01 - 1e-15)
        assert np.all(nodes < 0.2)

    def test_zero_eta_width_collapses_eta_rule(self):
        p = CsitParams(eta_half_width=0.0, tau_max=0.1)
        nodes, weights = p.eta_nodes_weights()
        np.testing.assert_allclose(nodes, [0.0])
        np.testing.assert_allclose(weights, [1.0])
        assert p.normalization == pytest.approx(0.1)

    def test_normalization_is_rectangle_area(self):
        p = CsitParams(eta_half_width=0.2, tau_max=0.5)
        assert p.normalization == pytest.approx(2.0 * 0.2 * 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CsitParams(eta_half_width=-0.1, tau_max=0.1)
        with pytest.raises(ValueError):
            CsitParams(eta_half_width=0.1, tau_max=0.0)
        with pytest.raises(ValueError):
            CsitParams(eta_half_width=0.1, tau_max=0.1, tau_min=0.1)
        with pytest.raises(ValueError):
            CsitParams(eta_half_width=0.1, tau_max=0.1, tau_min=-0.01)
        with pytest.raises(ValueError):
            CsitParams(eta_half_width=0.1, tau_max=0.1, rule="simpson")
        with pytest.raises(ValueError):
            CsitParams(eta_half_width=0.1, tau_max=0.1, n_tau=0)

    @pytest.mark.parametrize("count", [True, np.True_, 2.5, 4.0, "4", None])
    def test_node_counts_must_be_integers(self, count):
        with pytest.raises(ValueError, match="integers"):
            CsitParams(eta_half_width=0.1, tau_max=0.1, n_tau=count)
        with pytest.raises(ValueError, match="integers"):
            CsitParams(eta_half_width=0.1, tau_max=0.1, n_eta=count)

    def test_numpy_integer_node_counts_accepted(self):
        p = CsitParams(eta_half_width=0.1, tau_max=0.1, n_eta=np.int64(3), n_tau=np.int32(5))
        assert len(p.eta_nodes_weights()[0]) == 3
        assert len(p.tau_nodes_weights()[0]) == 5

    def test_normalization_must_not_overflow(self):
        # 1/(2*H*Z) multiplies every quadrature route; it must stay finite
        with pytest.raises(ValueError, match="too small"):
            CsitParams(eta_half_width=1e-300, tau_max=1e-10)
        with pytest.raises(ValueError, match="too small"):
            CsitParams(eta_half_width=0.0, tau_max=1e-320)
        for huge in (1e300, np.float64(1e300)):
            with pytest.raises(ValueError, match=r"too large: 2\*H\*Z overflows"):
                CsitParams(eta_half_width=huge, tau_max=huge)
        assert CsitParams(eta_half_width=1e-300, tau_max=1e-3).normalization == pytest.approx(2e-303)


class TestSymbol:
    def test_frozen_values(self):
        assert csit_symbol(1.0, 0.1, 0.1) == pytest.approx(0.9988889629780923j, abs=1e-13)
        assert csit_symbol(1.0, 0.0, 0.1) == pytest.approx(1.0005557222505701j, abs=1e-13)

    def test_matches_factor_form(self):
        for k in (0.3, 1.7, 4.0):
            expected = 1j * (shi(k * 0.15) / 0.15) * sinc_kernel(k * 0.05)
            assert csit_symbol(k, 0.05, 0.15) == pytest.approx(expected, abs=1e-13)

    def test_purely_imaginary_and_odd(self):
        ks = np.array([-2.0, -0.5, 0.5, 2.0])
        sigma = csit_symbol(ks, 0.1, 0.1)
        np.testing.assert_allclose(sigma.real, 0.0, atol=0.0)
        np.testing.assert_allclose(sigma, -sigma[::-1], atol=1e-14)

    def test_zero_at_origin(self):
        assert csit_symbol(0.0, 0.1, 0.1) == 0.0

    def test_small_k_expansion(self):
        # sigma/(ik) = 1 - (kH)^2/6 + (kZ)^2/18 + O(k^4)
        H, Z = 0.02, 0.03
        for k in (0.1, 0.5, 1.0):
            ratio = (csit_symbol(k, H, Z) / (1j * k)).real
            model = 1.0 - (k * H) ** 2 / 6.0 + (k * Z) ** 2 / 18.0
            assert abs(ratio - model) < 1e-8


class TestClosedForms:
    # smoothing factor shared by the sin and cos rows at H = Z = 0.1
    SCALE = 0.9988889629780923

    def test_sin_maps_to_scaled_cos(self):
        p = CsitParams(eta_half_width=0.1, tau_max=0.1, tau_min=0.1 / 512, n_eta=64, n_tau=64)
        xs = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
        out = csit_quadrature_direct(np.sin, xs, p)
        assert np.max(np.abs(out - self.SCALE * np.cos(xs))) < 2e-6

    def test_cos_maps_to_scaled_negative_sin(self):
        p = CsitParams(eta_half_width=0.1, tau_max=0.1, tau_min=0.1 / 512, n_eta=64, n_tau=64)
        xs = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
        out = csit_quadrature_direct(np.cos, xs, p)
        assert np.max(np.abs(out + self.SCALE * np.sin(xs))) < 2e-6

    def test_exp_maps_to_scaled_exp(self):
        # the growing exponential picks up si(Z)/Z and sinh(H)/H factors
        H = Z = 0.1
        p = CsitParams(eta_half_width=H, tau_max=Z, tau_min=Z / 512, n_eta=64, n_tau=64)
        xs = np.linspace(-1.0, 1.0, 9)
        out = csit_quadrature_direct(np.exp, xs, p)
        scale = (si(Z) / Z) * (np.sinh(H) / H)
        assert np.max(np.abs(out - scale * np.exp(xs))) < 2e-6

    def test_gaussian_matches_frozen_bruteforce(self):
        # reference.csit_bruteforce(exp(-z^2), 0.5, 0.1, 0.1), frozen
        p = CsitParams(eta_half_width=0.1, tau_max=0.1, tau_min=0.1 / 512, n_eta=128, n_tau=128)
        out = csit_quadrature_direct(lambda z: np.exp(-z * z), np.array([0.5]), p)
        assert out[0] == pytest.approx(-0.7744764827884565, abs=1e-6)


class TestErrorBound:
    def test_second_order_bound_with_margin(self):
        # |C f - f'| <= (M/6) H^2 + (M/18) Z^2 for f = sin (M = 1), with a
        # 10 percent allowance for the residual quadrature error
        xs = np.linspace(0.0, 2.0 * np.pi, 17)
        for H in (0.05, 0.2):
            for Z in (0.05, 0.2):
                p = CsitParams(eta_half_width=H, tau_max=Z, tau_min=Z / 512, n_eta=64, n_tau=64)
                err = np.max(np.abs(csit_quadrature_direct(np.sin, xs, p) - np.cos(xs)))
                assert err <= 1.1 * (H * H / 6.0 + Z * Z / 18.0)

    def test_diagonal_slope_is_two(self):
        xs = np.linspace(0.0, 2.0 * np.pi, 17)
        scales = np.array([0.05, 0.1, 0.15, 0.2])
        errs = []
        for s0 in scales:
            p = CsitParams(eta_half_width=s0, tau_max=s0, tau_min=s0 / 512, n_eta=64, n_tau=64)
            errs.append(np.max(np.abs(csit_quadrature_direct(np.sin, xs, p) - np.cos(xs))))
        slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestQuadratureRoute:
    def test_converges_to_spectral_route(self):
        s = _band_limited_series(seed=43, n=256, max_mode=32)
        exact = csit_spectral(s, 0.1, 0.1).values
        norm = np.linalg.norm(exact)
        errs = []
        for m in (16, 64):
            p = CsitParams(
                eta_half_width=0.1, tau_max=0.1, tau_min=0.1 / (4 * m), n_eta=m, n_tau=m
            )
            approx = csit_quadrature(s, p).values
            errs.append(np.linalg.norm(approx - exact) / norm)
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3

    def test_linearity_with_complex_scalars(self):
        rng = np.random.default_rng(47)
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        a = Series(grid, rng.standard_normal(64))
        b = Series(grid, rng.standard_normal(64))
        alpha = 0.8 + 2.1j
        p = CsitParams(eta_half_width=0.05, tau_max=0.05, n_eta=8, n_tau=8)
        combo = Series(grid, alpha * a.values + b.values)
        lhs = csit_quadrature(combo, p).values
        rhs = alpha * csit_quadrature(a, p).values + csit_quadrature(b, p).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_translation_equivariance(self):
        s = _band_limited_series(seed=53, n=128, max_mode=12)
        p = CsitParams(eta_half_width=0.08, tau_max=0.08, n_eta=8, n_tau=8)
        rolled = Series(s.grid, np.roll(s.values, 5))
        lhs = csit_quadrature(rolled, p).values
        rhs = np.roll(csit_quadrature(s, p).values, 5)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_direct_matches_bruteforce_on_gaussian(self):
        f = lambda z: np.exp(-z * z)
        p = CsitParams(eta_half_width=0.1, tau_max=0.1, tau_min=0.1 / 512, n_eta=128, n_tau=128)
        xs = np.array([-0.8, 0.0, 1.2])
        approx = csit_quadrature_direct(f, xs, p)
        for xi, ai in zip(xs, approx):
            ref = csit_bruteforce(f, float(xi), 0.1, 0.1)
            assert abs(ai - ref) < 2e-6

    def test_complex_series_handled_partwise(self):
        rng = np.random.default_rng(59)
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        re, im = rng.standard_normal(64), rng.standard_normal(64)
        p = CsitParams(eta_half_width=0.05, tau_max=0.05, n_eta=8, n_tau=8)
        full = csit_quadrature(Series(grid, re + 1j * im), p).values
        parts = (
            csit_quadrature(Series(grid, re), p).values
            + 1j * csit_quadrature(Series(grid, im), p).values
        )
        assert np.max(np.abs(full - parts)) < 1e-12


def _trig_polynomial(rng, n_modes: int, max_mode: int):
    """Closed form sum a*cos(k z) + b*sin(k z) over integer modes 1..max_mode."""
    ks = rng.integers(1, max_mode + 1, size=n_modes)
    a, b = rng.standard_normal(n_modes), rng.standard_normal(n_modes)
    return lambda z: sum(
        ai * np.cos(k * z) + bi * np.sin(k * z) for k, ai, bi in zip(ks, a, b)
    )


class TestQuadratureRouteAgreement:
    """The FFT route equals direct evaluation of the same quadrature on
    band-limited data, mode by mode, up to rounding."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 64),
        rule=st.sampled_from(["trapezoid", "midpoint"]),
        n_eta=st.integers(1, 6),
        n_tau=st.integers(1, 6),
        h_cells=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
        z_cells=st.floats(0.05, 2.0),
        x0=st.floats(-np.pi, np.pi),  # one period of origins covers every phase
        complex_input=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=33, rule="midpoint", n_eta=3, n_tau=1, h_cells=0.0, z_cells=0.5,
             x0=1.7, complex_input=True, seed=1)
    @example(n=32, rule="trapezoid", n_eta=4, n_tau=3, h_cells=0.7, z_cells=1.2,
             x0=-3.1, complex_input=False, seed=2)
    def test_matches_direct_evaluation(
        self, n, rule, n_eta, n_tau, h_cells, z_cells, x0, complex_input, seed
    ):
        rng = np.random.default_rng(seed)
        grid = UniformGrid(x0=x0, length=2.0 * np.pi, n=n)
        p = CsitParams(h_cells * grid.dx, z_cells * grid.dx,
                       n_eta=n_eta, n_tau=n_tau, rule=rule)
        # modes strictly below the Nyquist wavenumber of even grids
        max_mode = (n - 1) // 2
        parts = [_trig_polynomial(rng, 4, max_mode) for _ in range(1 + complex_input)]
        samples = parts[0](grid.nodes)
        expected = csit_quadrature_direct(parts[0], grid.nodes, p)
        if complex_input:
            samples = samples + 1j * parts[1](grid.nodes)
            expected = expected + 1j * csit_quadrature_direct(parts[1], grid.nodes, p)
        if n % 2 == 0:
            # the Nyquist mode is annihilated, so it must not show in the output
            samples = samples + rng.standard_normal() * (-1.0) ** np.arange(n)
        out = csit_quadrature(Series(grid, samples), p).values
        assert out.dtype == (np.complex128 if complex_input else np.float64)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out - expected)) <= 1e-12 * scale


_DIRECT_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "gaussian": lambda z: np.exp(-(z**2)),
}


def _one_array(f, x, p: CsitParams) -> np.ndarray:
    etas, w_eta = p.eta_nodes_weights()
    taus, w_tau = p.tau_nodes_weights()
    return quadrature_direct_one_array(f, x, etas, w_eta, taus, w_tau, p.normalization)


class TestDirectQuadratureBlocks:
    """``csit_quadrature_direct`` calls f on blocks of eta rows, possibly on
    several threads; the result is the one-array formula bit for bit, and
    the threads carry the caller's error state and exceptions."""

    @settings(max_examples=150, deadline=None)
    @given(
        H=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
        Z=st.floats(1e-6, 2.0),
        rule=st.sampled_from(["trapezoid", "midpoint"]),
        n_eta=st.integers(1, 64),
        n_tau=st.integers(1, 64),
        x=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40),
        name=st.sampled_from(sorted(_DIRECT_FUNCTIONS)),
        block_points=st.sampled_from([1, 37, 500, 4096, operators._DIRECT_BLOCK_POINTS]),
        cpus=st.integers(1, 3),
    )
    def test_bit_identical_to_one_array_formula(
        self, H, Z, rule, n_eta, n_tau, x, name, block_points, cpus
    ):
        p = CsitParams(H, Z, n_eta=n_eta, n_tau=n_tau, rule=rule)
        f = _DIRECT_FUNCTIONS[name]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_DIRECT_BLOCK_POINTS", block_points)
            mp.setattr(operators, "_cpu_count", lambda: cpus)
            got = csit_quadrature_direct(f, x, p)
        assert got.tobytes() == _one_array(f, x, p).tobytes()

    @pytest.mark.parametrize(
        "block_points, rows",
        [(10**6, [12]), (300, [3, 3, 3, 3]), (500, [5, 5, 2]), (1, [1] * 12)],
        ids=["one_block", "even_blocks", "uneven_last_block", "row_per_block"],
    )
    def test_blocks_of_eta_rows(self, monkeypatch, block_points, rows):
        # 12 eta rows of 5 tau nodes at 20 points: 100 points per row
        monkeypatch.setattr(operators, "_DIRECT_BLOCK_POINTS", block_points)
        monkeypatch.setattr(operators, "_cpu_count", lambda: 2)
        p = CsitParams(0.3, 0.2, n_eta=12, n_tau=5)
        x = np.linspace(-1.0, 1.0, 20)
        caller = threading.current_thread()
        calls = []

        def f(z):
            calls.append((z.shape, threading.current_thread() is caller))
            return np.sin(z)

        before = threading.active_count()
        got = csit_quadrature_direct(f, x, p)
        assert threading.active_count() == before
        assert sorted((shape for shape, _ in calls), reverse=True) == [(r, 5, 20) for r in rows]
        if len(rows) == 1:  # a single block runs inline
            assert calls[0][1]
        assert got.tobytes() == _one_array(np.sin, x, p).tobytes()

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching every microsecond: each eta row
        # is evaluated exactly once, and the sum is still bit-identical
        monkeypatch.setattr(operators, "_DIRECT_BLOCK_POINTS", 1)
        monkeypatch.setattr(operators, "_cpu_count", lambda: 8)
        p = CsitParams(0.3, 0.2, n_eta=64, n_tau=3)
        x = np.linspace(-1.0, 1.0, 4)
        starts = []

        def f(z):
            starts.append(z[0, 0, 0])  # x[0] + eta + i*tau[0] names the row
            return np.cos(z)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = csit_quadrature_direct(f, x, p)
        finally:
            sys.setswitchinterval(interval)
        etas, _ = p.eta_nodes_weights()
        assert sorted(z.real for z in starts) == sorted(x[0] + etas)
        assert got.tobytes() == _one_array(np.cos, x, p).tobytes()

    def test_exception_in_a_worker_propagates_with_its_type(self, monkeypatch):
        monkeypatch.setattr(operators, "_DIRECT_BLOCK_POINTS", 1)
        monkeypatch.setattr(operators, "_cpu_count", lambda: 2)
        caller = threading.current_thread()
        worker_called = threading.Event()

        class WorkerFault(Exception):
            pass

        def f(z):
            if threading.current_thread() is caller:
                worker_called.wait(10.0)  # let the worker take a block first
                return np.sin(z)
            worker_called.set()
            raise WorkerFault("raised in a worker")

        before = threading.active_count()
        with pytest.raises(WorkerFault, match="raised in a worker"):
            csit_quadrature_direct(f, np.linspace(0.0, 1.0, 5), CsitParams(0.1, 0.1, n_eta=8, n_tau=4))
        assert threading.active_count() == before

    def test_overflow_raises_under_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(operators, "_cpu_count", lambda: 2)
        p = CsitParams(0.1, 0.1, n_eta=128, n_tau=128)
        before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            csit_quadrature_direct(np.exp, np.linspace(0.0, 720.0, 20), p)
        assert threading.active_count() == before

    def test_workers_see_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(operators, "_DIRECT_BLOCK_POINTS", 1)
        monkeypatch.setattr(operators, "_cpu_count", lambda: 2)
        caller = threading.current_thread()
        called = {True: threading.Event(), False: threading.Event()}
        seen = []

        def f(z):
            # each thread waits until the other has taken a block too
            mine = threading.current_thread() is caller
            seen.append((mine, np.geterr()["over"]))
            called[mine].set()
            called[not mine].wait(10.0)
            return np.sin(z)

        with np.errstate(over="raise"):
            csit_quadrature_direct(f, np.linspace(0.0, 1.0, 5), CsitParams(0.1, 0.1, n_eta=8, n_tau=4))
        assert {mine for mine, _ in seen} == {True, False}
        assert {over for _, over in seen} == {"raise"}

    @pytest.mark.parametrize("count, cpus", [(None, 1), (3, 3)])
    def test_cpu_count_without_an_affinity_call(self, monkeypatch, count, cpus):
        # a platform with no sched_getaffinity falls back to os.cpu_count,
        # which may not know the count
        monkeypatch.delattr(operators.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(operators.os, "cpu_count", lambda: count)
        assert operators._cpu_count() == cpus


# why csit_quadrature_direct may build its sin, cos and exp rows from real factors
CSIN_ASSUMPTION = (
    "sinh(tau)*cos(x), -(sinh(tau)*sin(x)) or exp(x)*sin(tau) differs from the "
    "imaginary part of np.sin, np.cos or np.exp at x + i*tau: this platform's "
    "csin, ccos and cexp do not return the product of the real factors, each "
    "rounded once, for tau <= 700 (and |x| <= 700 for exp)"
)


def _real(u, v: np.ndarray) -> np.ndarray:
    """The real function u at v as the complex ufunc takes it, at v + 0i
    (built by a cast, which keeps the sign of a zero v)."""
    return u(v.astype(np.complex128)).real


def _complex_points(x: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """x + i*tau for every tau (rows) and x (columns), the sign of a zero x kept."""
    z = np.empty((len(taus), len(x)), dtype=np.complex128)
    z.real, z.imag = x, taus[:, None]
    return z


class TestSeparableRows:
    """For np.sin, np.cos and np.exp, ``csit_quadrature_direct`` multiplies
    real factors instead of calling f wherever glibc's complex function is
    that product; elsewhere it calls f.  Either way the result is the
    one-array formula bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
        taus=st.lists(st.floats(0.0, 700.0, exclude_min=True), min_size=1, max_size=30),
    )
    def test_complex_ufuncs_are_factor_products(self, x, taus):
        x, taus = np.array(x), np.array(taus)
        x_exp = np.clip(x, -700.0, 700.0)
        sinh_tau, sin_tau = _real(np.sinh, taus)[:, None], _real(np.sin, taus)[:, None]
        for f, reals, product in [
            (np.sin, x, sinh_tau * _real(np.cos, x)),
            (np.cos, x, -(sinh_tau * _real(np.sin, x))),
            (np.exp, x_exp, _real(np.exp, x_exp) * sin_tau),
        ]:
            got = f(_complex_points(reals, taus)).imag
            # compared as bit patterns, so the signs of zeros must match as well
            assert np.array_equal(got.view(np.uint64), product.view(np.uint64)), CSIN_ASSUMPTION

    @pytest.mark.parametrize("name, Z, x, factored", [
        ("sin", 700.0, [0.0, -0.0, 1.0, -2.5], True),
        ("cos", 700.0, [0.0, -0.0, 1.0, -2.5], True),
        ("sin", 720.0, [0.0, 1.0, -2.5], False),
        ("cos", 720.0, [0.0, 1.0, -2.5], False),
        ("exp", 0.2, [-699.9, 0.0, 699.9], True),
        ("exp", 0.2, [704.9, 705.0], False),
        ("exp", 0.2, [-705.0, 0.0], False),
        *[(name, 0.2, [0.5, bad], False)
          for name in ("sin", "cos", "exp") for bad in (np.nan, np.inf, -np.inf)],
    ])
    def test_both_sides_of_the_guard(self, monkeypatch, name, Z, x, factored):
        monkeypatch.setattr(operators, "_DIRECT_BLOCK_POINTS", 8)
        monkeypatch.setattr(operators, "_cpu_count", lambda: 2)
        f = _DIRECT_FUNCTIONS[name]
        p = CsitParams(0.1, Z, n_eta=4, n_tau=4)
        x = np.array(x)
        etas, _ = p.eta_nodes_weights()
        taus, _ = p.tau_nodes_weights()
        chosen = operators._separable_factors(f, x + etas[:, None], taus)
        assert (chosen is not None) == factored
        with np.errstate(all="ignore"):
            got = csit_quadrature_direct(f, x, p)
            assert got.tobytes() == _one_array(f, x, p).tobytes()

    def test_a_wrapped_ufunc_is_called_on_every_block(self, monkeypatch):
        # 12 eta rows of 5 tau nodes at 20 points, in blocks of 3 rows
        monkeypatch.setattr(operators, "_DIRECT_BLOCK_POINTS", 300)
        monkeypatch.setattr(operators, "_cpu_count", lambda: 2)
        p = CsitParams(0.3, 0.2, n_eta=12, n_tau=5)
        x = np.linspace(-1.0, 1.0, 20)
        shapes = []

        def f(z):
            shapes.append(z.shape)
            return np.sin(z)

        got = csit_quadrature_direct(f, x, p)
        assert shapes == [(3, 5, 20)] * 4
        assert got.tobytes() == csit_quadrature_direct(np.sin, x, p).tobytes()


# --- invariants of every multiplier route -----------------------------------


def _route(name: str, extents: dict):
    if name == "csit_quadrature":
        p = CsitParams(**extents)
        return lambda s: csit_quadrature(s, p)
    if name == "csit_spectral":
        return lambda s: csit_spectral(s, extents["eta_half_width"], extents["tau_max"])
    return {"pseudospectral_derivative": pseudospectral_derivative, "hilbert_fft": hilbert_fft}[name]


@st.composite
def route_cases(draw):
    """A multiplier route on a 2*pi-periodic grid of n <= 64 nodes, odd or
    even, and two complex sample arrays.

    Extents are at most two cells, as in the advection runs, which bounds
    the gain of the top mode over the first.  Each array's real and
    imaginary parts are 3*sin(x) plus drawn samples in [-1, 1], so every
    route's output has a first mode of size near 1 or more once n > 2.
    """
    n = draw(st.integers(2, 64))
    name = draw(st.sampled_from(
        ["csit_quadrature", "csit_spectral", "pseudospectral_derivative", "hilbert_fft"]))
    dx = 2.0 * np.pi / n
    extents = {
        "eta_half_width": draw(st.just(0.0) | st.floats(0.01, 2.0)) * dx,
        "tau_max": draw(st.floats(0.05, 2.0)) * dx,
    }
    if name == "csit_quadrature":
        extents.update(n_eta=draw(st.integers(1, 4)), n_tau=draw(st.integers(1, 4)),
                       rule=draw(st.sampled_from(["trapezoid", "midpoint"])))
    grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n)
    parts = [3.0 * np.sin(grid.nodes) + np.array(draw(st.lists(
        st.floats(-1.0, 1.0), min_size=n, max_size=n))) for _ in range(4)]
    return name, extents, grid, parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


# below the normal range doubles lie 5e-324 apart, so a route is linear there
# only to within that spacing times its gain, which reaches about 250 on the
# grids of route_cases (csit with Z = 2 dx at n = 64); the worst of 160000
# draws with subnormal scalars missed the relative bound by 253 spacings
_SUBNORMAL_FLOOR = 1024 * np.finfo(float).smallest_subnormal


def _sine_case(name: str, extents: dict, n: int):
    """A case of ``route_cases`` whose two arrays are both 3*sin(x) + 3i*sin(x)."""
    grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n)
    x = 3.0 * np.sin(grid.nodes) * (1.0 + 1.0j)
    return name, extents, grid, x, x.copy()


class TestMultiplierRouteInvariants:
    """Every route is one odd, purely imaginary multiplier: linear over
    complex scalars, real in gives real out, and reflecting the input
    about x0 reflects and negates the output.  Tolerances are relative to
    the output maximum; linearity adds an absolute floor for scalars that
    take the output below the normal range."""

    @settings(max_examples=200, deadline=None)
    @given(case=route_cases(),
           a=st.complex_numbers(max_magnitude=2.0), b=st.complex_numbers(max_magnitude=2.0))
    @example(case=_sine_case("csit_quadrature", {"eta_half_width": 0.0, "tau_max": 2.0 * np.pi / 5,
                                                 "n_eta": 1, "n_tau": 1, "rule": "trapezoid"}, 5),
             a=0j, b=5e-324 + 0j)
    def test_linear_over_complex_scalars(self, case, a, b):
        name, extents, grid, x, y = case
        route = _route(name, extents)
        tx, ty = route(Series(grid, x)).values, route(Series(grid, y)).values
        combined = route(Series(grid, a * x + b * y)).values
        scale = max(abs(a) * _max_abs(tx), abs(b) * _max_abs(ty))
        assert _max_abs(combined - (a * tx + b * ty)) <= 1e-12 * scale + _SUBNORMAL_FLOOR

    @settings(max_examples=200, deadline=None)
    @given(case=route_cases())
    def test_real_input_gives_real_output(self, case):
        name, extents, grid, x, _ = case
        route = _route(name, extents)
        out = route(Series(grid, x.real)).values
        assert out.dtype == np.float64
        as_complex = route(Series(grid, x.real + 0j)).values
        assert as_complex.dtype == np.complex128
        assert _max_abs(as_complex.imag) <= 1e-12 * _max_abs(out)
        assert _max_abs(as_complex.real - out) <= 1e-12 * _max_abs(out)

    @settings(max_examples=200, deadline=None)
    @given(case=route_cases(), complex_input=st.booleans())
    def test_odd(self, case, complex_input):
        name, extents, grid, x, _ = case
        route = _route(name, extents)
        x = x if complex_input else x.real
        reflect = (-np.arange(grid.n)) % grid.n
        out = route(Series(grid, x)).values
        mirrored = route(Series(grid, x[reflect])).values
        assert _max_abs(mirrored + out[reflect]) <= 1e-12 * _max_abs(out)


class TestSpectralRoute:
    def test_single_mode_exact(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        s = Series(grid, np.sin(3.0 * grid.nodes))
        out = csit_spectral(s, 0.1, 0.1)
        scale = sinc_kernel(0.3) * shi(0.3) / 0.1
        np.testing.assert_allclose(out.values, scale * np.cos(3.0 * grid.nodes), atol=1e-13)

    def test_real_in_real_out(self):
        s = _band_limited_series(seed=61, n=64, max_mode=8)
        out = csit_spectral(s, 0.1, 0.1)
        assert out.values.dtype == np.float64

    def test_even_grid_nyquist_mode_annihilated(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=32)
        s = Series(grid, (-1.0) ** np.arange(32) * 1.0)
        out = csit_spectral(s, 0.1, 0.1)
        assert np.max(np.abs(out.values)) < 1e-13


class TestSymbolRouteChecks:
    """The symbol route obeys the H/Z rule of CsitParams and the growth
    limit max|k|*Z <= 700 of the quadrature route."""

    @pytest.mark.parametrize(
        "H, Z, match",
        [
            (0.1, 0.0, "tau_max"),
            (0.1, -1.0, "tau_max"),
            (0.1, np.inf, "tau_max"),
            (0.1, np.nan, "tau_max"),
            (-0.1, 0.1, "eta_half_width"),
            (np.inf, 0.1, "eta_half_width"),
            (np.nan, 0.1, "eta_half_width"),
        ],
    )
    def test_symbol_rejects_bad_extents(self, H, Z, match):
        with pytest.raises(ValueError, match=match):
            csit_symbol(np.linspace(0.0, 3.0, 5), H, Z)
        with pytest.raises(ValueError, match=match):
            CsitParams(eta_half_width=H, tau_max=Z)

    def test_symbol_growth_limit_at_700(self):
        assert np.isfinite(csit_symbol(700.0, 0.0, 1.0).imag)
        assert np.isfinite(csit_symbol(-700.0, 0.0, 1.0).imag)
        with pytest.raises(ValueError, match="too large"):
            csit_symbol(701.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="too large"):
            csit_symbol(np.array([0.0, -701.0]), 0.0, 1.0)

    def test_spectral_route_growth_matches_quadrature_route(self):
        # n=64 on [0, 1): largest wavenumber 64*pi ~ 201, so Z=1000 overflows
        grid = UniformGrid(x0=0.0, length=1.0, n=64)
        s = Series(grid, np.sin(2.0 * np.pi * 3.0 * grid.nodes))
        for Z in (1000.0, 3.5):
            with pytest.raises(ValueError, match="too large"):
                csit_spectral(s, 0.01, Z)
            with pytest.raises(ValueError, match="too large"):
                csit_quadrature(s, CsitParams(eta_half_width=0.01, tau_max=Z))
        # 3.4 * 64 * pi = 683.6 stays inside the limit on both routes
        assert np.all(np.isfinite(csit_spectral(s, 0.01, 3.4).values))
        assert np.all(np.isfinite(csit_quadrature(s, CsitParams(0.01, 3.4)).values))

    def test_spectral_route_rejects_zero_extent(self):
        grid = UniformGrid(x0=0.0, length=1.0, n=64)
        s = Series(grid, np.sin(2.0 * np.pi * 3.0 * grid.nodes))
        with pytest.raises(ValueError, match="tau_max"):
            csit_spectral(s, 0.01, 0.0)


class TestDerivativeHelpers:
    def test_scheme_map_rejects_an_unknown_name(self):
        with pytest.raises(ValueError, match="unknown derivative scheme 'spectral'"):
            _derivative(UniformGrid(x0=0.0, length=1.0, n=16), "spectral")

    @pytest.mark.parametrize("route", [
        lambda s: csit_quadrature(s, CsitParams(0.01, 0.01)), lambda s: csit_spectral(s, 0.01, 0.01),
        fd_centered, pseudospectral_derivative, hilbert_fft,
    ], ids=["csit_quadrature", "csit_spectral", "fd_centered", "pseudospectral_derivative",
            "hilbert_fft"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_public_routes_refuse_an_output_that_overflows(self, route, dtype):
        # +-1.7e308 in pairs: the stencil or the FFT overflows float64; the
        # route says so in one error, with no numpy warning (an error here)
        grid = UniformGrid(x0=0.0, length=1.0, n=64)
        s = Series(grid, np.where(np.arange(64) // 2 % 2 == 0, 1.7e308, -1.7e308).astype(dtype))
        with pytest.raises(ValueError, match=r"^series too large \(peak \|value\| 1\.7e\+308\): "
                                             "the operator's output overflows float64$"):
            route(s)

    def test_symbol_refuses_an_overflowing_value(self):
        # max|k|*Z = 100 is within the growth limit, but shi(100)/1e-298 is not finite
        with pytest.raises(ValueError, match=r"^shi\(kmax\*Z\)/Z overflows for kmax 1e\+300 and Z 1e-298$"):
            csit_symbol(np.array([0.0, -1e300]), 0.0, 1e-298)

    def test_pseudospectral_exact_for_band_limited(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        s = Series(grid, np.sin(5.0 * grid.nodes))
        out = pseudospectral_derivative(s)
        np.testing.assert_allclose(out.values, 5.0 * np.cos(5.0 * grid.nodes), atol=1e-11)

    def test_pseudospectral_kills_nyquist(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=32)
        s = Series(grid, (-1.0) ** np.arange(32) * 1.0)
        assert np.max(np.abs(pseudospectral_derivative(s).values)) < 1e-13

    def test_fd_centered_dispersion(self):
        # D2[sin(kx)] = (sin(k dx)/dx) cos(kx), reduced slope at high k
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=40)
        k = 7.0
        s = Series(grid, np.sin(k * grid.nodes))
        out = fd_centered(s)
        factor = np.sin(k * grid.dx) / grid.dx
        np.testing.assert_allclose(out.values, factor * np.cos(k * grid.nodes), atol=1e-12)

    def test_fd_centered_second_order(self):
        errs = []
        for n in (64, 128):
            grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n)
            s = Series(grid, np.sin(3.0 * grid.nodes))
            err = np.max(np.abs(fd_centered(s).values - 3.0 * np.cos(3.0 * grid.nodes)))
            errs.append(err)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_complex_step_exact_at_tiny_step(self):
        assert complex_step_derivative(np.sin, 0.0, v=1e-200) == 1.0

    def test_complex_step_matches_cosine(self):
        xs = np.array([0.3, 1.1, 2.9])
        out = complex_step_derivative(np.sin, xs, v=1e-150)
        np.testing.assert_allclose(out, np.cos(xs), atol=1e-15)

    def test_complex_step_rejects_bad_step(self):
        with pytest.raises(ValueError):
            complex_step_derivative(np.sin, 0.0, v=0.0)

    @pytest.mark.parametrize(
        "steps",
        [{"v": np.nan}, {"v": np.inf}, {"h": np.nan}, {"h": np.inf}, {"h": -np.inf}],
        ids=["v_nan", "v_inf", "h_nan", "h_inf", "h_minus_inf"],
    )
    def test_complex_step_rejects_non_finite_steps(self, steps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="steps h and v must be finite"):
                complex_step_derivative(np.sin, np.array([0.0, 1.0]), **steps)

    def test_hilbert_cos_to_sin(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        s = Series(grid, np.cos(4.0 * grid.nodes))
        out = hilbert_fft(s)
        np.testing.assert_allclose(out.values, np.sin(4.0 * grid.nodes), atol=1e-12)

    def test_hilbert_kills_mean(self):
        grid = UniformGrid(x0=0.0, length=1.0, n=32)
        s = Series(grid, np.full(32, 2.5))
        assert np.max(np.abs(hilbert_fft(s).values)) < 1e-14

    def test_hilbert_squares_to_negation(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=33)
        vals = np.sin(2.0 * grid.nodes) + 0.4 * np.cos(5.0 * grid.nodes)
        s = Series(grid, vals)
        twice = hilbert_fft(hilbert_fft(s))
        np.testing.assert_allclose(twice.values, -vals, atol=1e-12)


def _public_pair(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The multiplier through numpy's public real FFT pair, part-wise for complex input."""
    if np.iscomplexobj(values):
        return _public_pair(values.real, mult) + 1j * _public_pair(values.imag, mult)
    return np.fft.irfft(np.fft.rfft(values) * mult, len(values))


@st.composite
def operator_cases(draw):
    """A spectral operator on a 2*pi-periodic grid of 2 to 600 nodes and
    samples of peak near 10**e, e in [-300, 300]: contiguous, a strided
    ``.real`` view of a complex array, or complex."""
    n = draw(st.integers(2, 600))
    grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n)
    route = draw(st.sampled_from(["pseudospectral", "csit", "hilbert"]))
    if route == "hilbert":
        op = operators._Operator(operators._multiplier(grid, lambda k: -1j * np.sign(k)))
    else:
        p = CsitParams(draw(st.just(0.0) | st.floats(0.01, 2.0)) * grid.dx, draw(st.floats(0.05, 2.0)) * grid.dx,
                       n_eta=draw(st.integers(1, 4)), n_tau=draw(st.integers(1, 4)))
        op = _derivative(grid, route, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    values = scale * (rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n))
    layout = draw(st.sampled_from(["contiguous", "strided", "complex"]))
    if layout == "contiguous":
        values = values.real.copy()
    elif layout == "strided":
        values = values.real
    return op, values


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOperator:
    """Each scheme is one operator that applies the symbol it carries."""

    @settings(max_examples=300, deadline=None)
    @given(case=operator_cases())
    def test_kernels_give_the_bits_of_the_public_pair(self, case):
        # the pocketfft kernels and, with them taken away, the wrappers both
        # equal np.fft.irfft(np.fft.rfft(v) * mult, n), bit for bit; at the
        # large scales the outputs overflow alike, to the same inf and nan
        op, values = case
        with np.errstate(over="ignore", invalid="ignore"):
            want = _public_pair(values, op.mult)
            got = op(values)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(operators, "_pocketfft", None)
                fallback = op(values)
        assert _same_bits(got, want)
        assert _same_bits(fallback, want)

    @settings(max_examples=200, deadline=None)
    @given(case=operator_cases())
    def test_writer_gives_the_bits_of_a_call(self, case):
        # the advection step loop writes the derivative into a row of its
        # ring through one writer, kernels or wrappers, that it calls again
        # and again with one spectrum
        op, values = case
        values = values.real
        n = len(values)
        with np.errstate(over="ignore", invalid="ignore"):
            want, want_reversed = op(values), op(values[::-1])
            for kernels in (operators._pocketfft, None):
                rows = np.full((3, n), np.nan)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(operators, "_pocketfft", kernels)
                    write = op.writer(n)
                    write(values, rows[1])
                    write(values[::-1], rows[2])
                assert _same_bits(rows[1], want)
                assert _same_bits(rows[2], want_reversed)

    @pytest.mark.parametrize("n", [16, 17])
    def test_stencil_writer_gives_the_bits_of_a_call(self, n):
        op = _derivative(UniformGrid(x0=0.0, length=3.0, n=n), "fd")
        values = np.random.default_rng(n).uniform(-1.0, 1.0, (2, n))
        rows = np.full((2, n), np.nan)
        write = op.writer(n)
        for row, v in zip(rows, values):
            write(v, row)
            assert _same_bits(row, op(v))

    def test_kernels_load_on_numpy_2(self):
        assert (operators._pocketfft is None) == (np.lib.NumpyVersion(np.__version__) < "2.0.0")

    def test_each_call_returns_a_new_array(self):
        # callers share one operator and write into its output
        op = _derivative(UniformGrid(x0=0.0, length=2.0 * np.pi, n=16), "pseudospectral")
        values = np.sin(np.arange(16.0))
        first = op(values)
        first[:] = np.nan
        assert _same_bits(op(values), _public_pair(values, op.mult))

    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("scheme", ["fd", "pseudospectral", "csit"])
    def test_applies_its_symbol_to_an_impulse(self, scheme, n):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n)
        op = _derivative(grid, scheme, CsitParams(0.3 * grid.dx, 0.2 * grid.dx))
        impulse = np.zeros(n)
        impulse[0] = 1.0
        response = np.fft.rfft(op(impulse))
        assert op.max_rate == np.max(np.abs(op.mult)) > 0.0
        assert np.max(np.abs(response - op.mult)) <= 1e-15 * op.max_rate

    def test_frozen(self):
        op = _derivative(UniformGrid(x0=0.0, length=1.0, n=16), "pseudospectral")
        with pytest.raises(AttributeError):
            op.dx = 1.0


class TestVerificationTable:
    def test_quick_run_all_rows_pass(self):
        report = table1_verify(n_eta=64, n_tau=64, n_points=5, tolerance=1e-5)
        assert len(report.rows) == 5
        assert all(row.passed for row in report.rows)
        names = {row.name for row in report.rows}
        assert names == {"sin", "cos", "exp", "gaussian", "cexp"}

    def test_deviations_are_recorded(self):
        report = table1_verify(n_eta=32, n_tau=32, n_points=3, tolerance=1e-3)
        for row in report.rows:
            assert row.max_deviation >= 0.0
            assert row.tolerance == 1e-3
        assert "normalization" in report.note

    def test_one_reference_rule_per_call(self, monkeypatch):
        # the exp and Gaussian rows share one Gauss-Legendre eigen-solve
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
        table1_verify(n_eta=32, n_tau=32, n_points=3, tolerance=1e-3)
        assert calls == [_REFERENCE_NODES]


class TestTable1Reference:
    """The Gauss-Legendre reference of table1's exp and Gaussian rows."""

    FUNCTIONS = {"exp": np.exp, "gaussian": lambda z: np.exp(-z * z)}
    XS = np.array([-1.3, 0.2, 0.9])
    RULE = np.polynomial.legendre.leggauss(_REFERENCE_NODES)

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @pytest.mark.parametrize("H", [0.0, 0.05, 0.1, 0.5])
    @pytest.mark.parametrize("Z", [0.05, 0.1, 0.5])
    def test_matches_package_free_oracle(self, name, H, Z):
        f = self.FUNCTIONS[name]
        got = _bruteforce_reference(f, self.XS, H, Z, self.RULE)
        # the oracle's tolerance is absolute on the unnormalized integrals,
        # and its tau_min of 1e-30 leaves out a negligible strip
        tol = 1e-13 * (2.0 * H * Z if H else Z)
        for x, value in zip(self.XS, got):
            ref = csit_bruteforce(f, float(x), H, Z, tau_min=1e-30, tol=tol)
            assert abs(value - ref) < 1e-12

    @pytest.mark.parametrize("H", [0.0, 0.05, 0.1, 0.5])
    @pytest.mark.parametrize("Z", [0.05, 0.1, 0.5])
    def test_exp_matches_closed_form(self, H, Z):
        # Im exp(x + eta + i tau)/tau = exp(x + eta) sin(tau)/tau separates
        xs = np.linspace(-1.0, 1.0, 7)
        closed = np.exp(xs) * (np.sinh(H) / H if H else 1.0) * (si(Z) / Z)
        got = _bruteforce_reference(np.exp, xs, H, Z, self.RULE)
        np.testing.assert_allclose(got, closed, rtol=1e-14, atol=0.0)
