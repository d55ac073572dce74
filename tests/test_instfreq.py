"""Tests for analytic-signal construction and the three instantaneous-
frequency estimators.

Oracles: scipy's analytic-signal routine (independent of the package's
transform convention), closed-form phase rates for tones and for the
trace 1 - e^{2*pi*i*t} (constant 0.5 Hz with one exact amplitude zero),
the principal-branch logarithm identity for Im[arctan], the two-branch
arctangent form of the complex-step integrand, and the per-node loop of
the complex-step estimator kept in reference.py.
"""

import platform
import sys
import warnings

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from csit.grid import Series, UniformGrid
from csit.instfreq import (
    AnalyticTrace,
    FrequencyEstimate,
    analytic_signal,
    chirp,
    default_if_params,
    edge_mask,
    if_classical,
    if_csit,
    if_damped,
)
from csit.instfreq import _imag_arctan_ratio, _patch_flagged, _phase_rate_terms, _work_arrays
from csit.operators import CsitParams, csit_quadrature, fd_centered, pseudospectral_derivative

from reference import enveloped_chirp_trace, if_csit_loop, imag_arctan_two_branch, patch_flagged_loop

TWO_PI = 2.0 * np.pi


def tone_trace(freq: float = 5.0, n: int = 2000) -> AnalyticTrace:
    grid = UniformGrid(0.0, 1.0, n)
    return analytic_signal(Series(grid, np.cos(TWO_PI * freq * grid.nodes)))


def notch_trace(n: int = 1024) -> AnalyticTrace:
    """The trace 1 - e^{2*pi*i*t}: x = y = 0 exactly at node 0, and the
    phase ramps at a constant 0.5 Hz everywhere else."""
    grid = UniformGrid(0.0, 1.0, n)
    t = grid.nodes
    x = Series(grid, 1.0 - np.cos(TWO_PI * t))
    y = Series(grid, -np.sin(TWO_PI * t))
    return AnalyticTrace(x, y)


class TestAnalyticSignal:
    def test_cos_quadrature_is_sin(self):
        tr = tone_trace(5.0)
        t = tr.grid.nodes
        assert np.allclose(tr.y.values, np.sin(TWO_PI * 5.0 * t), atol=1e-10)

    def test_sin_quadrature_is_minus_cos(self):
        grid = UniformGrid(0.0, 1.0, 1024)
        tr = analytic_signal(Series(grid, np.sin(TWO_PI * 3.0 * grid.nodes)))
        assert np.allclose(
            tr.y.values, -np.cos(TWO_PI * 3.0 * grid.nodes), atol=1e-10
        )

    def test_constant_has_zero_quadrature(self):
        grid = UniformGrid(0.0, 1.0, 64)
        tr = analytic_signal(Series(grid, np.full(64, 2.5)))
        assert np.allclose(tr.y.values, 0.0, atol=1e-12)

    def test_matches_scipy_on_broadband_input(self):
        rng = np.random.default_rng(7)
        grid = UniformGrid(0.0, 2.0, 501)
        values = rng.standard_normal(grid.n)
        tr = analytic_signal(Series(grid, values))
        expected = scipy.signal.hilbert(values)
        scale = np.max(np.abs(expected))
        assert np.allclose(tr.x.values, expected.real, atol=1e-12 * scale)
        assert np.allclose(tr.y.values, expected.imag, atol=1e-12 * scale)

    def test_matches_scipy_on_even_grid(self):
        rng = np.random.default_rng(8)
        grid = UniformGrid(0.0, 1.0, 256)
        values = rng.standard_normal(grid.n)
        tr = analytic_signal(Series(grid, values))
        expected = scipy.signal.hilbert(values).imag
        assert np.allclose(tr.y.values, expected, atol=1e-12)

    def test_spectrum_is_one_sided(self):
        tr = tone_trace(7.0, n=600)
        coeffs = np.fft.fft(tr.x.values + 1j * tr.y.values)
        tail = np.abs(coeffs[600 // 2 + 1 :])
        assert tail.max() < 1e-10 * np.max(np.abs(coeffs))

    def test_reapplication_reproduces_quadrature(self):
        tr = tone_trace(4.0, n=512)
        again = analytic_signal(tr.x)
        assert np.array_equal(again.y.values, tr.y.values)

    def test_rejects_complex_input(self):
        grid = UniformGrid(0.0, 1.0, 32)
        s = Series(grid, np.exp(1j * grid.nodes))
        with pytest.raises(ValueError, match="real input"):
            analytic_signal(s)

    def test_enveloped_chirp_matches_reference(self):
        # the reference builds acceptance 08c's trace with numpy alone;
        # the package's chirp and analytic signal, enveloped the same way,
        # give it to rounding
        n = 2500
        grid = UniformGrid(0.0, 1.0, n)
        tr = analytic_signal(chirp(20.0, 20.0, grid))
        coeffs = np.fft.fft(tr.x.values + 1j * tr.y.values)
        coeffs[[0, n // 2]] = 0.0
        z = (0.5 - 0.5 * np.cos(TWO_PI * grid.nodes)) * np.fft.ifft(coeffs)
        x, y = enveloped_chirp_trace(n)
        assert np.max(np.abs(x + 1j * y - z)) < 1e-14

    def test_amplitude_and_phase_of_tone(self):
        tr = tone_trace(5.0)
        assert np.allclose(tr.amplitude, 1.0, atol=1e-10)
        # compare phases on the circle; roundoff flips the sign of the
        # branch right at the +-pi seam
        expected = TWO_PI * 5.0 * tr.grid.nodes
        mismatch = np.abs(np.exp(1j * tr.phase) - np.exp(1j * expected))
        assert np.max(mismatch) < 1e-10


class TestAnalyticTrace:
    def test_rejects_mismatched_grids(self):
        a = UniformGrid(0.0, 1.0, 64)
        b = UniformGrid(0.0, 2.0, 64)
        with pytest.raises(ValueError, match="share one grid"):
            AnalyticTrace(
                Series(a, np.zeros(64)), Series(b, np.zeros(64))
            )

    def test_rejects_complex_components(self):
        grid = UniformGrid(0.0, 1.0, 64)
        with pytest.raises(ValueError, match="real series"):
            AnalyticTrace(
                Series(grid, np.zeros(64, dtype=complex)),
                Series(grid, np.zeros(64)),
            )

    def test_rejects_wrong_quadrature(self):
        # x + i*x has equal weight on both frequency branches
        grid = UniformGrid(0.0, 1.0, 128)
        x = Series(grid, np.cos(TWO_PI * 4.0 * grid.nodes))
        with pytest.raises(ValueError, match="negative-frequency"):
            AnalyticTrace(x, x)

    @pytest.mark.parametrize("n", [8, 9, 64, 65, 256, 1000, 2500])
    def test_accepts_subnormal_traces(self, n):
        # 1e-10 of the largest coefficient underflows to 0, while the rounding
        # tail of the trace's own Hilbert transform stays near 0.44*n
        # subnormal spacings; the bound's floor of n spacings admits it
        grid = UniformGrid(0.0, 1.0, n)
        tiny = np.finfo(np.float64).smallest_subnormal
        steps = np.resize([-tiny, 0.0, tiny], n)
        tone = 3.0 * tiny * np.sin(TWO_PI * 3.0 * grid.nodes)
        for values in (steps, tone):
            tr = analytic_signal(Series(grid, values))
            assert np.array_equal(tr.x.values, values)

    @pytest.mark.parametrize("scale", [1e-300, 1e-318])
    def test_rejects_real_pair_above_the_floor(self, scale):
        # y = 0 leaves the negative branch as large as the positive one: at
        # 1e-318 the tail is 3.2e-317, far above the floor of 64 spacings
        grid = UniformGrid(0.0, 1.0, 64)
        x = Series(grid, scale * np.cos(TWO_PI * 3.0 * grid.nodes))
        with pytest.raises(ValueError, match="negative-frequency"):
            AnalyticTrace(x, Series(grid, np.zeros(64)))

    def test_rejects_a_trace_whose_spectrum_overflows(self):
        # the one-sided check would compare nan and pass; one line instead, no warning
        grid = UniformGrid(0.0, 1.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                AnalyticTrace(Series(grid, np.full(64, 1.7e308)), Series(grid, np.zeros(64)))
        assert str(refused.value) == "trace too large (peak |value| 1.7e+308): its spectrum overflows float64"

    @pytest.mark.parametrize("ratio, accepted", [(5e-10, False), (5e-11, True)])
    def test_one_sided_bound_is_1e_10_of_the_largest_coefficient(self, ratio, accepted):
        # x + i*y = e^{2*pi*i*3t} + ratio * e^{-2*pi*i*5t}, built by hand
        grid = UniformGrid(0.0, 1.0, 64)
        z = np.exp(TWO_PI * 3j * grid.nodes) + ratio * np.exp(-TWO_PI * 5j * grid.nodes)
        x, y = Series(grid, z.real), Series(grid, z.imag)
        if accepted:
            AnalyticTrace(x, y)
        else:
            with pytest.raises(ValueError, match="negative-frequency"):
                AnalyticTrace(x, y)

    def test_accepts_hand_built_one_sided_pair(self):
        tr = notch_trace(256)
        assert tr.amplitude[0] == 0.0
        assert np.all(tr.amplitude[1:] > 0.0)

    def test_zero_trace_is_valid(self):
        grid = UniformGrid(0.0, 1.0, 32)
        tr = AnalyticTrace(Series(grid, np.zeros(32)), Series(grid, np.zeros(32)))
        assert np.all(tr.amplitude == 0.0)


class TestIfParams:
    """The estimator's rectangle is a plain CsitParams."""

    def test_defaults_resolve(self):
        p = CsitParams(eta_half_width=0.1, tau_max=0.2)
        assert p.tau_min == pytest.approx(0.05)
        assert p.tau_max == 0.2 and p.n_eta == 4 and p.n_tau == 4

    def test_field_defaults_for_sampling(self):
        p = default_if_params(0.004)
        assert isinstance(p, CsitParams)
        assert p.eta_half_width == pytest.approx(0.004)
        assert p.tau_max == pytest.approx(0.004)
        assert p.tau_min == pytest.approx(4e-5)
        assert p.n_eta == p.n_tau == 4

    def test_zero_half_width_forces_single_eta_node(self):
        p = CsitParams(eta_half_width=0.0, tau_max=0.1, n_eta=8)
        assert p.n_eta == 1

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="tau_max"):
            CsitParams(eta_half_width=0.1, tau_max=0.0)
        with pytest.raises(ValueError, match="dt"):
            default_if_params(0.0)


class TestFrequencyEstimate:
    def test_valid_samples_must_be_finite(self):
        grid = UniformGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="finite"):
            FrequencyEstimate(
                grid, np.array([1.0, np.nan, 3.0, 4.0]), np.ones(4, dtype=bool)
            )

    def test_nan_allowed_where_invalid(self):
        grid = UniformGrid(0.0, 1.0, 4)
        est = FrequencyEstimate(
            grid,
            np.array([1.0, np.nan, 3.0, 4.0]),
            np.array([True, False, True, True]),
        )
        assert np.isnan(est.frequency[1])

    def test_length_checked_and_read_only(self):
        grid = UniformGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="length"):
            FrequencyEstimate(grid, np.zeros(3), np.ones(3, dtype=bool))
        est = FrequencyEstimate(grid, np.zeros(4), np.ones(4, dtype=bool))
        with pytest.raises(ValueError):
            est.frequency[0] = 1.0


class TestIfClassical:
    def test_tone_is_constant(self):
        est = if_classical(tone_trace(5.0, n=2000))
        assert est.valid.all()
        assert np.max(np.abs(est.frequency - 5.0)) < 1e-6

    def test_chirp_interior_tracks_ramp(self):
        grid = UniformGrid(0.0, 1.0, 2500)
        tr = analytic_signal(chirp(20.0, 20.0, grid))
        est = if_classical(tr)
        interior = edge_mask(2500, 0.05)
        err = np.abs(est.frequency - (20.0 + 20.0 * grid.nodes))
        assert np.max(err[interior]) < 0.2

    def test_amplitude_zero_is_flagged(self):
        est = if_classical(notch_trace(1024))
        assert not est.valid[0]
        assert np.isnan(est.frequency[0])
        assert est.valid[1:].all()

    @pytest.mark.parametrize("scale, valid", [(1e-148, True), (1e-151, False)])
    def test_squared_amplitudes_below_1e_300_are_zeros(self, scale, valid):
        # x^2 + y^2 of the scaled tone is about 1e-296 or 1e-302, either
        # side of the floor; every ratio itself is finite
        grid = UniformGrid(0.0, 1.0, 256)
        est = if_classical(analytic_signal(Series(grid, scale * np.cos(TWO_PI * 5.0 * grid.nodes))))
        assert est.valid.tolist() == [valid] * 256

    def test_notch_phase_rate_is_half_hertz(self):
        est = if_classical(notch_trace(1024))
        assert np.allclose(est.frequency[est.valid], 0.5, atol=1e-10)

    def test_fd_backend_carries_dispersion_error(self):
        tr = tone_trace(5.0, n=2000)
        spectral = if_classical(tr).frequency
        differenced = if_classical(tr, backend="fd").frequency
        assert np.max(np.abs(differenced - 5.0)) < 1e-3
        assert np.max(np.abs(differenced - spectral)) > 1e-5

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            if_classical(tone_trace(), backend="stencil")

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize(
        "backend, deriv",
        [("pseudospectral", pseudospectral_derivative), ("fd", fd_centered)],
        ids=["pseudospectral", "fd"],
    )
    def test_numerator_matches_public_derivatives_bit_for_bit(self, n, backend, deriv):
        tr = analytic_signal(chirp(3.0, 5.0, UniformGrid(0.0, 1.0, n)))
        x, y = tr.x.values, tr.y.values
        expected = x * deriv(tr.y).values - y * deriv(tr.x).values
        numerator, square = _phase_rate_terms(tr, backend)
        assert np.array_equal(numerator, expected)
        assert np.array_equal(square, x**2 + y**2)

    @pytest.mark.parametrize("damping", [None, 1.0], ids=["classical", "damped"])
    def test_refuses_a_trace_too_large_for_float64(self, damping):
        # x*dy/dt - y*dx/dt and x^2 + y^2 of a 1e300 tone overflow: one
        # ValueError, not warnings and a trace of invalid samples
        grid = UniformGrid(0.0, 1.0, 64)
        tr = analytic_signal(Series(grid, 1e300 * np.cos(TWO_PI * 3.0 * grid.nodes)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="trace too large"):
                if damping is None:
                    if_classical(tr)
                else:
                    if_damped(tr, damping)


class TestIfDamped:
    def test_rejects_nonpositive_damping(self):
        tr = tone_trace()
        for bad in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError, match="eps_damp"):
                if_damped(tr, bad)

    def test_amplitude_zero_gives_zero_hertz(self):
        est = if_damped(notch_trace(1024), 1e-3)
        assert est.valid.all()
        assert est.frequency[0] == 0.0

    def test_tone_with_small_damping(self):
        est = if_damped(tone_trace(5.0, n=2000), 1e-3)
        assert np.max(np.abs(est.frequency - 5.0)) < 1e-4

    def test_negligible_where_amplitude_dominates(self):
        # amplitude 1 against damping 1e-4: relative shift is eps^2
        tr = tone_trace(5.0, n=2000)
        classical = if_classical(tr).frequency
        damped = if_damped(tr, 1e-4).frequency
        assert np.max(np.abs(damped - classical)) < 1e-6 * np.max(np.abs(classical))


class TestIfCsit:
    def test_tone_recovered_beyond_stated_tolerance(self):
        grid = UniformGrid(0.0, 1.0, 2000)
        tr = analytic_signal(Series(grid, np.cos(TWO_PI * 5.0 * grid.nodes)))
        est = if_csit(tr, default_if_params(grid.dx))
        assert est.valid.all()
        assert np.max(np.abs(est.frequency - 5.0)) < 1e-2
        # the estimator is exact on tones up to FFT roundoff
        assert np.max(np.abs(est.frequency - 5.0)) < 1e-6

    def test_chirp_interior_within_half_hertz(self):
        grid = UniformGrid(0.0, 1.0, 2500)
        tr = analytic_signal(chirp(20.0, 20.0, grid))
        est = if_csit(tr, default_if_params(grid.dx))
        interior = edge_mask(2500, 0.05)
        err = np.abs(est.frequency - (20.0 + 20.0 * grid.nodes))
        assert np.max(err[interior]) < 0.5

    def test_coarse_chirp_beats_classical(self):
        grid = UniformGrid(0.0, 1.0, 300)
        tr = analytic_signal(chirp(20.0, 20.0, grid))
        truth = 20.0 + 20.0 * grid.nodes
        interior = edge_mask(300, 0.05)
        err_csit = np.abs(if_csit(tr, default_if_params(grid.dx)).frequency - truth)
        err_classical = np.abs(if_classical(tr).frequency - truth)
        assert np.max(err_csit[interior]) < np.nanmax(err_classical[interior])

    def test_finite_at_exact_amplitude_zero(self):
        tr = notch_trace(1024)
        est = if_csit(tr, default_if_params(tr.grid.dx))
        assert est.valid.all()
        assert np.all(np.isfinite(est.frequency))

    def test_enveloped_chirp_stays_bounded(self):
        # one float-exact amplitude zero at the window edge; the classical
        # ratio is flagged there while the complex-step average is not
        x, y = enveloped_chirp_trace(2500)
        grid = UniformGrid(0.0, 1.0, len(x))
        tr = AnalyticTrace(Series(grid, x), Series(grid, y))
        classical = if_classical(tr)
        assert np.sum(~classical.valid) >= 1
        est = if_csit(tr, default_if_params(tr.grid.dx))
        assert est.valid.all()
        assert np.max(np.abs(est.frequency)) < 10.0 * 40.0

    def test_growth_guard_propagates(self):
        tr = tone_trace(3.0, n=256)
        p = CsitParams(eta_half_width=0.1, tau_max=10.0)
        with pytest.raises(ValueError, match="too large"):
            if_csit(tr, p)

    def test_growth_limit_holds_tau_max_as_the_transform_does(self):
        # midpoint nodes end at 0.90625*Z, so the largest node times max|k|
        # is 640.7 while Z*max|k| is 707: the estimator refuses the
        # rectangle with the transform's own error, not only past its nodes
        tr = tone_trace(3.0, n=256)
        p = CsitParams(0.001, 1.01 * 700.0 / (256 * np.pi), n_tau=4, rule="midpoint")
        assert np.max(p.tau_nodes_weights()[0]) * 256 * np.pi == pytest.approx(640.7, abs=0.05)
        with pytest.raises(ValueError) as from_if_csit:
            if_csit(tr, p)
        with pytest.raises(ValueError) as from_transform:
            csit_quadrature(tr.x, p)
        assert str(from_if_csit.value) == str(from_transform.value) == (
            "continuation step too large: tau_max 0.879082 times wavenumber 804.248 exceeds 700")

    def test_overflowing_continuation_is_refused(self):
        # within the growth limit, but exp(690) times a 1e100 trace overflows
        grid = UniformGrid(0.0, 1.0, 256)
        tr = analytic_signal(Series(grid, 1e100 * np.cos(TWO_PI * 3.0 * grid.nodes)))
        p = CsitParams(eta_half_width=0.1, tau_max=690.0 / (256 * np.pi), n_tau=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                if_csit(tr, p)
        assert str(refused.value) == ("series too large (peak |value| 1e+100): "
                                      "its continuation off the real axis overflows float64")


# quadrature node layouts (n_eta, n_tau, rule) of the oracle tests
NODE_LAYOUTS = [(1, 1, "trapezoid"), (4, 4, "trapezoid"), (6, 5, "trapezoid"),
                (4, 4, "midpoint"), (6, 5, "midpoint")]


def oracle_trace(kind: str, n: int) -> AnalyticTrace:
    """A trace with an exact amplitude zero (notch, enveloped chirp) or
    without one (chirp), the chirps sweeping n/10 Hz from n/10 Hz."""
    if kind == "notch":
        return notch_trace(n)
    grid = UniformGrid(0.0, 1.0, n)
    if kind == "chirp":
        return analytic_signal(chirp(0.1 * n, 0.1 * n, grid))
    x, y = enveloped_chirp_trace(n, 0.1 * n, 0.1 * n)
    return AnalyticTrace(Series(grid, x), Series(grid, y))


def node_loop(tr: AnalyticTrace, p: CsitParams, integrand=_imag_arctan_ratio):
    etas, w_eta = p.eta_nodes_weights()
    taus, w_tau = p.tau_nodes_weights()
    return if_csit_loop(tr.x.values, tr.y.values, tr.grid.length, etas, w_eta, taus, w_tau,
                        p.normalization, integrand)


class TestIfCsitAgainstNodeLoop:
    """``if_csit`` continues a whole eta row of nodes per inverse FFT; the
    reference continues one node at a time with its own FFT pair and
    patches one sample at a time.  Given the package's integrand, the two
    agree bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["notch", "enveloped", "chirp"]),
        n=st.integers(8, 96),
        layout=st.sampled_from(NODE_LAYOUTS),
        h_dx=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
        log_z_dx=st.floats(-2.0, 2.25),
        cut=st.floats(1e-3, 0.9),
    )
    @example(kind="enveloped", n=9, layout=(4, 4, "trapezoid"), h_dx=1.0, log_z_dx=1.5, cut=0.01)
    @example(kind="enveloped", n=11, layout=(6, 5, "midpoint"), h_dx=1.0, log_z_dx=2.25, cut=0.25)
    def test_matches_node_loop_bit_for_bit(self, kind, n, layout, h_dx, log_z_dx, cut):
        # extents in samples: max|k|*Z reaches about 560 of the growth limit 700
        tr = oracle_trace(kind, n)
        n_eta, n_tau, rule = layout
        z = 10.0**log_z_dx * tr.grid.dx
        p = CsitParams(eta_half_width=h_dx * tr.grid.dx, tau_max=z, tau_min=cut * z,
                       n_eta=n_eta, n_tau=n_tau, rule=rule)
        est = if_csit(tr, p)
        freq, valid = node_loop(tr, p)
        assert np.array_equal(est.valid, valid)
        assert np.array_equal(est.frequency, freq)

    @pytest.mark.parametrize("z_dx, cut, patched", [(30.0, 0.01, True), (150.0, 0.25, False)],
                             ids=["patched", "invalid"])
    @pytest.mark.parametrize("layout", NODE_LAYOUTS, ids=lambda v: "x".join(map(str, v)))
    def test_flagged_nodes_patched_as_in_the_loop(self, layout, z_dx, cut, patched):
        # far from the real axis the continued enveloped chirp of odd
        # length sits on arctangent branch points, one tau row at a time:
        # the flagged rows borrow a clean row, or, with none left, every
        # sample is invalid
        tr = oracle_trace("enveloped", 9)
        n_eta, n_tau, rule = layout
        z = z_dx * tr.grid.dx
        p = CsitParams(eta_half_width=tr.grid.dx, tau_max=z, tau_min=cut * z,
                       n_eta=n_eta, n_tau=n_tau, rule=rule)
        flags = []

        def recording(a, b):
            value, flag = _imag_arctan_ratio(a, b)
            flags.append(flag)
            return value, flag

        freq, valid = node_loop(tr, p, recording)
        assert np.any(flags)
        if patched and n_eta * n_tau > 1:
            assert valid.all()
        else:
            assert not valid.any()
        est = if_csit(tr, p)
        assert np.array_equal(est.valid, valid)
        assert np.array_equal(est.frequency, freq)

    @pytest.mark.parametrize("kind", ["notch", "enveloped", "chirp"])
    def test_two_branch_integrand_agrees(self, kind):
        # the loop on its own arctangent form of the integrand, off the
        # branch points: equal masks, frequencies to rounding
        tr = oracle_trace(kind, 257)
        p = CsitParams(eta_half_width=tr.grid.dx, tau_max=tr.grid.dx, tau_min=0.01 * tr.grid.dx,
                       n_eta=6, n_tau=5, rule="midpoint")
        est = if_csit(tr, p)
        freq, valid = node_loop(tr, p, imag_arctan_two_branch)
        assert np.array_equal(est.valid, valid)
        assert np.allclose(est.frequency, freq, rtol=1e-9, atol=1e-9 * np.max(np.abs(freq)))


class TestIfCsitWorkArrays:
    """``if_csit`` writes every eta row into work arrays that are views of
    one allocation per call."""

    def test_work_arrays_are_disjoint_aligned_views(self):
        specs = [((2, 3, 5), np.bool_), ((3, 5), np.complex128), ((3, 5), np.float64), ((7,), np.bool_)]
        arrays = _work_arrays(*specs)
        assert [(a.shape, a.dtype) for a in arrays] == [(shape, np.dtype(dt)) for shape, dt in specs]
        assert all(a.flags.c_contiguous and a.flags.aligned for a in arrays)
        assert all((a.ctypes.data - arrays[0].ctypes.data) % 64 == 0 for a in arrays)
        for i, a in enumerate(arrays):
            a.view(np.uint8)[...] = i
        assert all((a.view(np.uint8) == i).all() for i, a in enumerate(arrays))

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's allocator on Linux")
    def test_repeated_call_faults_in_no_fresh_pages(self):
        # one block for the work arrays stays mapped between calls; a dozen
        # arrays made per eta row took 545 to 661 minor faults a call
        import resource

        grid = UniformGrid(0.0, 1.0, 2500)
        tr = analytic_signal(chirp(20.0, 20.0, grid))
        p = default_if_params(grid.dx)
        for _ in range(3):
            if_csit(tr, p)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for _ in range(10):
            if_csit(tr, p)
        assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 10 * 50


class TestImagArctan:
    def test_log_identity(self):
        # Im[arctan(B/A)] = 0.5*ln(|A - iB| / |A + iB|), principal branch
        rng = np.random.default_rng(11)
        a = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        b = 3.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        values, flags = _imag_arctan_ratio(a, b)
        expected = 0.5 * (np.log(np.abs(a - 1j * b)) - np.log(np.abs(a + 1j * b)))
        assert not flags.any()
        assert np.allclose(values, expected, atol=1e-12)

    def test_large_ratio_stays_accurate(self):
        a = np.array([1e-12 + 0j])
        b = np.array([1.0 + 0.5j])
        values, flags = _imag_arctan_ratio(a, b)
        expected = 0.5 * (np.log(np.abs(a - 1j * b)) - np.log(np.abs(a + 1j * b)))
        assert not flags.any()
        assert values[0] == pytest.approx(expected[0], abs=1e-14)

    def test_double_zero_contributes_nothing(self):
        values, flags = _imag_arctan_ratio(
            np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)
        )
        assert np.all(values == 0.0)
        assert not flags.any()

    def test_branch_point_is_flagged(self):
        a = np.array([1.0 + 0j])
        b = np.array([1j])
        _, flags = _imag_arctan_ratio(a, b)
        assert flags.all()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["random", "near", "on", "zero_a", "zero_b", "zero_both"]),
                st.floats(-300.0, 300.0),
                st.floats(-300.0, 300.0),
                st.floats(-np.pi, np.pi),
                st.floats(-np.pi, np.pi),
                st.floats(-17.0, 0.0),
                st.sampled_from([1.0, -1.0]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @example([("on", 0.0, 0.0, 0.3, 0.0, -17.0, 1.0), ("zero_both", 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)])
    @example([("random", -300.0, 300.0, 1.0, -2.0, 0.0, 1.0), ("random", 300.0, -300.0, 0.5, 2.5, 0.0, 1.0)])
    def test_matches_two_branch_arctan(self, draws):
        # A with magnitude 1e-300..1e300; B independent, near or on the
        # branch points B = +-iA, or exact zeros
        a, b = [], []
        for kind, exp_a, exp_b, arg_a, arg_b, exp_delta, sign in draws:
            av = 10.0**exp_a * np.exp(1j * arg_a)
            bv = 10.0**exp_b * np.exp(1j * arg_b)
            if kind == "near":
                bv = sign * 1j * av * (1.0 + 10.0**exp_delta * np.exp(1j * arg_b))
            elif kind == "on":
                bv = sign * 1j * av
            a.append(0.0 if kind in ("zero_a", "zero_both") else av)
            b.append(0.0 if kind in ("zero_b", "zero_both") else bv)
        a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
        values, flags = _imag_arctan_ratio(a, b)
        ref_values, ref_flags = imag_arctan_two_branch(a, b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the flag quantity |1 + (b/a)^2|; the two-branch form loses about
            # two digits to cancellation near the threshold, so flags may
            # differ within 10% of it
            ratio = np.abs(a + 1j * b) / np.abs(a) * (np.abs(a - 1j * b) / np.abs(a))
            # the two-branch form rounds b/a first: its error is up to about
            # eps*|w|/|1 + w^2| with w = b/a
            top = np.maximum(np.abs(a), np.abs(b))
            cond = (np.abs(a) / top) * (np.abs(b) / top) / (
                (np.abs(a + 1j * b) / top) * (np.abs(a - 1j * b) / top)
            )
            band = np.abs(ratio / 1e-14 - 1.0) <= 0.1
        assert np.array_equal(flags[~band], ref_flags[~band])
        assert not flags[(a == 0) & (b == 0)].any()
        clean = ~flags & ~ref_flags
        ref, new, cond = ref_values[clean], values[clean], np.nan_to_num(cond[clean])
        tol = 1e-12 * np.maximum(1.0, np.abs(ref)) + 4.0 * np.finfo(float).eps * cond
        assert np.all(np.abs(new - ref) <= tol)

    def test_substitution_prefers_same_tau(self):
        integrand = np.arange(12, dtype=float).reshape(3, 4, 1)
        flagged = np.zeros((3, 4, 1), dtype=bool)
        flagged[1, 2] = True
        flagged[1, 1] = True
        # from the flagged node (1, 2): the same-tau eta neighbor (0, 2)
        # wins over the tau neighbor (1, 3) because tau distance is
        # minimized first, keeping the 1/tau scale of the integrand
        _patch_flagged(integrand, flagged)
        assert integrand[1, 2, 0] == 2.0  # the value of node (0, 2)

    def test_tie_goes_to_the_lower_tau_offset_first(self):
        # from node (1, 1) every node one step off in tau or eta, and the
        # diagonal (-1, -1), is flagged; (+1, -1) and (-1, +1) then tie on
        # both distances, and the lower tau offset wins before the eta offset
        integrand = np.arange(9, dtype=float).reshape(3, 3, 1)
        flagged = np.zeros((3, 3, 1), dtype=bool)
        flagged[1, :] = flagged[:, 1] = flagged[0, 0] = True
        _patch_flagged(integrand, flagged)
        assert integrand[1, 1, 0] == 6.0  # the value of node (2, 0)

    def test_all_flagged_sample_falls_back_to_zero(self):
        integrand = np.ones((2, 2, 3))
        flagged = np.zeros((2, 2, 3), dtype=bool)
        flagged[:, :, 1] = True
        valid = _patch_flagged(integrand, flagged)
        assert valid.tolist() == [True, False, True]
        assert np.all(integrand[:, :, 1] == 0.0)

    def test_partial_flag_borrows_neighbor_value(self):
        integrand = np.arange(12, dtype=float).reshape(2, 2, 3)
        flagged = np.zeros((2, 2, 3), dtype=bool)
        flagged[0, 0, 2] = True
        valid = _patch_flagged(integrand, flagged)
        assert valid.all()
        # nearest clean node of (0, 0) is (1, 0): same tau, next eta row
        assert integrand[0, 0, 2] == integrand[1, 0, 2]

    @settings(max_examples=300, deadline=None)
    @given(
        n_eta=st.integers(1, 5),
        n_tau=st.integers(1, 5),
        n=st.integers(1, 6),
        density=st.floats(0.0, 1.0),
        all_flagged=st.lists(st.integers(0, 5), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_patching_matches_loop_reference(self, n_eta, n_tau, n, density, all_flagged, seed):
        rng = np.random.default_rng(seed)
        flagged = rng.random((n_eta, n_tau, n)) < density
        flagged[:, :, [j for j in all_flagged if j < n]] = True
        integrand = rng.standard_normal((n_eta, n_tau, n))
        expected = integrand.copy()
        expected_valid = patch_flagged_loop(expected, flagged)
        valid = _patch_flagged(integrand, flagged)
        assert np.array_equal(valid, expected_valid)
        assert integrand.tobytes() == expected.tobytes()


class TestChirp:
    def test_starts_at_one(self):
        grid = UniformGrid(0.0, 1.0, 300)
        assert chirp(20.0, 20.0, grid).values[0] == pytest.approx(1.0)

    def test_zero_rate_is_pure_tone(self):
        grid = UniformGrid(0.0, 1.0, 400)
        s = chirp(7.0, 0.0, grid)
        assert np.allclose(
            s.values, np.cos(TWO_PI * 7.0 * grid.nodes), atol=1e-14
        )

    def test_samples_match_formula(self):
        grid = UniformGrid(0.0, 1.0, 250)
        t = grid.nodes
        expected = np.cos(TWO_PI * (20.0 * t + 10.0 * t * t))
        assert np.array_equal(chirp(20.0, 20.0, grid).values, expected)

    def test_midpoint_frequency(self):
        # instantaneous frequency f0 + rate*t reaches 30 Hz at t = 0.5
        grid = UniformGrid(0.0, 1.0, 2500)
        est = if_classical(analytic_signal(chirp(20.0, 20.0, grid)))
        mid = 2500 // 2
        assert est.frequency[mid] == pytest.approx(30.0, abs=0.2)


class TestEdgeMask:
    def test_five_percent_trim(self):
        mask = edge_mask(100, 0.05)
        assert not mask[:5].any() and not mask[-5:].any()
        assert mask[5:-5].all()

    def test_rounds_trim_up(self):
        mask = edge_mask(30, 0.05)
        assert np.sum(~mask) == 4

    def test_zero_fraction_keeps_everything(self):
        assert edge_mask(10, 0.0).all()

    def test_rejects_bad_fraction(self):
        for bad in (-0.1, 0.5, 0.9):
            with pytest.raises(ValueError, match="fraction"):
                edge_mask(10, bad)
