"""Tests for spectral analytic continuation against direct evaluation.

For band-limited periodic functions the truncated Fourier sum IS the
function, so evaluating the series at x + eta + i*tau must agree with
the multiplier route to rounding.  Each series is continued through the
kernel the frequency estimator runs: the range rule, one forward FFT,
one decay table, the multiplier of one eta and ``_continue_rows``.  That
cross-check is the backbone here; the rest guards the range rule, the
overflow policy and the bits of the factored multiplier.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csit.continuation import (
    _EXP_ARG_LIMIT,
    _check_range,
    _continue_rows,
    _decay,
    _multiplier,
)
from csit.grid import UniformGrid, Series, wavenumbers
from reference import continued_direct


def continued(series: Series, eta: float, tau: float) -> np.ndarray:
    """The samples of ``series`` continued to ``x + eta + i*tau``."""
    k = wavenumbers(series.grid)
    _check_range(k, 0.0, tau)
    mult = _multiplier(k, eta, _decay(k, np.array([tau])))
    (rows,) = _continue_rows([np.fft.fft(series.values)], mult)
    return rows[0]


def _band_limited(seed: int, n: int, max_mode: int):
    """Random real trigonometric polynomial and its callable."""
    rng = np.random.default_rng(seed)
    modes = rng.integers(1, max_mode + 1, size=4)
    amps = rng.standard_normal(4)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=4)

    def f(z):
        out = np.zeros_like(np.asarray(z, dtype=np.complex128))
        for m, a, p in zip(modes, amps, phases):
            out = out + a * np.sin(m * z + p)
        return out

    grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n)
    series = Series(grid, f(grid.nodes).real)
    return f, grid, series


class TestAgainstDirectEvaluation:
    def test_band_limited_agreement(self):
        f, grid, series = _band_limited(seed=23, n=128, max_mode=10)
        spectral = continued(series, 0.013, 0.004)
        direct = continued_direct(f, grid.nodes, 0.013, 0.004)
        assert np.max(np.abs(spectral - direct)) < 1e-12

    def test_pure_eta_is_translation(self):
        f, grid, series = _band_limited(seed=29, n=96, max_mode=8)
        eta = 0.37
        shifted = continued(series, eta, 0.0)
        expected = f(grid.nodes + eta)
        assert np.max(np.abs(shifted - expected)) < 1e-12

    def test_zero_shift_is_identity(self):
        _, _, series = _band_limited(seed=31, n=64, max_mode=6)
        out = continued(series, 0.0, 0.0)
        assert np.max(np.abs(out - series.values)) < 1e-13

    def test_single_mode_closed_form(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        series = Series(grid, np.sin(3.0 * grid.nodes))
        out = continued(series, 0.05, 0.02)
        z = grid.nodes + 0.05 + 0.02j
        np.testing.assert_allclose(out, np.sin(3.0 * z), atol=1e-12)


class TestTrigonometricPolynomials:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 48),
        x0=st.floats(-5.0, 5.0),
        length=st.floats(0.5, 10.0),
        real=st.booleans(),
        eta=st.floats(-1.0, 1.0),
        reach=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_closed_form(self, n, x0, length, real, eta, reach, seed):
        """Distinct modes below Nyquist, real (cosines) or complex
        (exponentials) samples, any origin, odd or even n, and a shift
        with max|k|*tau = reach <= 3 over the grid's wavenumbers."""
        rng = np.random.default_rng(seed)
        top = (n - 1) // 2
        pool = np.arange(0 if real else -top, top + 1)
        modes = rng.choice(pool, size=min(4, pool.size), replace=False)
        k = 2.0 * np.pi * modes / length
        amps = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)

        def f(z):
            z = np.asarray(z, dtype=np.complex128)[..., None]
            if real:
                return np.sum(np.abs(amps) * np.cos(k * z + np.angle(amps)), axis=-1)
            return np.sum(amps * np.exp(1j * k * z), axis=-1)

        grid = UniformGrid(x0=x0, length=length, n=n)
        samples = f(grid.nodes)
        series = Series(grid, samples.real if real else samples)
        k_max = np.max(np.abs(wavenumbers(grid)))
        eta, tau = eta * length, reach / k_max
        spectral = continued(series, eta, tau)
        direct = continued_direct(f, grid.nodes, eta, tau)
        assert np.max(np.abs(spectral - direct)) <= 1e-11 * np.max(np.abs(direct))


class TestLinearity:
    def test_complex_scalar_linearity(self):
        rng = np.random.default_rng(37)
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        a = Series(grid, rng.standard_normal(64))
        b = Series(grid, rng.standard_normal(64))
        alpha = 1.3 - 0.7j
        combo = Series(grid, alpha * a.values + b.values)
        lhs = continued(combo, 0.01, 0.005)
        rhs = alpha * continued(a, 0.01, 0.005) + continued(b, 0.01, 0.005)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_complex_input_handled_partwise(self):
        rng = np.random.default_rng(41)
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=64)
        re = rng.standard_normal(64)
        im = rng.standard_normal(64)
        full = continued(Series(grid, re + 1j * im), 0.02, 0.01)
        parts = continued(Series(grid, re), 0.02, 0.01) + 1j * continued(Series(grid, im), 0.02, 0.01)
        assert np.max(np.abs(full - parts)) < 1e-12


class TestGrowthGuard:
    def test_large_tau_raises(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=256)
        series = Series(grid, np.sin(grid.nodes))
        # tau * k_max = 6 * 128 well past the exp argument limit; the message
        # is the range rule of every spectral kernel
        with pytest.raises(ValueError) as refused:
            continued(series, 0.0, 6.0)
        assert str(refused.value) == ("continuation step too large: tau_max 6 times "
                                      "wavenumber 128 exceeds 700")

    def test_overflowing_continuation_is_one_error(self):
        # max|k|*tau = 32*pi is within the limit, but exp(100.5) times a 1e300
        # series overflows: one ValueError naming the peak, no numpy warning
        grid = UniformGrid(x0=0.0, length=1.0, n=64)
        series = Series(grid, 1e300 * np.sin(6.0 * np.pi * grid.nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                continued(series, 0.0, 0.5)
        assert str(refused.value) == ("series too large (peak |value| 1e+300): "
                                      "its continuation off the real axis overflows float64")

    def test_moderate_tau_passes(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=256)
        series = Series(grid, np.sin(grid.nodes))
        out = continued(series, 0.0, 1.0)
        assert np.all(np.isfinite(out))


# why the factored multiplier can equal the complex exponential bit for bit
CEXP_ASSUMPTION = (
    "decay * cos and decay * sin differ from np.exp(1j*k*eta - k*tau): this "
    "platform's complex exp does not return exp(x)*cos(y), exp(x)*sin(y) "
    "rounded once each for |x| <= 700"
)


def _assert_factored_multiplier(k, eta, taus):
    expected = np.exp(1j * k * eta - k * taus[:, None])
    decay = _decay(k, taus)
    assert decay.dtype == np.float64 and decay.flags.c_contiguous
    got = _multiplier(k, eta, decay)
    # compared as float64 parts, so the signs of zeros must match as well
    assert np.array_equal(got.view(np.float64), expected.view(np.float64)), CEXP_ASSUMPTION
    return got


class TestFactoredMultiplier:
    """The decay table times one rotation per eta equals the complex
    exponential that defines the multiplier, bit for bit."""

    @pytest.mark.parametrize("n", [8, 9, 2500, 4097])
    @pytest.mark.parametrize("eta_samples", [-1.5, 0.0, 0.75])
    def test_equals_the_complex_exponential(self, n, eta_samples):
        grid = UniformGrid(x0=0.0, length=1.0, n=n)
        k = wavenumbers(grid)
        tau_limit = _EXP_ARG_LIMIT / np.max(np.abs(k))
        rng = np.random.default_rng(n)
        taus = np.concatenate([[0.0], np.sort(rng.uniform(0.0, tau_limit, 5)), [tau_limit]])
        eta = eta_samples * grid.dx
        mult = _assert_factored_multiplier(k, eta, taus)
        # the k = 0 column is exactly one at every tau
        assert k[0] == 0.0 and np.all(mult[:, 0] == 1.0)
        # tau = 0 is the pure rotation and tau_limit reaches exp(+-700)
        assert np.array_equal(mult[0], np.exp(1j * k * eta))
        assert np.max(np.abs(mult[-1])) == pytest.approx(np.exp(_EXP_ARG_LIMIT))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 300),
        length=st.floats(0.01, 100.0),
        eta=st.floats(-3.0, 3.0),
        reaches=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_any_grid_and_shift(self, n, length, eta, reaches):
        """Odd and even n, any eta in +-3 samples, taus up to the growth limit."""
        grid = UniformGrid(x0=0.0, length=length, n=n)
        k = wavenumbers(grid)
        taus = np.array(reaches) * _EXP_ARG_LIMIT / np.max(np.abs(k))
        _assert_factored_multiplier(k, eta * grid.dx, taus)

    def test_rows_invert_the_multiplied_spectra(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=33)
        k = wavenumbers(grid)
        rng = np.random.default_rng(43)
        spectra = [np.fft.fft(rng.standard_normal(33)) for _ in range(2)]
        taus = np.array([0.0, 0.01, 0.2])
        rows = _continue_rows(spectra, _multiplier(k, -0.3, _decay(k, taus)))
        mult = np.exp(1j * k * -0.3 - k * taus[:, None])
        for got, coeffs in zip(rows, spectra):
            assert np.array_equal(got, np.fft.ifft(coeffs * mult))

    def test_rows_written_into_given_buffers(self):
        grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=34)
        k = wavenumbers(grid)
        rng = np.random.default_rng(44)
        spectra = [np.fft.fft(rng.standard_normal(34)) for _ in range(2)]
        decay = _decay(k, np.array([0.05, 0.3]))
        mult = _multiplier(k, 0.2, decay)
        given = np.full_like(mult, np.nan)
        assert _multiplier(k, 0.2, decay, given) is given
        assert np.array_equal(given.view(np.float64), mult.view(np.float64))
        out = [np.full_like(mult, np.nan) for _ in spectra]
        rows = _continue_rows(spectra, mult, out)
        assert all(got is buffer for got, buffer in zip(rows, out))
        for got, coeffs in zip(rows, spectra):
            assert np.array_equal(got.view(np.float64), np.fft.ifft(coeffs * mult).view(np.float64))
