"""Tests for the hyperbolic and trigonometric sine integrals.

Reference values are frozen from the series/adaptive-Simpson oracle in
``reference.py``, which shares no code with the package.  scipy's cephes
``shichi`` and ``sici``, which the package does not load, are the dense-grid
accuracy references.
"""

import math

import numpy as np
import pytest
from scipy.special import shichi, sici

from csit.special import shi, si, sinc_kernel

from reference import oracle_shi, oracle_si


class TestShi:
    def test_frozen_values(self):
        assert shi(0.1) == pytest.approx(0.10005557222505701, abs=1e-15)
        assert shi(1.0) == pytest.approx(1.0572508753757286, abs=1e-13)

    def test_matches_oracle_over_range(self):
        for z in (1e-8, 0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 10.0, 50.0, 200.0):
            ref = oracle_shi(z)
            assert abs(shi(z) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_odd(self):
        for z in (0.3, 1.0, 7.5):
            assert shi(-z) == pytest.approx(-shi(z), abs=1e-14)
        z = np.linspace(0.0, 713.0, 100_001)
        np.testing.assert_array_equal(shi(-z), -shi(z))

    @pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (10.0, 40.0), (40.0, 80.0), (80.0, 709.0)])
    def test_matches_cephes_on_a_dense_grid(self, lo, hi):
        # both sides of the switch from the power series to the asymptotic
        # one at 40; the series' error peaks in the 10-40 band
        z = np.linspace(lo, hi, 200_001)
        ref = shichi(z)[0]
        rel = np.abs(shi(z) - ref) / np.maximum(ref, np.finfo(float).tiny)
        assert rel.max() <= 4e-15

    def test_keeps_cephes_bits_for_small_arguments(self):
        # table1's one scalar and a grid below cephes' switch at 8
        assert shi(0.1) == shichi(0.1)[0]
        z = np.linspace(0.0, 8.0, 100_001)[:-1]
        np.testing.assert_array_equal(shi(z), shichi(z)[0])

    def test_finite_up_to_the_guard(self):
        # cephes' cosh(z)/z overflows past 710.48; e^(z/2)*e^(z/2)/(2z) does not
        z = np.linspace(710.49, 713.0, 101)
        out = shi(z)
        assert np.all(np.isfinite(out)) and np.all(np.diff(out) > 0.0)
        # log shi(z) = z - log(2z) + log(sum_k k!/z^k), to within an ulp of ~711
        series = sum(math.factorial(k) / z**k for k in range(1, 6))
        np.testing.assert_allclose(np.log(out), z - np.log(2.0 * z) + np.log1p(series), rtol=0.0, atol=5e-13)

    def test_zero(self):
        assert shi(0.0) == 0.0

    def test_nan(self):
        # a NaN takes no term of either series, which would never converge
        assert math.isnan(shi(math.nan))

    def test_array_input(self):
        z = np.array([0.1, 0.2, 0.4])
        out = shi(z)
        assert out.shape == (3,)
        np.testing.assert_allclose(out[0], shi(0.1), atol=1e-15)

    def test_scalar_returns_float(self):
        assert isinstance(shi(0.5), float)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            shi(750.0)


class TestSi:
    def test_frozen_values(self):
        assert si(math.pi) == pytest.approx(1.8519370519824658, abs=1e-13)
        assert si(1.0) == pytest.approx(0.946083070367183, abs=1e-13)

    def test_matches_oracle_over_range(self):
        for z in (1e-8, 0.01, 0.1, 1.0, 2.0, math.pi, 5.0, 10.0, 50.0):
            ref = oracle_si(z)
            assert abs(si(z) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_odd(self):
        for z in (0.3, 2.0, 9.1):
            assert si(-z) == pytest.approx(-si(z), abs=1e-14)
        z = np.linspace(0.0, 1e4, 100_001)
        np.testing.assert_array_equal(si(-z), -si(z))

    @pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (10.0, 1e4)])
    def test_matches_cephes_on_a_dense_grid(self, lo, hi):
        # the alternating series up to 4, the continued fraction above
        z = np.linspace(lo, hi, 200_001)
        assert np.max(np.abs(si(z) - sici(z)[0])) <= 1e-14

    def test_limits_and_nan(self):
        out = si(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == math.pi / 2.0 and out[1] == -math.pi / 2.0 and np.isnan(out[2])

    def test_bounded_and_converging(self):
        # si is bounded by its value at pi and tends to pi/2
        zs = np.linspace(0.1, 400.0, 1500)
        vals = si(zs)
        assert np.max(np.abs(vals)) <= si(math.pi) + 1e-12
        assert si(1e6) == pytest.approx(math.pi / 2.0, abs=1e-5)

    def test_array_input(self):
        out = si(np.array([0.5, 1.5]))
        assert out.shape == (2,)


class TestSincKernel:
    def test_unit_at_zero(self):
        assert sinc_kernel(0.0) == 1.0

    def test_frozen_value(self):
        assert sinc_kernel(0.5) == pytest.approx(0.958851077208406, abs=1e-14)

    def test_zeros_at_multiples_of_pi(self):
        for m in (1, 2, 3):
            assert abs(sinc_kernel(m * math.pi)) < 1e-15

    def test_even(self):
        assert sinc_kernel(-0.7) == pytest.approx(sinc_kernel(0.7), abs=1e-16)

    def test_array_input(self):
        w = np.array([0.0, 0.5, math.pi])
        out = sinc_kernel(w)
        assert out.shape == (3,)
        assert out[0] == 1.0
