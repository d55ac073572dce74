"""Grid, series, and transform-convention tests.

The spectral convention (forward transform is a plain sum against
exp(-i k x_j) in absolute coordinates, inverse carries the 1/n) is pinned
here against an O(n^2) reference summation so it cannot drift silently.
"""

import numpy as np
import pytest

from csit.grid import UniformGrid, Series, Spectrum, fft_forward, fft_inverse, wavenumbers

from reference import dft_direct


class TestUniformGrid:
    def test_basic_geometry(self):
        g = UniformGrid(x0=0.0, length=2.0 * np.pi, n=8)
        assert g.dx == pytest.approx(np.pi / 4.0)
        np.testing.assert_allclose(g.nodes, np.arange(8) * np.pi / 4.0)

    def test_offset_origin(self):
        g = UniformGrid(x0=-1.5, length=3.0, n=6)
        assert g.nodes[0] == -1.5
        assert g.nodes[-1] == pytest.approx(-1.5 + 5 * 0.5)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            UniformGrid(x0=0.0, length=1.0, n=1)
        with pytest.raises(ValueError):
            UniformGrid(x0=0.0, length=0.0, n=8)
        with pytest.raises(ValueError):
            UniformGrid(x0=0.0, length=-2.0, n=8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            UniformGrid(x0=np.nan, length=1.0, n=8)
        with pytest.raises(ValueError):
            UniformGrid(x0=0.0, length=np.inf, n=8)


class TestWavenumbers:
    def test_values_and_ordering(self):
        g = UniformGrid(x0=0.0, length=2.0 * np.pi, n=8)
        k = wavenumbers(g)
        np.testing.assert_allclose(k[:5], [0.0, 1.0, 2.0, 3.0, -4.0])
        np.testing.assert_allclose(k[5:], [-3.0, -2.0, -1.0])

    def test_even_nyquist_is_negative(self):
        # even n stores the Nyquist coefficient on the negative branch
        g = UniformGrid(x0=0.0, length=1.0, n=16)
        k = wavenumbers(g)
        assert k[8] == pytest.approx(-2.0 * np.pi * 8.0)
        assert np.min(k) == k[8]


class TestSeries:
    def test_coerces_to_float64(self):
        g = UniformGrid(x0=0.0, length=1.0, n=4)
        s = Series(g, [1, 2, 3, 4])
        assert s.values.dtype == np.float64

    def test_complex_preserved(self):
        g = UniformGrid(x0=0.0, length=1.0, n=4)
        s = Series(g, np.array([1j, 0, 0, 0]))
        assert s.values.dtype == np.complex128
        assert not s.is_real

    def test_values_are_read_only(self):
        g = UniformGrid(x0=0.0, length=1.0, n=4)
        s = Series(g, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            s.values[0] = 99.0

    def test_rejects_non_finite(self):
        g = UniformGrid(x0=0.0, length=1.0, n=4)
        with pytest.raises(ValueError):
            Series(g, [1.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            Series(g, [1.0, np.inf, 0.0, 0.0])

    def test_rejects_length_mismatch(self):
        g = UniformGrid(x0=0.0, length=1.0, n=4)
        with pytest.raises(ValueError):
            Series(g, [1.0, 2.0])

    @pytest.mark.parametrize("values", [np.zeros((4, 1)), np.zeros((2, 2)), np.zeros((1, 4), complex)])
    def test_rejects_values_that_are_not_one_dimensional(self, values):
        with pytest.raises(ValueError, match="series values must be one-dimensional"):
            Series(UniformGrid(x0=0.0, length=1.0, n=4), values)


class TestTransformConvention:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        g = UniformGrid(x0=-3.0, length=11.0, n=64)
        s = Series(g, rng.standard_normal(64))
        spec = fft_forward(s)
        ref = dft_direct(s.values, g.x0, g.length)
        np.testing.assert_allclose(spec.coeffs, ref, atol=1e-10)

    def test_pure_mode_lands_on_single_coefficient(self):
        # absolute coordinates: exp(i k x) transforms to n at k even when
        # the grid does not start at the origin
        g = UniformGrid(x0=2.0, length=2.0 * np.pi, n=32)
        k3 = 3.0
        s = Series(g, np.exp(1j * k3 * g.nodes))
        spec = fft_forward(s)
        idx = np.argmin(np.abs(spec.wavenumbers - k3))
        assert abs(spec.coeffs[idx] - 32.0) < 1e-10
        rest = np.delete(np.abs(spec.coeffs), idx)
        assert np.max(rest) < 1e-10

    def test_roundtrip_real(self):
        rng = np.random.default_rng(5)
        g = UniformGrid(x0=0.25, length=4.0, n=128)
        s = Series(g, rng.standard_normal(128))
        back = fft_inverse(fft_forward(s), real=True)
        assert np.max(np.abs(back.values - s.values)) < 1e-12

    def test_roundtrip_complex(self):
        rng = np.random.default_rng(6)
        g = UniformGrid(x0=-1.0, length=3.0, n=96)
        s = Series(g, rng.standard_normal(96) + 1j * rng.standard_normal(96))
        back = fft_inverse(fft_forward(s))
        assert np.max(np.abs(back.values - s.values)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(13)
        g = UniformGrid(x0=0.0, length=5.0, n=200)
        v = rng.standard_normal(200)
        s = Series(g, v)
        spec = fft_forward(s)
        phys = np.sum(np.abs(v) ** 2)
        spectral = np.sum(np.abs(spec.coeffs) ** 2) / g.n
        assert abs(phys - spectral) / phys < 1e-10

    def test_real_input_conjugate_symmetry(self):
        rng = np.random.default_rng(17)
        g = UniformGrid(x0=0.0, length=1.0, n=33)
        s = Series(g, rng.standard_normal(33))
        spec = fft_forward(s)
        # F(-k) = conj(F(k)) pairs indices j and n-j on an odd grid
        for j in range(1, 17):
            assert spec.coeffs[33 - j] == pytest.approx(np.conj(spec.coeffs[j]), abs=1e-10)

    def test_origin_shift_is_a_phase(self):
        rng = np.random.default_rng(19)
        v = rng.standard_normal(48)
        a = Series(UniformGrid(x0=0.0, length=2.0, n=48), v)
        b = Series(UniformGrid(x0=0.7, length=2.0, n=48), v)
        ca = fft_forward(a).coeffs
        cb = fft_forward(b).coeffs
        k = wavenumbers(a.grid)
        np.testing.assert_allclose(cb, ca * np.exp(-1j * k * 0.7), atol=1e-9)


class TestSpectrum:
    def test_wavenumbers_property(self):
        g = UniformGrid(x0=0.0, length=2.0 * np.pi, n=16)
        spec = Spectrum(g, np.zeros(16, dtype=np.complex128))
        np.testing.assert_allclose(spec.wavenumbers, wavenumbers(g))

    def test_rejects_length_mismatch(self):
        g = UniformGrid(x0=0.0, length=1.0, n=8)
        with pytest.raises(ValueError):
            Spectrum(g, np.zeros(7, dtype=np.complex128))
