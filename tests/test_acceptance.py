"""End-to-end acceptance checklist.

One test per numbered claim, run with ``pytest -v`` to get a one-line
verdict for each.  Every threshold is stated inline next to the
measured quantity it gates; the module asserts the claims exactly as
promised, so a failing line here means the promise is not met, not that
the test needs loosening.
"""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.integrate

from csit.advection import (
    SourceTimeFunction,
    dispersion_csit,
    dispersion_fd,
    parasitic_energy,
    pulse_centroid,
    pulse_speed,
    reference_config,
    run_advection,
)
from csit.cli import main
from csit.grid import Series, UniformGrid, fft_forward, fft_inverse
from csit.instfreq import (
    AnalyticTrace,
    analytic_signal,
    chirp,
    default_if_params,
    edge_mask,
    if_classical,
    if_csit,
)
from csit.operators import (
    CsitParams,
    complex_step_derivative,
    csit_quadrature,
    csit_quadrature_direct,
    csit_spectral,
    csit_symbol,
    table1_verify,
)
from csit.special import shi, si
from reference import enveloped_chirp_trace


@pytest.fixture(scope="module")
def advection_runs():
    """One reference-configuration run per scheme, snapshots at 2.5 s
    and at the final time (pulse has traveled 0.3 of the ring)."""
    runs = {}
    for scheme in ("csit", "fd", "pseudospectral"):
        cfg = reference_config(scheme=scheme)
        src = SourceTimeFunction(kind="gaussian_derivative", f0=cfg.f0)
        duration = cfg.n_t * cfg.dt
        runs[scheme] = run_advection(cfg, src, [2.5, duration])
    return runs


def advection_window(runs):
    """Common pulse window: final centroid of the transform run plus or
    minus four wavelengths."""
    cfg = reference_config()
    wavelength = cfg.c / cfg.f0
    center = pulse_centroid(runs["csit"][-1])
    return (center - 4.0 * wavelength, center + 4.0 * wavelength)


class TestAcceptance:
    def test_01_closed_form_table(self):
        """Five-row verification table matches its references to 1e-6."""
        report = table1_verify()
        detail = "; ".join(
            f"{row.name}: {row.max_deviation:.3e}" for row in report.rows
        )
        assert report.passed, f"rows exceeding 1e-6: {detail}"

    def test_02_error_bound_and_order(self):
        """|transform(sin) - cos| stays within 1.1x the second-order
        remainder bound on a 4x4 extent grid, and the H=Z error line has
        slope 2.0 +- 0.3."""
        xs = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
        extents = (0.05, 0.1, 0.15, 0.2)
        for H, Z in itertools.product(extents, extents):
            p = CsitParams(H, Z, tau_min=Z / 512.0, n_eta=128, n_tau=128)
            got = csit_quadrature_direct(np.sin, xs, p)
            err = np.max(np.abs(got - np.cos(xs)))
            bound = H**2 / 6.0 + Z**2 / 18.0
            assert err <= 1.1 * bound, (
                f"H={H} Z={Z}: error {err:.3e} above 1.1*bound {1.1*bound:.3e}"
            )
        errs = []
        for w in extents:
            p = CsitParams(w, w, tau_min=w / 512.0, n_eta=128, n_tau=128)
            got = csit_quadrature_direct(np.sin, xs, p)
            errs.append(np.max(np.abs(got - np.cos(xs))))
        slope = np.polyfit(np.log(extents), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3, f"convergence order {slope:.3f} outside 2.0 +- 0.3"

    def test_03_symbol_expansion(self):
        """Symbol over ik matches 1 - (kH)^2/6 + (kZ)^2/18 to 1e-6 while
        both kH and kZ stay below 0.05."""
        for H, Z in ((0.1, 0.1), (0.05, 0.02), (0.01, 0.1)):
            kmax = 0.05 / max(H, Z)
            k = np.linspace(kmax / 50.0, kmax, 50)
            ratio = csit_symbol(k, H, Z).imag / k
            expansion = 1.0 - (k * H) ** 2 / 6.0 + (k * Z) ** 2 / 18.0
            worst = np.max(np.abs(ratio - expansion))
            assert worst < 1e-6, f"H={H} Z={Z}: expansion gap {worst:.3e}"

    def test_04_quadrature_matches_spectral_route(self):
        """On a band-limited random series the quadrature route converges
        monotonically to the spectral route, ending below 1e-3."""
        n = 256
        rng = np.random.default_rng(20260822)
        coeffs = np.zeros(n, dtype=complex)
        for m in range(1, n // 8 + 1):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[m] = c
            coeffs[-m] = np.conj(c)
        coeffs[0] = rng.standard_normal()
        s = Series(UniformGrid(0.0, 1.0, n), np.fft.ifft(coeffs).real)
        H, Z = 0.05, 0.02
        ref = csit_spectral(s, H, Z)
        scale = np.max(np.abs(ref.values))
        errors = []
        for nodes in (16, 64, 256):
            p = CsitParams(H, Z, tau_min=Z / (4.0 * nodes), n_eta=nodes, n_tau=nodes)
            got = csit_quadrature(s, p)
            errors.append(np.max(np.abs(got.values - ref.values)) / scale)
        assert errors[0] > errors[1] > errors[2], f"not monotone: {errors}"
        assert errors[-1] < 1e-3, f"final relative error {errors[-1]:.3e} >= 1e-3"

    def test_05_logistic_interior_accuracy(self, tmp_path):
        """On the steep logistic the transform derivative beats the
        pseudospectral one in interior max relative error, midpoint
        exempted by 10 nodes; all four curves land in the CSV."""
        out = tmp_path / "logistic.csv"
        assert main(["derive", "--demo", "logistic", "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        for column in ("fd", "pseudospectral", "csit", "analytic"):
            assert column in data.dtype.names
        n = len(data["t"])
        midpoint = int(np.argmin(np.abs(data["t"] - 0.5)))
        exempt = np.abs(np.arange(n) - midpoint) <= 10
        err_csit = np.nanmax(np.where(exempt, np.nan, data["rel_err_csit"]))
        err_ps = np.nanmax(np.where(exempt, np.nan, data["rel_err_pseudospectral"]))
        assert err_csit < err_ps, (
            f"csit {err_csit:.3e} not below pseudospectral {err_ps:.3e}"
        )

    def test_06a_all_schemes_complete(self, advection_runs):
        """All three schemes reach the final time with finite fields."""
        for scheme, snaps in advection_runs.items():
            assert len(snaps) == 2
            assert np.all(np.isfinite(snaps[-1].u.values)), f"{scheme} not finite"

    def test_06b_parasitic_energy_ordering(self, advection_runs):
        """Transform scheme leaves less parasitic energy than centered
        differences and none beyond the pseudospectral scheme's floor.

        The pseudospectral scheme is the exact derivative of the
        interpolant, so its ratio (about 4e-27) is this experiment's own
        floor: it is set by the source switch-on, deterministic, and the
        same in long double.  On the periodic ring neither symbol removes
        energy, so the method promises no strict order between the two;
        the factor 10 means "same order of magnitude".  A scheme that
        carries a parasitic mode misses it by far (centered differences
        by 26 orders of magnitude)."""
        window = advection_window(advection_runs)
        pe = {
            scheme: parasitic_energy(snaps[-1], window)
            for scheme, snaps in advection_runs.items()
        }
        assert pe["csit"] < pe["fd"] and pe["csit"] <= 10.0 * pe["pseudospectral"], (
            f"csit {pe['csit']:.3e}, fd {pe['fd']:.3e}, "
            f"pseudospectral {pe['pseudospectral']:.3e}"
        )

    def test_06c_parasitic_energy_absolute(self, advection_runs):
        """Transform-scheme parasitic energy ratio stays below 0.05."""
        window = advection_window(advection_runs)
        pe = parasitic_energy(advection_runs["csit"][-1], window)
        assert pe < 0.05, f"parasitic ratio {pe:.3e} >= 0.05"

    def test_06d_pulse_speed(self, advection_runs):
        """Centroid tracking recovers the advection speed within 2%."""
        speed = pulse_speed(advection_runs["csit"])
        assert abs(speed - 900.0) / 900.0 < 0.02, f"speed {speed:.2f} m/s"

    def test_07_dispersion_curves(self):
        """Centered differences are exactly stationary at the grid
        checkerboard; the transform curve, normalized by ck, lives in
        (0, 1] and never increases with k."""
        cfg = reference_config()
        dx = cfg.dx
        assert dispersion_fd(np.pi / dx, cfg.c, dx) == 0.0
        k = np.linspace(np.pi / dx / 400.0, np.pi / dx, 400)
        ratio = dispersion_csit(
            k, cfg.c, cfg.csit.eta_half_width, cfg.csit.tau_max
        ) / (cfg.c * k)
        assert np.all(ratio > 0.0) and np.all(ratio <= 1.0), (
            f"ratio range [{ratio.min():.6f}, {ratio.max():.6f}]"
        )
        assert np.all(np.diff(ratio) <= 1e-14), "ratio not monotone nonincreasing"

    def test_08a_chirp_dense_grid(self):
        """With 2500 samples both estimators track 20 + 20t within
        0.5 Hz over the interior 90%."""
        grid = UniformGrid(0.0, 1.0, 2500)
        trace = analytic_signal(chirp(20.0, 20.0, grid))
        truth = 20.0 + 20.0 * grid.nodes
        keep = edge_mask(grid.n, 0.05)
        classical = if_classical(trace)
        est = if_csit(trace, default_if_params(grid.dx))
        err_classical = np.max(np.abs(classical.frequency[keep] - truth[keep]))
        err_csit = np.max(np.abs(est.frequency[keep] - truth[keep]))
        assert err_classical < 0.5, f"classical off by {err_classical:.3f} Hz"
        assert err_csit < 0.5, f"csit off by {err_csit:.3f} Hz"

    def test_08b_chirp_coarse_grid(self):
        """With 300 samples the transform estimator is strictly more
        accurate than the classical ratio on the interior."""
        grid = UniformGrid(0.0, 1.0, 300)
        trace = analytic_signal(chirp(20.0, 20.0, grid))
        truth = 20.0 + 20.0 * grid.nodes
        keep = edge_mask(grid.n, 0.05)
        err_classical = np.max(
            np.abs(if_classical(trace).frequency[keep] - truth[keep])
        )
        err_csit = np.max(
            np.abs(if_csit(trace, default_if_params(grid.dx)).frequency[keep] - truth[keep])
        )
        assert err_csit < err_classical, (
            f"csit {err_csit:.4f} Hz not below classical {err_classical:.4f} Hz"
        )

    def test_08c_enveloped_chirp(self):
        """Where the envelope pinches to zero the classical ratio flags
        nodes as indeterminate; the transform estimate stays finite and
        below ten times the largest true frequency everywhere."""
        x, y = enveloped_chirp_trace(2500)
        grid = UniformGrid(0.0, 1.0, len(x))
        trace = AnalyticTrace(Series(grid, x), Series(grid, y))
        classical = if_classical(trace)
        flagged = ~classical.valid
        assert np.any(flagged), "no flagged nodes at amplitude zeros"
        amplitude = trace.amplitude
        assert np.all(amplitude[flagged] == 0.0)
        est = if_csit(trace, default_if_params(trace.grid.dx))
        assert np.all(np.isfinite(est.frequency))
        bound = 10.0 * 40.0
        worst = np.max(np.abs(est.frequency))
        assert worst < bound, f"csit reaches {worst:.1f} Hz, bound {bound:.0f} Hz"

    def test_09_core_numerics(self):
        """Transform pipeline fundamentals: FFT round trip, Parseval,
        special functions, cancellation-free complex step."""
        rng = np.random.default_rng(99)
        s = Series(UniformGrid(0.0, 2.0, 256), rng.standard_normal(256))
        spec = fft_forward(s)
        back = fft_inverse(spec, real=True)
        assert np.max(np.abs(back.values - s.values)) < 1e-12
        lhs = np.sum(np.abs(s.values) ** 2)
        rhs = np.sum(np.abs(spec.coeffs) ** 2) / s.grid.n
        assert abs(lhs - rhs) / lhs < 1e-10
        for z in (0.1, 1.0, 5.0, 10.0):
            ref_shi = scipy.integrate.quad(lambda t: np.sinh(t) / t, 0.0, z)[0]
            ref_si = scipy.integrate.quad(lambda t: np.sin(t) / t, 0.0, z)[0]
            assert abs(shi(z) - ref_shi) < 1e-10 * max(1.0, abs(ref_shi))
            assert abs(si(z) - ref_si) < 1e-10
        assert complex_step_derivative(np.sin, 0.0, v=1e-200) == 1.0

    def test_10_manifest_replay_determinism(self, tmp_path):
        """Replaying any subcommand from its manifest reproduces the CSV
        byte for byte."""
        tone = tmp_path / "tone.csv"
        t = np.arange(64) / 64.0
        tone.write_text(
            "t,value\n"
            + "".join(
                f"{a:.17g},{np.sin(2*np.pi*3*a):.17g}\n" for a in t
            )
        )
        first = tmp_path / "first"
        first.mkdir()
        commands = {
            "transform.csv": ["transform", str(tone), "--H", "0.02", "--Z", "0.01"],
            "derive.csv": ["derive", "--demo", "logistic", "--n", "120"],
            "ifreq.csv": ["ifreq", "--demo", "chirp", "--n", "120"],
            "symbol.csv": ["symbol", "--samples", "50"],
            "table1.csv": ["table1"],
        }
        for name, argv in commands.items():
            out = first / name
            assert main([*argv, "--out", str(out)]) == 0
            replay_dir = tmp_path / ("replay_" + name)
            code = main(["replay", str(first / (name + ".manifest.json")),
                         "--out-dir", str(replay_dir)])
            assert code == 0
            assert (replay_dir / name).read_bytes() == out.read_bytes(), (
                f"{name} bytes differ on replay"
            )
