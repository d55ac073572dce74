"""Tests for the forced advection solver and its diagnostics.

The pulse-propagation runs here use the reference configuration (900 m/s,
10 km domain, 500 nodes, 1 Hz source, cfl 0.25) at full or reduced step
counts; measured thresholds follow the shipped calibration run.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csit import advection
from csit.advection import (
    AdvectionConfig,
    DivergenceError,
    SourceTimeFunction,
    WavefieldSnapshot,
    default_csit_params,
    dispersion_csit,
    dispersion_fd,
    parasitic_energy,
    pulse_centroid,
    pulse_speed,
    reference_config,
    run_advection,
)
from csit.grid import Series, UniformGrid
from csit.operators import CsitParams, _derivative, csit_quadrature, fd_centered, pseudospectral_derivative
from csit.special import shi


class TestSourceTimeFunction:
    def test_default_delay(self):
        src = SourceTimeFunction(f0=2.0)
        assert src.t_delay == pytest.approx(0.6)

    def test_unit_peak_amplitude(self):
        t = np.linspace(0.0, 3.0, 20001)
        for kind in ("gaussian_derivative", "ricker"):
            src = SourceTimeFunction(kind=kind, f0=1.0)
            assert np.max(np.abs(src(t))) == pytest.approx(1.0, abs=1e-6)

    def test_quiet_start(self):
        # the 1.2/f0 delay leaves the switch-on amplitude negligible
        src = SourceTimeFunction(f0=1.0)
        assert abs(src(0.0)) < 1e-10

    def test_gaussian_derivative_integrates_to_zero(self):
        src = SourceTimeFunction(f0=1.0)
        t = np.linspace(0.0, 5.0, 200001)
        assert abs(np.trapezoid(src(t), t)) < 1e-10

    def test_ricker_peaks_at_delay(self):
        src = SourceTimeFunction(kind="ricker", f0=1.5)
        assert src(src.t_delay) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceTimeFunction(kind="sine_burst")
        with pytest.raises(ValueError):
            SourceTimeFunction(f0=0.0)
        with pytest.raises(ValueError):
            SourceTimeFunction(f0=1.0, t_delay=-0.5)


class TestAdvectionConfig:
    def test_grid_quantities(self):
        cfg = reference_config()
        assert cfg.dx == pytest.approx(20.0)
        assert cfg.dt == pytest.approx(0.25 * 20.0 / 900.0)
        assert cfg.grid.n == 500

    def test_csit_defaults_filled_in(self):
        cfg = reference_config(scheme="csit")
        assert cfg.csit is not None
        assert cfg.csit.eta_half_width == pytest.approx(0.1 * cfg.dx)
        assert cfg.csit.tau_max == pytest.approx(0.0005 * cfg.dx)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdvectionConfig(c=0.0, L=1.0, x_s=0.5, f0=1.0, n_x=32)
        with pytest.raises(ValueError):
            AdvectionConfig(c=1.0, L=1.0, x_s=1.5, f0=1.0, n_x=32)
        with pytest.raises(ValueError):
            AdvectionConfig(c=1.0, L=1.0, x_s=0.5, f0=1.0, n_x=8)
        with pytest.raises(ValueError):
            AdvectionConfig(c=1.0, L=1.0, x_s=0.5, f0=1.0, n_x=32, cfl=0.0)
        with pytest.raises(ValueError):
            AdvectionConfig(c=1.0, L=1.0, x_s=0.5, f0=1.0, n_x=32, scheme="upwind")
        with pytest.raises(ValueError):
            AdvectionConfig(
                c=1.0, L=1.0, x_s=0.5, f0=1.0, n_x=32, initial_field=np.zeros(31)
            )

    @pytest.mark.parametrize(
        "fields, match",
        [({"L": 0.0}, "domain length must be positive"),
         ({"L": -1.0}, "domain length must be positive"),
         ({"f0": 0.0}, "source frequency must be positive"),
         ({"f0": -1.0}, "source frequency must be positive"),
         ({"n_t": 0}, "time-step count must be at least 1"),
         ({"initial_field": np.where(np.arange(32) == 3, np.nan, 0.0)}, "initial field must be finite"),
         ({"initial_field": np.full(32, np.inf)}, "initial field must be finite")],
        ids=["L_zero", "L_negative", "f0_zero", "f0_negative", "n_t_zero", "field_nan", "field_inf"],
    )
    def test_each_field_check_names_its_rule(self, fields, match):
        with pytest.raises(ValueError, match=match):
            AdvectionConfig(**{"c": 1.0, "L": 1.0, "x_s": 0.5, "f0": 1.0, "n_x": 32, **fields})


class TestRunAdvection:
    def test_zero_source_zero_field_stays_zero(self):
        cfg = AdvectionConfig(c=1.0, L=2.0, x_s=1.0, f0=1.0, n_x=32, n_t=50, scheme="fd")

        class _Silent(SourceTimeFunction):
            def __call__(self, t):
                return 0.0

        snaps = run_advection(cfg, _Silent(), [0.0, 25 * cfg.dt, 50 * cfg.dt])
        assert len(snaps) == 3
        for s in snaps:
            assert np.max(np.abs(s.u.values)) == 0.0

    def test_snapshot_times_snap_to_steps(self):
        cfg = AdvectionConfig(c=1.0, L=2.0, x_s=1.0, f0=4.0, n_x=32, n_t=20, scheme="fd")
        src = SourceTimeFunction(f0=4.0)
        snaps = run_advection(cfg, src, [0.0, 10.2 * cfg.dt, 20 * cfg.dt - 1e-12])
        assert [round(s.t / cfg.dt) for s in snaps] == [0, 10, 20]

    def test_rejects_out_of_range_snapshot(self):
        cfg = AdvectionConfig(c=1.0, L=2.0, x_s=1.0, f0=1.0, n_x=32, n_t=10, scheme="fd")
        src = SourceTimeFunction(f0=1.0)
        with pytest.raises(ValueError):
            run_advection(cfg, src, [100.0 * cfg.dt])
        with pytest.raises(ValueError):
            run_advection(cfg, src, [])

    def test_rejects_snapshot_times_whose_squares_overflow(self):
        # pulse_speed sums the squared snapshot times; a lone t = 0 has none
        cfg = AdvectionConfig(c=900.0, L=1e307, x_s=5e306, f0=1.0, n_x=32, n_t=8, scheme="fd")
        src = SourceTimeFunction(f0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"n_t 8, dt 8\.68056e\+301 s\) are too large"):
                run_advection(cfg, src, [0.0, 8 * cfg.dt])
            assert len(run_advection(cfg, src, [0.0])) == 1

    def test_rejects_a_last_step_time_that_overflows(self):
        # a huge domain at a huge cfl: dt = 6.25e303 s, and (n_t - 1)*dt overflows
        cfg = AdvectionConfig(c=1.0, L=1e300, x_s=5e299, f0=1e-300, n_x=16, cfl=1e5, n_t=2**20,
                              scheme="fd")
        message = (r"the last step time \(n_t - 1\)\*dt overflows float64: n_t 1048576, "
                   r"dt = cfl\*dx/c = 6\.25e\+303 s$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                run_advection(cfg, SourceTimeFunction(f0=1e-300), [0.0])

    def test_divergence_reported_with_last_state(self):
        # cfl = 2 puts the fd leapfrog far outside its stability interval
        cfg = AdvectionConfig(
            c=1.0, L=2.0, x_s=1.0, f0=4.0, n_x=64, cfl=2.0, n_t=2000, scheme="fd"
        )
        src = SourceTimeFunction(f0=4.0)
        with pytest.raises(DivergenceError, match="diverged at t=") as info:
            run_advection(cfg, src, [2000 * cfg.dt])
        last = info.value.last_finite
        assert isinstance(last, WavefieldSnapshot)
        assert np.all(np.isfinite(last.u.values))
        assert info.value.t > last.t

    def test_schemes_converge_to_translated_pulse(self):
        # no source: a band-limited pulse must advect at speed c, with the
        # pseudospectral operator the most accurate on smooth data
        def u0(x):
            return np.cos(x) + 0.6 * np.sin(2.0 * x) + 0.2 * np.cos(3.0 * x - 0.4)

        class _Silent(SourceTimeFunction):
            def __call__(self, t):
                return 0.0

        # small cfl keeps the shared leapfrog time error subdominant so the
        # comparison isolates the spatial operators
        errors = {}
        for scheme in ("fd", "pseudospectral", "csit"):
            errs = []
            for n_x in (32, 64):
                grid = UniformGrid(x0=0.0, length=2.0 * np.pi, n=n_x)
                dt = 0.05 * grid.dx / 1.0
                n_t = int(round(1.0 / dt))
                cfg = AdvectionConfig(
                    c=1.0,
                    L=2.0 * np.pi,
                    x_s=np.pi,
                    f0=1.0,
                    n_x=n_x,
                    cfl=0.05,
                    n_t=n_t,
                    scheme=scheme,
                    initial_field=u0(grid.nodes),
                )
                t_end = n_t * cfg.dt
                snap = run_advection(cfg, _Silent(), [t_end])[0]
                exact = u0(grid.nodes - 1.0 * t_end)
                errs.append(np.max(np.abs(snap.u.values - exact)))
            assert errs[1] < 0.5 * errs[0]
            errors[scheme] = errs[1]
        assert errors["pseudospectral"] < errors["fd"]
        assert errors["pseudospectral"] < errors["csit"]

    def test_reference_run_speed_and_cleanliness(self):
        cfg = reference_config(scheme="csit")
        src = SourceTimeFunction(f0=cfg.f0)
        T = cfg.n_t * cfg.dt
        snaps = run_advection(cfg, src, list(np.linspace(0.6 * T, T, 6)))
        speed = pulse_speed(snaps)
        assert speed == pytest.approx(900.0, rel=0.02)
        final = snaps[-1]
        lam = cfg.c / cfg.f0
        cen = pulse_centroid(final)
        window = ((cen - 4 * lam) % cfg.L, (cen + 4 * lam) % cfg.L)
        assert parasitic_energy(final, window) < 0.05

    def test_reference_run_literal_extents_stable_and_on_speed(self):
        # the alternate reading of the transform extents (real 0.0005 dx,
        # imaginary 0.1 dx) must also advect at the physical speed
        base = reference_config()
        params = CsitParams(
            eta_half_width=0.0005 * base.dx, tau_max=0.1 * base.dx, n_eta=4, n_tau=4
        )
        cfg = AdvectionConfig(
            c=900.0, L=10000.0, x_s=5000.0, f0=1.0, n_x=500, cfl=0.25,
            n_t=600, scheme="csit", csit=params,
        )
        src = SourceTimeFunction(f0=1.0)
        T = cfg.n_t * cfg.dt
        snaps = run_advection(cfg, src, list(np.linspace(0.6 * T, T, 6)))
        assert np.all(np.isfinite(snaps[-1].u.values))
        assert pulse_speed(snaps) == pytest.approx(900.0, rel=0.02)

    def test_fd_trailing_energy_exceeds_csit(self):
        src = SourceTimeFunction(f0=1.0)
        finals = {}
        for scheme in ("fd", "csit"):
            cfg = reference_config(scheme=scheme)
            T = cfg.n_t * cfg.dt
            finals[scheme] = run_advection(cfg, src, [T])[0]
        # window framed on the physical pulse; the fd run's own centroid is
        # dragged to the source by its backward parasitic packet
        lam = 900.0
        cen = pulse_centroid(finals["csit"])
        window = ((cen - 4 * lam) % 10000.0, (cen + 4 * lam) % 10000.0)
        pe_fd = parasitic_energy(finals["fd"], window)
        pe_csit = parasitic_energy(finals["csit"], window)
        assert pe_fd > 100.0 * pe_csit
        assert pe_fd > 0.1

    def test_long_run_stays_bounded(self):
        # four reference durations at cfl 0.25: the field energy must not
        # grow (peak amplitude fluctuates a few percent from dispersive
        # self-interference once the pulse laps the domain, so energy is
        # the stability monitor)
        src = SourceTimeFunction(f0=1.0)
        for scheme in ("fd", "csit"):
            cfg = reference_config(scheme=scheme, n_t=2400)
            T1 = 600 * cfg.dt
            snaps = run_advection(cfg, src, [T1, 2400 * cfg.dt])
            e_1 = np.sum(snaps[0].u.values ** 2)
            e_4 = np.sum(snaps[1].u.values ** 2)
            assert e_4 <= 1.01 * e_1


# --- the step loop against a per-step textbook leapfrog ----------------------


def textbook_advection(cfg, src, steps):
    """The leapfrog of ``run_advection`` written out one step at a time.

    The source is evaluated at each step time, the derivative goes through
    the public route on a Series, and the divergence gate is a finite check
    plus the 1e30 magnitude bound.  Returns the field at each of ``steps``.
    """
    grid, dt = cfg.grid, cfg.dt
    route = {
        "fd": fd_centered,
        "pseudospectral": pseudospectral_derivative,
        "csit": lambda s: csit_quadrature(s, cfg.csit),
    }[cfg.scheme]
    j_src = int(round((cfg.x_s - grid.x0) / grid.dx)) % cfg.n_x
    inject = 1.0 / grid.dx

    def rhs(u, t):
        out = -cfg.c * route(Series(grid, u)).values
        out[j_src] += float(src(t)) * inject
        return out

    def check(step, u, last):
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e30:
            last_snap = WavefieldSnapshot(t=(step - 1) * dt, u=Series(grid, last.copy()))
            raise DivergenceError(step * dt, last_snap)

    u_prev = np.zeros(cfg.n_x) if cfg.initial_field is None else cfg.initial_field.copy()
    fields = {0: u_prev.copy()}
    u_curr = u_prev + dt * rhs(u_prev, 0.0)
    check(1, u_curr, u_prev)
    fields[1] = u_curr.copy()
    for step in range(1, cfg.n_t):
        u_next = u_prev + 2.0 * dt * rhs(u_curr, step * dt)
        check(step + 1, u_next, u_curr)
        u_prev, u_curr = u_curr, u_next
        fields[step + 1] = u_curr.copy()
    return {step: fields[step] for step in steps}


@st.composite
def advection_cases(draw):
    """Keyword sets for AdvectionConfig and SourceTimeFunction, snapshot
    steps, and the steps of a block, 1 to n_t + 1, so that most runs cross
    block edges.

    Courant numbers up to 8 put every scheme far outside its leapfrog
    stability interval, so a good share of the runs diverge.
    """
    n_x = draw(st.integers(16, 64))
    L = draw(st.floats(1e-2, 1e4))
    c = draw(st.floats(1e-2, 1e3))
    n_t = draw(st.integers(1, 80))
    cfl = draw(st.floats(0.05, 8.0))
    duration = n_t * cfl * (L / n_x) / c
    f0 = draw(st.floats(0.2, 20.0)) / duration
    init = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=n_x, max_size=n_x))
    cfg = {
        "c": c, "L": L, "n_x": n_x, "n_t": n_t, "cfl": cfl, "f0": f0,
        "x_s": draw(st.floats(0.0, L, exclude_min=True, exclude_max=True)),
        "scheme": draw(st.sampled_from(["fd", "pseudospectral", "csit"])),
        "initial_field": None if init is None else np.array(init),
    }
    src = {
        "kind": draw(st.sampled_from(["gaussian_derivative", "ricker"])),
        "f0": f0,
        "t_delay": draw(st.floats(0.0, 1.5)) * duration,
    }
    steps = draw(st.sets(st.integers(0, n_t), min_size=1, max_size=4))
    return cfg, src, sorted(steps), draw(st.integers(1, n_t + 1))


_DIVERGING = {"c": 1.0, "L": 2.0, "n_x": 32, "n_t": 80, "cfl": 6.0, "f0": 4.0,
              "x_s": 1.0, "initial_field": None}
# the steps of a block at _DIVERGING's n_x by default: its 80 steps are one block
_DEFAULT_ROWS = advection._BLOCK_BYTES // (8 * _DIVERGING["n_x"])


class TestStepLoopAgainstTextbook:
    """``run_advection`` gives the bits of the per-step textbook leapfrog:
    the same snapshots, or the same divergence step and last finite field."""

    @staticmethod
    def assert_same_run(cfg, src, steps):
        times = [step * cfg.dt for step in steps]
        try:
            expected = textbook_advection(cfg, src, steps)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as info:
                run_advection(cfg, src, times)
            assert info.value.t == exc.t
            assert info.value.last_finite.t == exc.last_finite.t
            assert np.array_equal(info.value.last_finite.u.values, exc.last_finite.u.values)
            return
        snaps = run_advection(cfg, src, times)
        assert [snap.t for snap in snaps] == times
        for snap, step in zip(snaps, steps):
            assert np.array_equal(snap.u.values, expected[step])

    @settings(max_examples=150, deadline=None)
    @given(case=advection_cases())
    @example(case=({**_DIVERGING, "scheme": "fd"},
                   {"kind": "ricker", "f0": 4.0, "t_delay": 0.1}, [0, 40, 80], _DEFAULT_ROWS))
    @example(case=({**_DIVERGING, "scheme": "csit"},
                   {"kind": "gaussian_derivative", "f0": 4.0, "t_delay": 0.0}, [80], _DEFAULT_ROWS))
    @example(case=({**_DIVERGING, "scheme": "pseudospectral", "cfl": 0.25, "x_s": 1.999},
                   {"kind": "ricker", "f0": 4.0, "t_delay": 0.3}, [0, 1, 80], _DEFAULT_ROWS))
    def test_bit_identical_to_per_step_loop(self, case):
        cfg_kwargs, src_kwargs, steps, rows = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(advection, "_BLOCK_BYTES", rows * 8 * cfg_kwargs["n_x"])
            self.assert_same_run(AdvectionConfig(**cfg_kwargs), SourceTimeFunction(**src_kwargs), steps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scheme", ["fd", "csit"])
    def test_non_finite_source_diverges_at_the_same_step(self, bad, scheme):
        class _Broken(SourceTimeFunction):
            def __call__(self, t):
                return np.where(np.asarray(t) >= 7 * cfg.dt, bad, 1.0)

        cfg = AdvectionConfig(c=1.0, L=2.0, x_s=1.0, f0=4.0, n_x=32, n_t=20, scheme=scheme)
        self.assert_same_run(cfg, _Broken(f0=4.0), [20])
        with pytest.raises(DivergenceError) as info:
            run_advection(cfg, _Broken(f0=4.0), [20 * cfg.dt])
        assert info.value.last_finite.t == 7 * cfg.dt


def _block_edges(rows):
    """A step count whose run ends in a partial block (every block is full at
    one row a block), and the fields at the block edges of that run: step 1
    (the Euler bootstrap), the last step of the first block, the first step
    of the second, and a step inside the last block."""
    tail = max(1, (rows + 1) // 2)
    return 2 * rows + tail, sorted({1, rows, rows + 1, 2 * rows + (tail + 1) // 2})


def _gate_breaker(cfg, fail):
    """An initial field and a source that carry max|u| past the gate 1e30 at
    field ``fail`` and at no field before: two injections of 0.75e30 at the
    source node, at steps fail - 3 and fail - 1, or the second of them on top
    of an initial spike of 0.9e30 there where fail - 3 < 0.  At a small
    Courant number the transport between the injections is too weak to
    take the sum back under the gate."""
    j_src = int(round(cfg.x_s / cfg.dx)) % cfg.n_x
    u0 = np.zeros(cfg.n_x)
    if fail <= 2:
        u0[j_src] = 0.9e30
    pulses = [step for step in (fail - 3, fail - 1) if step >= 0]
    value = 0.375e30 * cfg.dx / cfg.dt  # 2*dt*value/dx = 0.75e30 a leapfrog step

    def src(t):
        return np.where(np.isin(np.round(np.asarray(t) / cfg.dt), pulses), value, 0.0)

    return u0, src


class TestBlockEdges:
    """``run_advection`` against the textbook leapfrog with the steps of a
    block patched to 1, 2 and 5 rows and at their default: divergence and a
    non-finite source at each block edge, and the snapshots at steps 0, 1
    and n_t of a run that ends in a partial block."""

    BASE = {"c": 1.0, "L": 2.0, "x_s": 1.0, "f0": 4.0, "n_x": 32}

    @pytest.fixture(params=[1, 2, 5, None], ids=["rows1", "rows2", "rows5", "default"])
    def rows(self, request, monkeypatch):
        if request.param is None:
            return advection._BLOCK_BYTES // (8 * self.BASE["n_x"])
        monkeypatch.setattr(advection, "_BLOCK_BYTES", request.param * 8 * self.BASE["n_x"])
        return request.param

    @pytest.mark.parametrize("scheme", ["fd", "csit"])
    def test_snapshots_at_the_ends(self, rows, scheme):
        n_t, _ = _block_edges(rows)
        cfg = AdvectionConfig(**self.BASE, n_t=n_t, scheme=scheme)
        TestStepLoopAgainstTextbook.assert_same_run(cfg, SourceTimeFunction(f0=4.0), [0, 1, n_t])

    @pytest.mark.parametrize("scheme", ["fd", "csit"])
    def test_gate_fires_at_each_block_edge(self, rows, scheme):
        n_t, edges = _block_edges(rows)
        # at cfl 0.02 the spike barely moves between the two injections
        base = AdvectionConfig(**self.BASE, cfl=0.02, n_t=n_t, scheme=scheme)
        for fail in edges:
            u0, src = _gate_breaker(base, fail)
            cfg = dataclasses.replace(base, initial_field=u0)
            with pytest.raises(DivergenceError) as info:
                run_advection(cfg, src, [n_t * cfg.dt])
            assert info.value.t == fail * cfg.dt
            assert np.abs(info.value.last_finite.u.values).max() <= 1e30
            TestStepLoopAgainstTextbook.assert_same_run(cfg, src, [n_t])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("scheme", ["fd", "csit"])
    def test_non_finite_source_at_each_block_edge(self, rows, scheme, bad):
        n_t, edges = _block_edges(rows)
        cfg = AdvectionConfig(**self.BASE, n_t=n_t, scheme=scheme)
        for fail in edges:
            def src(t, fail=fail):
                return np.where(np.asarray(t) >= (fail - 1) * cfg.dt, bad, 1.0)

            with pytest.raises(DivergenceError) as info:
                run_advection(cfg, src, [n_t * cfg.dt])
            assert info.value.t == fail * cfg.dt
            assert info.value.last_finite.t == (fail - 1) * cfg.dt
            TestStepLoopAgainstTextbook.assert_same_run(cfg, src, [n_t])


def test_ring_stays_within_its_byte_cap_on_a_large_grid():
    # at 2**16 nodes a block is one step, so the ring holds three fields and
    # the run peaks at a few; a ring of 32 rows would peak above 34
    n_x = 2**16
    field = 8 * n_x
    for scheme in ("fd", "pseudospectral", "csit"):
        cfg = AdvectionConfig(c=900.0, L=10000.0, x_s=5000.0, f0=1.0, n_x=n_x, n_t=40, scheme=scheme)
        tracemalloc.start()
        try:
            run_advection(cfg, SourceTimeFunction(f0=1.0), [0.0, 40 * cfg.dt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * field, scheme


class TestStabilityNumber:
    """c*dt*max_rate of each scheme's operator at the reference config,
    whose cfl 0.25 scales to the limits 1, 0.31959 and 0.32453."""

    @pytest.mark.parametrize("scheme, number", [("fd", 0.25), ("pseudospectral", 0.78226),
                                                ("csit", 0.77034)])
    def test_reference_config(self, scheme, number):
        cfg = reference_config(scheme)
        nu = cfg.c * cfg.dt * _derivative(cfg.grid, cfg.scheme, cfg.csit).max_rate
        if scheme == "fd":
            assert nu == number
        else:
            assert nu == pytest.approx(number, abs=1e-5)


class TestDispersion:
    def test_fd_values(self):
        assert dispersion_fd(0.0, c=900.0, dx=20.0) == 0.0
        k_half = np.pi / 2.0 / 20.0
        assert dispersion_fd(k_half, c=900.0, dx=20.0) == pytest.approx(900.0 / 20.0)

    def test_fd_checkerboard_root_is_exact(self):
        # the stationary parasitic mode: omega is exactly zero at k dx = pi
        dx = 20.0
        assert dispersion_fd(np.pi / dx, c=900.0, dx=dx) == 0.0

    def test_fd_odd_and_array(self):
        k = np.array([-0.1, 0.0, 0.1])
        w = dispersion_fd(k, c=2.0, dx=0.5)
        assert w.shape == (3,)
        assert w[0] == pytest.approx(-w[2])

    def test_csit_unit_phase_velocity_at_small_k(self):
        # spec of the operator: omega/(ck) -> 1 as k -> 0
        w = dispersion_csit(1.0, c=1.0, eta_half_width=1e-3, tau_max=1e-3)
        assert abs(w - 1.0) < 1e-6

    def test_csit_sinc_zero(self):
        k = 2.0
        w = dispersion_csit(k, c=1.0, eta_half_width=np.pi / k, tau_max=1e-4)
        assert abs(w) < 1e-12

    def test_csit_single_shift_frozen_value(self):
        # H = 0 drops the taper: omega = c*shi(k Z)/Z; shi(1) from the
        # series oracle
        w = dispersion_csit(10.0, c=1.0, eta_half_width=0.0, tau_max=0.1)
        assert w == pytest.approx(10.572508753757286, abs=1e-10)

    def test_csit_rejects_nonpositive_tau_extent(self):
        with pytest.raises(ValueError):
            dispersion_csit(1.0, c=1.0, eta_half_width=0.1, tau_max=0.0)

    def test_reference_extents_are_low_pass(self):
        # phase-velocity ratio stays in (0, 1] and never increases across
        # the resolved band for the reference transform extents
        dx = 20.0
        p = default_csit_params(dx)
        k = np.linspace(1e-6, np.pi / dx, 4000)
        ratio = dispersion_csit(k, 1.0, p.eta_half_width, p.tau_max) / k
        assert np.all(ratio > 0.0)
        assert np.all(ratio <= 1.0 + 1e-12)
        assert np.all(np.diff(ratio) <= 1e-12)

    def test_taper_decreases_with_eta_extent(self):
        k = 0.05
        w_narrow = dispersion_csit(k, 1.0, eta_half_width=10.0, tau_max=1e-3)
        w_wide = dispersion_csit(k, 1.0, eta_half_width=40.0, tau_max=1e-3)
        assert w_wide < w_narrow


class TestDiagnostics:
    def _snap(self, values, L=10.0):
        grid = UniformGrid(x0=0.0, length=L, n=len(values))
        return WavefieldSnapshot(t=0.0, u=Series(grid, values))

    def test_parasitic_energy_all_inside(self):
        v = np.zeros(100)
        v[40:60] = 1.0
        snap = self._snap(v)
        assert parasitic_energy(snap, (3.0, 7.0)) == 0.0

    def test_parasitic_energy_balanced(self):
        v = np.zeros(100)
        v[10] = 1.0
        v[60] = 1.0
        snap = self._snap(v)
        assert parasitic_energy(snap, (5.0, 7.0)) == pytest.approx(1.0)

    def test_parasitic_energy_zero_field(self):
        snap = self._snap(np.zeros(50))
        assert parasitic_energy(snap, (1.0, 2.0)) == 0.0

    def test_parasitic_energy_empty_window(self):
        v = np.zeros(50)
        v[0] = 1.0
        snap = self._snap(v)
        assert parasitic_energy(snap, (5.0, 6.0)) == np.inf

    def test_parasitic_energy_wrapping_window(self):
        v = np.zeros(100)
        v[1] = 1.0   # inside the wrapped arc
        v[50] = 2.0  # outside
        snap = self._snap(v)
        assert parasitic_energy(snap, (9.0, 1.0)) == pytest.approx(4.0)

    def test_centroid_of_symmetric_bump(self):
        grid = UniformGrid(x0=0.0, length=10.0, n=200)
        v = np.exp(-0.5 * ((grid.nodes - 3.0) / 0.3) ** 2)
        snap = WavefieldSnapshot(t=0.0, u=Series(grid, v))
        assert pulse_centroid(snap) == pytest.approx(3.0, abs=grid.dx)

    def test_centroid_handles_seam_straddle(self):
        grid = UniformGrid(x0=0.0, length=10.0, n=200)
        d = np.minimum(np.abs(grid.nodes - 0.1), 10.0 - np.abs(grid.nodes - 0.1))
        v = np.exp(-0.5 * (d / 0.3) ** 2)
        snap = WavefieldSnapshot(t=0.0, u=Series(grid, v))
        cen = pulse_centroid(snap)
        assert min(abs(cen - 0.1), abs(cen - 10.1)) < grid.dx

    def test_pulse_speed_through_seam(self):
        grid = UniformGrid(x0=0.0, length=10.0, n=200)
        snaps = []
        for i, t in enumerate(np.linspace(0.0, 4.0, 9)):
            center = (8.0 + 1.0 * t) % 10.0
            d = np.minimum(np.abs(grid.nodes - center), 10.0 - np.abs(grid.nodes - center))
            v = np.exp(-0.5 * (d / 0.4) ** 2)
            snaps.append(WavefieldSnapshot(t=t, u=Series(grid, v)))
        assert pulse_speed(snaps) == pytest.approx(1.0, rel=0.02)

    def test_pulse_speed_needs_two_snapshots(self):
        snap = self._snap(np.ones(32))
        with pytest.raises(ValueError):
            pulse_speed([snap])
