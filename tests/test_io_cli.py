"""CSV format, run manifests, and the command-line front end."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csit.cli import MAX_COUNT, main
from csit.io import (
    CsvFormatError,
    RunManifest,
    format_cell,
    read_series_csv,
    write_table_csv,
)


def write_tone_csv(path, n=64, freq=3.0, header=True):
    """Sampled sine on [0, 1) written in the two-column input format."""
    t = np.arange(n) / n
    v = np.sin(2.0 * np.pi * freq * t)
    lines = ["t,value"] if header else []
    lines += [f"{a:.17g},{b:.17g}" for a, b in zip(t, v)]
    path.write_text("\n".join(lines) + "\n")
    return t, v


class TestFormatCell:
    def test_float_uses_17_significant_digits(self):
        x = 1.0 / 3.0
        assert format_cell(x) == f"{x:.17g}"
        assert float(format_cell(x)) == x

    def test_roundtrip_is_exact_for_awkward_floats(self):
        rng = np.random.default_rng(7)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200):
            assert float(format_cell(float(x))) == float(x)

    def test_bools_become_0_and_1(self):
        assert format_cell(True) == "1"
        assert format_cell(np.False_) == "0"

    def test_integers_stay_integers(self):
        assert format_cell(42) == "42"
        assert format_cell(np.int64(-3)) == "-3"

    def test_non_finite_becomes_empty_cell(self):
        assert format_cell(float("nan")) == ""
        assert format_cell(float("inf")) == ""
        assert format_cell(np.float64("-inf")) == ""

    def test_text_passes_through(self):
        assert format_cell("closed form") == "closed form"

    def test_text_with_separator_is_rejected(self):
        with pytest.raises(ValueError, match="separator"):
            format_cell("a,b")


class TestWriteTableCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, ["a", "b"], [np.array([1.0, 2.0]), np.array([3.0, np.nan])])
        assert path.read_bytes() == b"a,b\n1,3\n2,\n"

    def test_header_column_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_table_csv(tmp_path / "t.csv", ["a", "b"], [np.array([1.0])])

    def test_unequal_column_lengths(self, tmp_path):
        with pytest.raises(ValueError):
            write_table_csv(
                tmp_path / "t.csv",
                ["a", "b"],
                [np.array([1.0]), np.array([1.0, 2.0])],
            )


class TestReadSeriesCsv:
    def test_roundtrip_through_writer(self, tmp_path):
        path = tmp_path / "tone.csv"
        t, v = write_tone_csv(path)
        rt, rv = read_series_csv(path)
        assert np.array_equal(rt, t)
        assert np.array_equal(rv, v)

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "bare.csv"
        write_tone_csv(path, header=False)
        rt, _ = read_series_csv(path)
        assert len(rt) == 64

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# lead\n\nt,v\n0,1\n\n# mid\n1,2\n2,3\n")
        rt, rv = read_series_csv(path)
        assert np.array_equal(rt, [0.0, 1.0, 2.0])
        assert np.array_equal(rv, [1.0, 2.0, 3.0])

    def test_wrong_cell_count_reports_line_number(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1\n1,2,9\n")
        with pytest.raises(CsvFormatError, match=r"w\.csv:2"):
            read_series_csv(path)

    def test_non_finite_value_is_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("0,1\n1,inf\n2,3\n")
        with pytest.raises(CsvFormatError):
            read_series_csv(path)

    def test_decreasing_coordinates_report_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1\n2,1\n1,1\n")
        with pytest.raises(CsvFormatError, match=r"d\.csv:3"):
            read_series_csv(path)

    def test_single_row_is_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0,1\n")
        with pytest.raises(CsvFormatError):
            read_series_csv(path)

    def test_jitter_within_tolerance_passes(self, tmp_path):
        # perturb one node by less than the relative jitter bound
        t = np.arange(8) * 0.5
        t[3] += 0.5 * 5e-10
        path = tmp_path / "j.csv"
        path.write_text("".join(f"{a:.17g},1\n" for a in t))
        rt, _ = read_series_csv(path)
        assert len(rt) == 8

    def test_jitter_beyond_tolerance_is_rejected(self, tmp_path):
        t = np.arange(8) * 0.5
        t[3] += 0.5 * 1e-6
        path = tmp_path / "j.csv"
        path.write_text("".join(f"{a:.17g},1\n" for a in t))
        with pytest.raises(CsvFormatError, match="spac"):
            read_series_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError):
            read_series_csv(tmp_path / "absent.csv")


class TestRunManifest:
    def test_write_read_roundtrip(self, tmp_path):
        m = RunManifest(subcommand="symbol", parameters={"dx": 1.0})
        m = m.finalize(0.25)
        path = tmp_path / "m.json"
        m.write(path)
        back = RunManifest.read(path)
        assert back.subcommand == "symbol"
        assert back.parameters == {"dx": 1.0}
        assert back.tool == "csit"
        assert back.reduction == "fixed"
        assert back.duration_seconds == 0.25
        assert back.created_utc != ""

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"parameters": {}}))
        with pytest.raises(CsvFormatError, match="subcommand"):
            RunManifest.read(path)

    def test_unknown_field_is_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"subcommand": "x", "parameters": {}, "zzz": 1}))
        with pytest.raises(CsvFormatError):
            RunManifest.read(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(CsvFormatError):
            RunManifest.read(path)


class TestTransformCommand:
    def test_quadrature_and_symbol_modes_agree(self, tmp_path):
        """Default quadrature resolution tracks the exact symbol to 1e-3."""
        src = tmp_path / "tone.csv"
        write_tone_csv(src, n=64)
        args = [str(src), "--H", "0.02", "--Z", "0.01"]
        assert main(["transform", *args, "--out", str(tmp_path / "q.csv")]) == 0
        assert main(["transform", *args, "--mode", "symbol",
                     "--out", str(tmp_path / "s.csv")]) == 0
        q = np.genfromtxt(tmp_path / "q.csv", delimiter=",", names=True)
        s = np.genfromtxt(tmp_path / "s.csv", delimiter=",", names=True)
        scale = np.max(np.abs(s["csit_output"]))
        assert np.max(np.abs(q["csit_output"] - s["csit_output"])) / scale < 1e-3

    def test_manifest_records_resolved_cutoff(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "q.csv"
        assert main(["transform", str(src), "--H", "0.02", "--Z", "0.01",
                     "--out", str(out)]) == 0
        m = json.loads((tmp_path / "q.csv.manifest.json").read_text())
        assert m["parameters"]["eps"] == 0.01 / 32
        assert m["outputs"] == ["q.csv"]

    def test_missing_input_exits_3(self, tmp_path):
        code = main(["transform", str(tmp_path / "no.csv"),
                     "--H", "0.1", "--Z", "0.1", "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_bad_parameters_exit_2(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        code = main(["transform", str(src), "--H", "-1", "--Z", "0.1",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestDeriveCommand:
    def test_demo_emits_error_columns_blanked_at_edges(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["derive", "--demo", "logistic", "--n", "200",
                     "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data.dtype.names == (
            "t", "f", "fd", "pseudospectral", "csit", "analytic",
            "rel_err_fd", "rel_err_pseudospectral", "rel_err_csit",
        )
        # five masked nodes per edge come back as empty cells
        assert np.all(np.isnan(data["rel_err_csit"][:5]))
        assert np.all(np.isnan(data["rel_err_csit"][-5:]))
        assert np.all(np.isfinite(data["rel_err_csit"][5:-5]))

    def test_demo_and_input_are_mutually_exclusive(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        assert main(["derive", str(src), "--demo", "logistic",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert main(["derive", "--out", str(tmp_path / "o.csv")]) == 2

    def test_file_mode_tracks_tone_derivative(self, tmp_path):
        src = tmp_path / "tone.csv"
        t, _ = write_tone_csv(src, n=128, freq=3.0)
        out = tmp_path / "d.csv"
        assert main(["derive", str(src), "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        truth = 2.0 * np.pi * 3.0 * np.cos(2.0 * np.pi * 3.0 * t)
        assert np.max(np.abs(data["pseudospectral"] - truth)) < 1e-10
        assert np.max(np.abs(data["csit"] - truth)) < 0.2


class TestIfreqCommand:
    def test_demo_chirp_columns_and_trim(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["ifreq", "--demo", "chirp", "--n", "200",
                     "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data.dtype.names == (
            "t", "value", "if_classical", "if_damped", "if_csit",
            "valid_classical", "valid_damped", "valid_csit", "truth",
        )
        assert len(data["t"]) == 200 - 2 * math.ceil(0.05 * 200)
        interior = data["valid_csit"] == 1
        assert np.max(np.abs(data["if_csit"][interior] - data["truth"][interior])) < 1.0

    def test_file_mode_recovers_tone_frequency(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src, n=128, freq=3.0)
        out = tmp_path / "f.csv"
        assert main(["ifreq", str(src), "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert "truth" not in data.dtype.names
        assert np.max(np.abs(data["if_classical"] - 3.0)) < 1e-6
        assert np.max(np.abs(data["if_csit"] - 3.0)) < 1e-2

    def test_damping_default_resolves_to_a_number(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "f.csv"
        assert main(["ifreq", str(src), "--out", str(out)]) == 0
        m = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert m["parameters"]["damping"] == pytest.approx(1e-3, rel=0.1)


class TestAdvectCommand:
    def _config(self, tmp_path, **extra):
        cfg = {"n_x": 100, "n_t": 80, **extra}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_snapshots_summary_and_manifest(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "adv"
        assert main(["advect", "--scheme", "fd", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "manifest.json", "snapshot_000.csv", "snapshot_001.csv",
            "snapshot_002.csv", "summary.json",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scheme"] == "fd"
        assert len(summary["snapshots"]) == 3
        assert summary["wavelength"] == 900.0
        for entry in summary["snapshots"]:
            assert set(entry) == {"t", "centroid", "energy", "parasitic_energy"}

    def test_window_override_lands_in_summary(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "adv"
        assert main(["advect", "--scheme", "fd", "--config", str(cfg),
                     "--window", "1000,9000", "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["window"] == [1000.0, 9000.0]

    def test_unstable_run_exits_4(self, tmp_path):
        cfg = self._config(tmp_path, cfl=2.5, n_t=400)
        assert main(["advect", "--scheme", "fd", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "adv")]) == 4

    def test_unknown_config_field_exits_2(self, tmp_path):
        cfg = self._config(tmp_path, zzz=1)
        assert main(["advect", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "adv")]) == 2

    def test_malformed_config_exits_3(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        assert main(["advect", "--config", str(path),
                     "--out-dir", str(tmp_path / "adv")]) == 3

    @pytest.mark.parametrize("counts", [{"n_eta": 2.5}, {"n_tau": True}])
    def test_non_integer_node_count_exits_2_before_writing(self, tmp_path, capsys, counts):
        cfg = self._config(tmp_path, csit={"eta_half_width": 2.0, "tau_max": 0.01, **counts})
        out = tmp_path / "adv"
        assert main(["advect", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("csit: error:")
        assert not out.exists()


class TestSymbolCommand:
    def test_curves_and_grid_limits(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["symbol", "--dx", "1.0", "--samples", "101",
                     "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data["k"][0] == 0.0
        assert data["k"][-1] == pytest.approx(np.pi)
        # centered differences carry the sawtooth at exactly zero speed
        assert data["omega_fd"][-1] == 0.0
        # the averaged symbol never exceeds the exact derivative
        assert np.all(data["abs_sigma_csit"] <= data["abs_ik"] + 1e-12)


class TestTable1Command:
    def test_all_rows_pass(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table1", "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True,
                             dtype=None, encoding="utf-8")
        assert len(data) == 5
        assert np.all(data["passed"] == 1)
        assert np.all(data["max_deviation"] < data["tolerance"])


class TestReplayCommand:
    def test_transform_replay_is_byte_identical(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "q.csv"
        assert main(["transform", str(src), "--H", "0.02", "--Z", "0.01",
                     "--out", str(out)]) == 0
        replay_dir = tmp_path / "replay"
        assert main(["replay", str(tmp_path / "q.csv.manifest.json"),
                     "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "q.csv").read_bytes() == out.read_bytes()

    def test_advect_replay_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 100, "n_t": 80}))
        first = tmp_path / "adv"
        assert main(["advect", "--scheme", "fd", "--config", str(cfg),
                     "--out-dir", str(first)]) == 0
        second = tmp_path / "adv2"
        assert main(["replay", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("snapshot_000.csv", "snapshot_001.csv",
                     "snapshot_002.csv", "summary.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_manifest_with_legacy_threads_entry_replays(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["symbol", "--out", str(out)]) == 0
        path = tmp_path / "s.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"]["threads"] = None
        path.write_text(json.dumps(manifest))
        replay_dir = tmp_path / "replay"
        assert main(["replay", str(path), "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "s.csv").read_bytes() == out.read_bytes()

    def test_unknown_subcommand_in_manifest_exits_3(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"subcommand": "zzz", "parameters": {}}))
        assert main(["replay", str(path), "--out-dir", str(tmp_path / "o")]) == 3

    def test_missing_parameter_in_manifest_exits_3(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["derive", "--demo", "logistic", "--n", "64", "--out", str(out)]) == 0
        path = tmp_path / "d.csv.manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["parameters"]["n_tau"]
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path), "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("csit: error:")
        assert "'n_tau'" in err[0]


class TestUsageSurface:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "transform" in capsys.readouterr().out

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version_string(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out


# --- the parameter boundary -------------------------------------------------


def run_cli(argv):
    """``main(argv)`` with stderr captured and warnings recorded."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines(), [str(w.message) for w in caught]


def check_outcome(code, err, caught, out_dir):
    """Exit codes 2 and 3 give one error line and leave no output directory.

    A warning would reach stderr as further lines in a real run.
    """
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert len(err) == 1 and err[0].startswith("csit: error:"), err
        assert not caught, caught
        assert not Path(out_dir).exists()


def assert_rejected(argv, expected, out_dir):
    code, err, caught = run_cli(argv)
    assert code == expected, err
    check_outcome(code, err, caught, out_dir)
    return err[0]


def write_manifest(tmp_path, subcommand, parameters):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"subcommand": subcommand, "parameters": parameters}))
    return path


class TestParameterBoundary:
    """Regression cases: each exits 2 (flags or config) or 3 (replay) with
    one line, before the output directory is created."""

    @pytest.mark.parametrize(
        "config",
        [
            {"n_x": 100.7, "n_t": 5.9},
            {"csit": 3},
            {"n_t": 1e12},
            {"n_t": MAX_COUNT + 1},
            {"n_x": True},
            {"c": "fast"},
            {"L": float("inf")},
            {"n_x": 32, "n_t": 8, "cfl": 1e-300},
            {"source": {"t_delay": float("nan")}},
            {"source": "ricker"},
            {"source": {"kind": "none"}},
        ],
    )
    def test_bad_advect_config_exits_2(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "adv"
        assert_rejected(["advect", "--config", path, "--out-dir", out], 2, out)

    def test_csit_block_lacking_half_width_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"csit": {"tau_max": 1}}))
        out = tmp_path / "adv"
        err = assert_rejected(
            ["advect", "--scheme", "csit", "--config", path, "--out-dir", out], 2, out
        )
        assert "'eta_half_width'" in err

    def test_snapshot_beyond_run_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_x": 32, "n_t": 8}))
        out = tmp_path / "adv"
        assert_rejected(["advect", "--config", path, "--snapshots", "0,1e308",
                         "--out-dir", out], 2, out)

    def test_quadrature_extent_beyond_growth_limit_exits_2(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "o" / "q.csv"
        err = assert_rejected(["transform", src, "--mode", "quadrature", "--H", "0.01",
                               "--Z", "1000", "--out", out], 2, out.parent)
        assert "too large" in err

    def test_overflowing_normalization_exits_2(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "o" / "q.csv"
        err = assert_rejected(["transform", src, "--H", "1e-300", "--Z", "1e-10",
                               "--out", out], 2, out.parent)
        assert "too small" in err

    @pytest.mark.parametrize(
        "H, Z, match",
        [("0.01", "1000", "too large"), ("0.01", "0", "tau_max"), ("-1", "0.01", "eta_half_width"),
         ("inf", "0.01", "H must be a finite number")],
    )
    def test_transform_symbol_mode_checks_extents(self, tmp_path, H, Z, match):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "o" / "s.csv"
        err = assert_rejected(["transform", src, "--mode", "symbol", "--H", H, "--Z", Z,
                               "--out", out], 2, out.parent)
        assert match in err

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--Z", "0"], "tau_max"),
            (["--H", "inf"], "H must be a finite number"),
            (["--H", "-1"], "eta_half_width"),
            (["--Z", "1000"], "too large"),
            (["--kmax", "0"], "kmax"),
            (["--samples", "1"], "samples"),
            (["--samples", str(MAX_COUNT + 1)], "samples"),
        ],
    )
    def test_symbol_checks_extents(self, tmp_path, flags, match):
        out = tmp_path / "o" / "s.csv"
        err = assert_rejected(["symbol", *flags, "--out", out], 2, out.parent)
        assert match in err

    def test_nonpositive_damping_exits_2(self, tmp_path):
        out = tmp_path / "o" / "f.csv"
        assert_rejected(["ifreq", "--demo", "chirp", "--n", "200", "--damping", "-1",
                         "--out", out], 2, out.parent)

    def test_damping_with_overflowing_square_exits_2(self, tmp_path):
        out = tmp_path / "o" / "f.csv"
        assert_rejected(["ifreq", "--demo", "chirp", "--n", "200", "--damping", "1e300",
                         "--out", out], 2, out.parent)

    def test_chirp_with_overflowing_phase_exits_2(self, tmp_path):
        out = tmp_path / "o" / "f.csv"
        err = assert_rejected(["ifreq", "--demo", "chirp", "--rate", "1e308", "--out", out],
                              2, out.parent)
        assert "f0=" in err and "rate=" in err

    def test_zero_logistic_steepness_exits_2(self, tmp_path):
        out = tmp_path / "o" / "d.csv"
        err = assert_rejected(["derive", "--demo", "logistic", "--k", "0", "--out", out],
                              2, out.parent)
        assert "k must be nonzero" in err

    @pytest.mark.parametrize("k", ["1e-320", "-5"])
    def test_tiny_or_negative_logistic_steepness_runs(self, tmp_path, k):
        code, err, caught = run_cli(["derive", "--demo", "logistic", "--n", "64", "--k", k,
                                     "--out", tmp_path / "d.csv"])
        assert (code, err, caught) == (0, [], [])

    @pytest.mark.parametrize("n", [2, 10])
    def test_derive_demo_without_interior_exits_2(self, tmp_path, n):
        # 5 nodes per edge are blanked in the error columns; n <= 10 would
        # leave every rel_err cell empty
        out = tmp_path / "o" / "d.csv"
        err = assert_rejected(["derive", "--demo", "logistic", "--n", n, "--out", out],
                              2, out.parent)
        assert f"n must exceed the 10 blanked edge nodes, got {n}" in err

    def test_derive_demo_with_one_interior_node_runs(self, tmp_path):
        out = tmp_path / "d.csv"
        code, err, caught = run_cli(["derive", "--demo", "logistic", "--n", "11", "--out", out])
        assert (code, err, caught) == (0, [], [])
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.isfinite(data["rel_err_csit"]).tolist() == [False] * 5 + [True] + [False] * 5

    @pytest.mark.parametrize("argv", [["--demo", "chirp", "--n", "2"],
                                      ["--demo", "chirp", "--n", "3", "--trim", "0.4"],
                                      ["two_rows.csv"]],
                             ids=["demo_n2", "demo_trim_0.4", "file_two_rows"])
    def test_trim_leaving_no_sample_exits_2(self, tmp_path, argv):
        write_tone_csv(tmp_path / "two_rows.csv", n=2)
        argv = [tmp_path / a if a.endswith(".csv") else a for a in argv]
        out = tmp_path / "o" / "f.csv"
        err = assert_rejected(["ifreq", *argv, "--out", out], 2, out.parent)
        assert "trim" in err and "leaves none of the" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [("Z", -1, "Z (tau_max) must be positive and finite"),
         ("H", -1, "H (eta_half_width) must be finite and nonnegative"),
         ("eps", 1, "eps (tau_min) must lie strictly between 0 and Z (tau_max)")],
        ids=["Z", "H", "eps"],
    )
    def test_range_errors_name_key_and_field(self, tmp_path, key, value, message):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        argv = ["transform", src, "--H", "0.02", "--Z", "0.01", "--out", tmp_path / "q.csv"]
        assert main([str(a) for a in argv]) == 0
        out = tmp_path / "o"
        err = assert_rejected([*argv[:-1], out / "q.csv", f"--{key}", value], 2, out)
        assert err == f"csit: error: {message}"
        path = tmp_path / "q.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"][key] = value
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    def test_single_sample_demo_exits_2(self, tmp_path):
        out = tmp_path / "o" / "d.csv"
        assert_rejected(["derive", "--demo", "logistic", "--n", "1", "--out", out], 2, out.parent)

    def test_usage_error_is_one_line(self, tmp_path):
        out = tmp_path / "o" / "q.csv"
        err = assert_rejected(["transform", "in.csv", "--H", "abc", "--Z", "1",
                               "--out", out], 2, out.parent)
        assert "--H" in err

    @pytest.mark.parametrize(
        "key, value",
        [("H", "abc"), ("mode", "bogus"), ("Z", [1]), ("n_tau", 2.5),
         ("n_eta", MAX_COUNT + 1), ("out", "../escape.csv"), ("rule", None)],
    )
    def test_bad_transform_manifest_exits_3(self, tmp_path, key, value):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        assert main(["transform", str(src), "--H", "0.02", "--Z", "0.01",
                     "--out", str(tmp_path / "q.csv")]) == 0
        path = tmp_path / "q.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"][key] = value
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert f"{path}: bad parameters: {key} " in err

    def test_manifest_parameters_must_be_an_object(self, tmp_path):
        path = write_manifest(tmp_path, "symbol", [1, 2])
        out = tmp_path / "replay"
        assert_rejected(["replay", path, "--out-dir", out], 3, out)

    def test_legacy_spectral_shift_variant_is_ignored(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["ifreq", "--demo", "chirp", "--n", "200", "--out", str(out)]) == 0
        path = tmp_path / "f.csv.manifest.json"
        manifest = json.loads(path.read_text())
        assert "variant" not in manifest["parameters"]
        manifest["parameters"]["variant"] = "spectral_shift"
        path.write_text(json.dumps(manifest))
        replay_dir = tmp_path / "replay"
        assert main(["replay", str(path), "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "f.csv").read_bytes() == out.read_bytes()
        replayed = json.loads((replay_dir / "f.csv.manifest.json").read_text())
        del manifest["parameters"]["variant"]
        assert replayed["parameters"] == manifest["parameters"]
        manifest["parameters"]["variant"] = "pointwise_additive"
        path.write_text(json.dumps(manifest))
        other = tmp_path / "replay2"
        assert "variant" in assert_rejected(["replay", path, "--out-dir", other], 3, other)


# Hypothesis fuzzing of the boundary.  Every accepted run is tiny (at most
# 128 samples, 32 grid points, 8 steps, 4x4 nodes); counts above the cap
# are drawn only as values that must be rejected.

_POOL = [
    None, True, False, "abc", "", "ricker", [1], {"a": 1},
    float("nan"), float("inf"), -float("inf"),
    -1, -1.5, 0, 0.0, 1e-300, 2.5, 1e12, MAX_COUNT + 1, 10**400,
]
_FLAG_POOL = [
    "nan", "inf", "-inf", "-1", "0", "1e-300", "1e-3", "2.5", "3", "1e12",
    str(MAX_COUNT + 1), "abc", "", "bogus", "fd", "midpoint",
]
_FLAGS = {
    "transform": ["--mode", "--H", "--Z", "--eps", "--n-eta", "--n-tau", "--rule"],
    "derive": ["--n", "--k", "--t0", "--H", "--Z", "--eps", "--n-eta", "--n-tau", "--rule"],
    "ifreq": ["--n", "--f0", "--rate", "--H", "--Z", "--eps", "--n-eta", "--n-tau",
              "--rule", "--backend", "--damping", "--trim"],
    "symbol": ["--kmax", "--samples", "--H", "--Z", "--dx", "--c"],
    "advect": ["--scheme", "--snapshots", "--window"],
}
_CONFIG_KEYS = [
    "c", "L", "x_s", "f0", "n_x", "cfl", "n_t", "csit", "source", "zzz",
    "csit.eta_half_width", "csit.tau_max", "csit.tau_min", "csit.n_eta",
    "csit.n_tau", "csit.rule", "csit.zzz", "source.kind", "source.t_delay", "source.zzz",
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_tone_csv(root / "tone.csv")
    (root / "cfg.json").write_text(json.dumps({"n_x": 32, "n_t": 8}))
    return root


@pytest.fixture(scope="module")
def base_manifests(fuzz_dir):
    cfg = fuzz_dir / "cfg_csit.json"
    cfg.write_text(json.dumps({"n_x": 32, "n_t": 8,
                               "csit": {"eta_half_width": 2.0, "tau_max": 0.01}}))
    runs = {
        "transform": ["transform", fuzz_dir / "tone.csv", "--H", "0.02", "--Z", "0.01",
                      "--n-eta", "4", "--n-tau", "4", "--out", fuzz_dir / "transform"],
        "derive": ["derive", "--demo", "logistic", "--n", "64", "--out", fuzz_dir / "derive"],
        "ifreq": ["ifreq", "--demo", "chirp", "--n", "128", "--out", fuzz_dir / "ifreq"],
        "symbol": ["symbol", "--samples", "16", "--out", fuzz_dir / "symbol"],
        "advect": ["advect", "--config", cfg, "--out-dir", fuzz_dir / "advect"],
    }
    manifests = {}
    for name, argv in runs.items():
        assert main([str(a) for a in argv]) == 0
        path = fuzz_dir / ("advect/manifest.json" if name == "advect" else f"{name}.manifest.json")
        manifests[name] = json.loads(path.read_text())["parameters"]
    return manifests


class TestBoundaryFuzz:
    @settings(max_examples=80, deadline=None)
    @given(
        scheme=st.sampled_from(["fd", "pseudospectral", "csit"]),
        edits=st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from(_POOL)),
                       min_size=1, max_size=2),
        whole=st.one_of(st.none(), st.sampled_from(_POOL)),
    )
    def test_advect_config(self, fuzz_dir, scheme, edits, whole):
        config = {"n_x": 32, "n_t": 8, "csit": {"eta_half_width": 2.0, "tau_max": 0.01},
                  "source": {"kind": "gaussian_derivative"}}
        for key, value in edits:
            head, _, tail = key.partition(".")
            if tail and isinstance(config.get(head), dict):
                config[head][tail] = value
            else:
                config[head] = value
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as work:
            path = Path(work) / "cfg.json"
            path.write_text(json.dumps(config if whole is None else whole))
            out = Path(work) / "adv"
            check_outcome(*run_cli(["advect", "--scheme", scheme, "--config", path,
                                    "--out-dir", out]), out)

    @settings(max_examples=80, deadline=None)
    @given(
        subcommand=st.sampled_from(sorted(_FLAGS)),
        data=st.data(),
    )
    def test_flag_values(self, fuzz_dir, subcommand, data):
        flags = data.draw(st.lists(
            st.tuples(st.sampled_from(_FLAGS[subcommand]), st.sampled_from(_FLAG_POOL)),
            min_size=1, max_size=2))
        base = {
            "transform": [fuzz_dir / "tone.csv", "--H", "0.02", "--Z", "0.01",
                          "--n-eta", "4", "--n-tau", "4"],
            "derive": ["--demo", "logistic", "--n", "64"],
            "ifreq": ["--demo", "chirp", "--n", "128"],
            "symbol": ["--samples", "16"],
            "advect": ["--scheme", "fd", "--config", fuzz_dir / "cfg.json"],
        }[subcommand]
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as work:
            out = Path(work) / "o"
            target = ["--out-dir", out] if subcommand == "advect" else ["--out", out / "x.csv"]
            argv = [subcommand, *base, *(item for pair in flags for item in pair), *target]
            check_outcome(*run_cli(argv), out)

    @settings(max_examples=100, deadline=None)
    @given(
        subcommand=st.sampled_from(["transform", "derive", "ifreq", "symbol", "advect"]),
        data=st.data(),
    )
    def test_manifest_parameters(self, fuzz_dir, base_manifests, subcommand, data):
        params = json.loads(json.dumps(base_manifests[subcommand]))
        keys = sorted(params) + ["variant", "zzz"]
        for _ in range(data.draw(st.integers(1, 2))):
            key = data.draw(st.sampled_from(keys))
            if data.draw(st.booleans()):
                params.pop(key, None)
            else:
                params[key] = data.draw(st.sampled_from(_POOL))
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as work:
            path = write_manifest(Path(work), subcommand, params)
            out = Path(work) / "replay"
            check_outcome(*run_cli(["replay", path, "--out-dir", out]), out)
