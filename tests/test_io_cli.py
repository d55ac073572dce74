"""CSV format, run manifests, and the command-line front end."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import csit
from csit import cli, continuation, instfreq, operators
from csit import io as csit_io
from csit.advection import default_csit_params, reference_config
from csit.cli import MAX_COUNT, main
from csit.instfreq import default_if_params
from csit.io import (
    CsvFormatError,
    RunManifest,
    format_cell,
    read_series_csv,
    write_table_csv,
)
from reference import CsvError, csv_table_text, parse_series_lines, read_series_lines

CALIBRATION = Path(__file__).resolve().parent.parent / "calibration"
HELP = Path(__file__).resolve().parent / "help"


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

    def test_streams_blocks_without_holding_the_text(self, tmp_path):
        # the 3.7 MB text of a 65536 x 3 table goes out block by block;
        # joined into one string first, it made a 9 MB tracemalloc peak
        rng = np.random.default_rng(16)
        columns = [rng.standard_normal(65536) * 10.0 ** rng.integers(-300, 300, 65536) for _ in range(3)]
        tracemalloc.start()
        try:
            write_table_csv(tmp_path / "t.csv", ["x", "input", "output"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert (tmp_path / "t.csv").stat().st_size > 3e6

    def test_a_failing_block_leaves_the_previous_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")
        cells = np.array(["r0", "r1", "r2", "r3", "a,b", "r5"], dtype=object)
        with mock.patch.object(csit_io, "_FIELD_CELLS", 2 * 2), pytest.raises(ValueError, match="separator"):
            write_table_csv(path, ["x", "note"], [np.arange(6.0), cells])
        assert path.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_a_temp_file_that_cannot_be_removed_keeps_the_chunks_error(self, tmp_path):
        # the cleanup's own OSError is dropped: the caller sees the fault of
        # the chunks, and the destination keeps its previous bytes
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")

        class ChunkFault(Exception):
            pass

        def chunks():
            yield b"new\n"
            raise ChunkFault("raised by the chunks")

        with mock.patch.object(csit_io.os, "unlink", side_effect=OSError("unlink refused")), \
                pytest.raises(ChunkFault, match="raised by the chunks"):
            csit_io._write_atomic(path, chunks())
        assert path.read_bytes() == b"old\n"
        (left,) = [p.name for p in tmp_path.iterdir() if p.name != "t.csv"]
        assert left.startswith(".t.csv.") and left.endswith(".tmp")

    @pytest.mark.parametrize("name", ["t,x", "v\n", "v\r"], ids=["comma", "newline", "carriage_return"])
    def test_header_name_with_a_separator_is_refused_before_writing(self, tmp_path, name):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")
        with mock.patch.object(csit_io.os, "open", side_effect=AssertionError("temp file opened")), \
                pytest.raises(ValueError, match="header name may not contain separators"):
            write_table_csv(path, [name, "v"], [np.arange(3.0), np.arange(3.0)])
        assert path.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_outputs_get_the_mode_the_umask_leaves(self, tmp_path, umask, mode):
        code = (
            "import sys; import numpy as np; from csit.io import RunManifest, write_table_csv; "
            "write_table_csv(sys.argv[1], ['x'], [np.arange(3.0)]); "
            "RunManifest(subcommand='symbol', parameters={}).write(sys.argv[2])"
        )
        src = str(Path(csit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        paths = [tmp_path / "a.csv", tmp_path / "a.csv.manifest.json"]
        proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                              env=env, umask=umask, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert [p.stat().st_mode & 0o777 for p in paths] == [mode, mode]

    def test_writes_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale with coercion and UTF-8 mode off, text mode
        # would encode ASCII and fail on the first non-ASCII character (the
        # command itself stays ASCII, spelling the accents as escapes)
        code = (
            "import codecs, locale, sys; import numpy as np; from csit.io import atomic_write_text, write_table_csv; "
            "print(codecs.lookup(locale.getpreferredencoding(False)).name); "
            "write_table_csv(sys.argv[1], ['t\\u00e9mps', 'note'], "
            "[np.array([1.0, 2.0]), np.array(['caf\\u00e9', 'x'], dtype=object)]); "
            "atomic_write_text(sys.argv[2], 'na\\u00efve\\n')"
        )
        src = str(Path(csit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv"), str(tmp_path / "n.txt")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() != "utf-8"
        assert (tmp_path / "t.csv").read_bytes() == "témps,note\n1,café\n2,x\n".encode("utf-8")
        assert (tmp_path / "n.txt").read_bytes() == "naïve\n".encode("utf-8")


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

    def test_line_loop_decodes_the_bytes_already_read(self, tmp_path, monkeypatch):
        # a comment line sends the file to the line loop, which reads nothing again
        path = tmp_path / "c.csv"
        path.write_text("# lead\nt,v\n0,1\n1,2\n2,3\n")
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", mock.Mock(side_effect=OSError("read again")))
        rt, rv = read_series_csv(path)
        assert reads == [path]
        assert np.array_equal(rt, [0.0, 1.0, 2.0]) and np.array_equal(rv, [1.0, 2.0, 3.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError):
            read_series_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "text, line",
        [("# comment\n\nt,v\n0,1\n1,1\n2.5,1\n3,1\n", 6), ("t,v\n0,1\n1,1\n2.5,1\n3,1\n", 4),
         ("0,1\n# c\n1,1\n\n2.5,1\n3,1\n", 5)],
        ids=["comment_and_blank_before_header", "plain", "interleaved"],
    )
    def test_jitter_error_names_the_physical_line(self, tmp_path, text, line):
        path = tmp_path / "j.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=rf"j\.csv:{line}: grid spacing varies"):
            read_series_csv(path)

    def test_byte_order_mark_before_data_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0,0\n1,1\n2,2\n3,3\n")
        rt, rv = read_series_csv(path)
        assert np.array_equal(rt, [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(rv, [0.0, 1.0, 2.0, 3.0])

    def test_byte_order_mark_before_header_keeps_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbft,v\n0,0\n1,1\n2,2\n")
        rt, rv = read_series_csv(path)
        assert np.array_equal(rt, [0.0, 1.0, 2.0])
        assert np.array_equal(rv, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("edge", ["1.5e308", "8e307"], ids=["span", "length"])
    def test_grid_length_overflowing_float64_is_rejected(self, tmp_path, edge):
        # 1.5e308: t[-1] - t[0] overflows; 8e307: the span is finite but n*dt is not
        path = tmp_path / "o.csv"
        path.write_text(f"x,v\n-{edge},0\n0,1\n{edge},0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match=r"o\.csv: grid length n\*dt .* overflows float64"):
                read_series_csv(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"t,v\n0,1\n1,\xff2\n")
        with pytest.raises(CsvFormatError, match=r"b\.csv: cannot read file \('utf-8' codec"):
            read_series_csv(path)


# --- the array-speed CSV paths against the cell-by-cell reference ------------

# edge values of float64: signed zeros, subnormals, the extremes, and the
# non-finite ones that become empty cells or reject a row; then the edges of
# the writer's exact digit path: each power of ten 1e-30..1e18 and its two
# neighbours (the exponent estimate and the fixed/exponent switch at 1e-4
# and 1e17), 99999999999999999 (the double 1e17), doubles just below a power
# of ten whose 17 digits round up to it (1e-14 among the powers, 1e-305,
# 1e+220 outside them), and the largest subnormal
_POWERS = [float(f"1e{k}") for k in range(-30, 19)]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, math.nan, math.inf, -math.inf, 1.0 / 3.0, 1e-9,
                *_POWERS, *(math.nextafter(x, 0.0) for x in _POWERS),
                *(math.nextafter(x, math.inf) for x in _POWERS),
                99999999999999999.0, 1e-305, 1e220, 2.2250738585072009e-308]
any_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
cell_text = st.text(st.characters(codec="ascii", exclude_characters=",\n\r"), max_size=6)


@st.composite
def tables(draw):
    """A header and 0-5 columns of one length, of every dtype the writer meets."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(
        ["float", "float_list", "bool", "int", "float32", "object"]), max_size=5))
    columns = []
    for kind in kinds:
        if kind in ("float", "float_list"):
            values = draw(st.lists(any_floats, min_size=n, max_size=n))
            columns.append(values if kind == "float_list" else np.array(values))
        elif kind == "bool":
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool))
        elif kind == "int":
            columns.append(np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n))))
        elif kind == "float32":
            columns.append(np.array(draw(st.lists(st.floats(width=32), min_size=n, max_size=n)),
                                    dtype=np.float32))
        else:
            cells = st.one_of(any_floats, st.booleans(), st.integers(-10**20, 10**20), cell_text)
            columns.append(np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=object))
    header = draw(st.lists(cell_text, min_size=len(columns), max_size=len(columns)))
    return header, columns


def _spell(draw, x: float, lossy: bool) -> str:
    """One number as a cell: exact as the writer or ``repr`` gives it, or
    rounded to fewer digits where ``lossy``."""
    spellings = [repr, "{:.17g}".format] + (["{:.6e}".format, "{:.3f}".format] if lossy else [])
    return draw(st.sampled_from(spellings))(x)


def _misspell(draw, cell: str) -> str:
    """The same number in a spelling ``float`` takes but a plain file does not have."""
    style = draw(st.sampled_from(["padded", "plus", "underscore", "arabic_one", "tab"]))
    if style == "padded":
        return f"  {cell} "
    if style == "plus" and not cell.startswith("-"):
        return "+" + cell
    if style == "underscore" and cell[:2].isdigit():
        return f"{cell[0]}_{cell[1:]}"
    if style == "arabic_one":
        return cell.replace("1", "\u0661")
    return f"\t{cell}"


@st.composite
def series_files(draw):
    """Text of a two-column series file, about half of them plain.

    Uniform coordinates with one node moved by a relative jitter on either
    side of the 1e-9 tolerance, values from a wide float range, an
    optional header; each of the following, at random, makes the file
    one that only the line loop may judge or one that it rejects: a
    non-increasing coordinate, a non-finite value, an unusual spelling of
    a number, stray lines (comments, blanks, wrong cell counts, inline
    ``#``, ``1_000``), and line breaks other than ``\\n``.
    """
    rare = lambda: draw(st.integers(0, 9)) == 0
    n = draw(st.integers(0, 10))
    x0 = draw(st.sampled_from([0.0, -3.5, 1e-300, 7.25]))
    dt = draw(st.sampled_from([1.0, 0.1, 1e-6, 3.0e5]))
    t = x0 + dt * np.arange(n)
    if n > 2:
        jitter = draw(st.sampled_from([0.0, 0.0, 5e-10, 9.9e-10, 1.01e-9, 2e-9, 1e-3]))
        t[draw(st.integers(1, n - 2))] += jitter * dt
    if n > 1 and rare():
        i = draw(st.integers(1, n - 1))
        t[i] = t[i - 1] if draw(st.booleans()) else t[i] - 2.0 * dt
    finite = [x for x in _EDGE_FLOATS if math.isfinite(x)]
    values = draw(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(finite)),
                           min_size=n, max_size=n))
    if n and rare():
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    cells = [_spell(draw, x, lossy) for pair in zip(t.tolist(), values)
             for x, lossy in zip(pair, (False, True))]
    if cells and rare():
        i = draw(st.integers(0, len(cells) - 1))
        cells[i] = _misspell(draw, cells[i])
    lines = [f"{a},{b}" for a, b in zip(cells[::2], cells[1::2])]
    if rare():
        stray = ["# note", "", "   ", "1_000,2", "1,2,3", "5", "1,", "a,b", "1.5 # inline,2"]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(stray)))
    header = draw(st.sampled_from([None, "t,value", " x , y ", "t,1.5", "1.5,t"]))
    if rare():
        header = draw(st.sampled_from(["time", "a,b,c", "t,v,"]))
    if header is not None:
        lines.insert(0, header)
    breaks = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]
    newline = draw(st.sampled_from(breaks)) if rare() else "\n"
    text = newline.join(lines)
    if lines and rare():
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(breaks + ["\n"])) + text[i:]
    return text + (newline if draw(st.booleans()) else "")


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCsvAgainstReference:
    """The writer's bytes and the reader's arrays or error text equal those
    of the cell-by-cell writer and line-by-line reader in reference.py."""

    @settings(max_examples=200, deadline=None)
    @given(table=tables(), block=st.integers(1, 5))
    def test_writer_matches_cell_by_cell_reference(self, table, block):
        # blocks of 1-5 rows
        header, columns = table
        cells = block * max(len(columns), 1)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csit_io, "_FIELD_CELLS", cells):
            path = Path(tmp) / "t.csv"
            write_table_csv(path, header, columns)
            assert path.read_bytes() == csv_table_text(header, columns).encode()

    @pytest.mark.parametrize(
        "block, tie",
        [(csit_io._FIELD_CELLS // 6, csit_io._TIE), (97, csit_io._TIE), (97, 0.0)],
        ids=["default_block", "small_block", "small_block_python_fallback"],
    )
    def test_writer_matches_reference_on_many_random_cells(self, tmp_path, block, tie):
        # 20000 rows x 6 columns: random bit patterns (any finite or
        # non-finite double), log-uniform magnitudes 1e-30..1e20 of either
        # sign, the edge values, integers and short decimals, bools, and
        # log-uniform values with NaN runs.  At 97 rows a block, the last
        # block holds 18 rows; a tie margin of 0 sends every rounding that
        # is not exact to Python's %.17g
        rng = np.random.default_rng(20261018)
        n = 20000
        bits = rng.integers(-2**63, 2**63, n, dtype=np.int64, endpoint=False).view(np.float64)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        log_uniform = sign * 10.0 ** rng.uniform(-30.0, 20.0, n)
        edges = np.resize(np.array(_EDGE_FLOATS), n)
        rng.shuffle(edges)
        decimals = np.round(rng.uniform(-1e6, 1e6, n), 3) * 10.0 ** rng.integers(-8, 9, n)
        flags = rng.random(n) < 0.5
        gappy = 10.0 ** rng.uniform(-30.0, 20.0, n)
        gappy[(np.arange(n) // 7) % 5 == 0] = np.nan
        header = ["bits", "log_uniform", "edges", "decimals", "flags", "gappy"]
        columns = [bits, log_uniform, edges, decimals, flags, gappy]
        with mock.patch.object(csit_io, "_FIELD_CELLS", block * len(columns)), \
                mock.patch.object(csit_io, "_TIE", tie):
            write_table_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_table_text(header, columns).encode()

    @pytest.mark.parametrize("path", sorted(CALIBRATION.glob("*/*.csv")),
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_calibration_csv_round_trips_byte_for_byte(self, tmp_path, path):
        x, u = read_series_csv(path)
        write_table_csv(tmp_path / "t.csv", ["x", "u"], [x, u])
        assert (tmp_path / "t.csv").read_bytes() == path.read_bytes()

    def test_writer_blocks_cover_every_row(self, tmp_path):
        # three full blocks of 1365 rows and five rows more
        x = np.linspace(-1.0, 1.0, 3 * (csit_io._FIELD_CELLS // 3) + 5)
        x[::7] = np.nan
        columns = [x, x > 0, np.arange(len(x))]
        write_table_csv(tmp_path / "t.csv", ["x", "b", "i"], columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_table_text(["x", "b", "i"], columns).encode()

    @settings(max_examples=500, deadline=None)
    @given(text=series_files())
    @example(text="t,value\n0,1\n1,2\n2,3\n")
    @example(text="0,1\n1,2\n2,3")
    @example(text="0,1\n1,2\n\n2,3\n")
    @example(text="0,1\n1,2 # c\n2,3\n")
    @example(text="0,1\n1_0,2\n2,3\n")
    @example(text="0,1\r\n1,2\r\n2,3\r\n")
    @example(text="0,1\n1,2\u20282,3\n")
    @example(text="0,1\n1,2\n2.000000002,3\n3,4\n")
    @example(text="# c\n\nt,v\n0,1\n1,2\n2.5,3\n3,4\n")
    @example(text="\ufeff0,0\n1,1\n2,2\n3,3\n")
    @example(text="\ufefft,v\n0,0\n1,1\n2,2\n")
    def test_reader_matches_line_by_line_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(text.encode())
            try:
                expected = read_series_lines(path)
            except CsvError as exc:
                with pytest.raises(CsvFormatError) as info:
                    read_series_csv(path)
                assert str(info.value) == str(exc)
            else:
                got = read_series_csv(path)
                assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1])

    @settings(max_examples=500, deadline=None)
    @given(text=series_files())
    def test_one_pass_accepts_only_what_the_loop_accepts(self, text):
        parsed = csit_io._parse_plain(text.encode())
        if parsed is not None:
            t, v, has_header, _ = parse_series_lines("s.csv", text)
            assert parsed[2] == has_header
            assert same_bits(parsed[0], t) and same_bits(parsed[1], v)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 40), x0=st.floats(-10.0, 10.0), dt=st.floats(1e-3, 10.0),
           data=st.data())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, n, x0, dt, data):
        t = x0 + dt * np.arange(n)
        v = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=n, max_size=n)))
        path = tmp_path_factory.mktemp("rt") / "s.csv"
        write_table_csv(path, ["t", "value"], [t, v])
        assert csit_io._parse_plain(path.read_bytes()) is not None
        rt, rv = read_series_csv(path)
        assert same_bits(rt, t) and same_bits(rv, v)

    @pytest.mark.parametrize(
        "text",
        ["# c\n0,1\n1,2\n", "0,1\n1,2 # c\n", "0,1\n1_0,2\n", "0,1\n\n1,2\n", "0,1\n   \n1,2\n",
         "0,1\r\n1,2\r\n", "0,1\r1,2\r", "0,1\x0c1,2\n", "0,1\u20281,2\n", "0,1\n\t1,2\n",
         "0,1\n\u0661,2\n", "0,1\n"],
        ids=["comment", "inline_comment", "underscore", "blank", "spaces_only", "crlf", "cr",
             "form_feed", "line_separator", "tab", "arabic_digit", "one_row"],
    )
    def test_unusual_files_go_to_the_line_loop(self, text):
        assert csit_io._parse_plain(text.encode()) is None


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

    @pytest.mark.parametrize("mode", ["quadrature", "symbol"])
    def test_bad_input_is_reported_before_bad_rectangle(self, tmp_path, mode):
        # both modes load the input first, as derive and ifreq do
        code = main(["transform", str(tmp_path / "no.csv"), "--mode", mode, "--H", "-1",
                     "--Z", "0.1", "--out", str(tmp_path / "o.csv")])
        assert code == 3


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

    @pytest.mark.parametrize("subcommand, demo", [("derive", "logistic"), ("ifreq", "chirp")])
    def test_demo_and_input_are_mutually_exclusive(self, tmp_path, subcommand, demo):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "o"
        for argv in ([src, "--demo", demo], []):
            err = assert_rejected([subcommand, *argv, "--out", out / "o.csv"], 2, out)
            assert err == "csit: error: provide exactly one of an input CSV or --demo"

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

    def test_one_run_computes_the_phase_rate_terms_once(self, tmp_path, monkeypatch):
        # the classical and the damped column share one numerator and x^2 + y^2
        calls = []
        terms = instfreq._phase_rate_terms

        def counted(tr, backend):
            calls.append(backend)
            return terms(tr, backend)

        monkeypatch.setattr(instfreq, "_phase_rate_terms", counted)
        for backend in ("pseudospectral", "fd"):
            assert main(["ifreq", "--demo", "chirp", "--n", "64", "--backend", backend,
                         "--out", str(tmp_path / f"{backend}.csv")]) == 0
        assert calls == ["pseudospectral", "fd"]

    @pytest.mark.parametrize(
        "peak, flags, digest",
        [(1e-170, [], "0d094a8283971bd26c4e61d29af1844f7141ada4b5f6bdf1bd36a4e67e753f7c"),
         (1e-170, ["--backend", "fd"],
          "0d094a8283971bd26c4e61d29af1844f7141ada4b5f6bdf1bd36a4e67e753f7c"),
         (0.0, ["--damping", "1e-200"],
          "5867fa93249d9d60885e7141e0fd0e7e4e52c83e7bffa6955a58f8e51d7ed250")],
        ids=["tiny_tone", "tiny_tone_fd", "zeros_with_tiny_damping"],
    )
    def test_vanishing_trace_runs_without_a_warning(self, tmp_path, peak, flags, digest):
        # x^2 + y^2 and the damping's square both underflow to 0, so the damped
        # ratio is 0/0: every such sample is invalid, as in the classical column,
        # and the run prints nothing; the digest pins the CSV, the bytes written
        # before the warning was silenced
        t, v = write_tone_csv(tmp_path / "tone.csv")
        src = tmp_path / "in.csv"
        write_table_csv(src, ["t", "value"], [t, peak * v if peak else np.zeros(len(t))])
        out = tmp_path / "f.csv"
        code, err, caught = run_cli(["ifreq", src, *flags, "--out", out])
        assert (code, err, caught) == (0, [], [])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "damping, scale",
        [("-1", 1.0), ("1e300", 1.0), ("0", 1e300)],
        ids=["negative", "square-overflows", "before-the-trace-overflow"],
    )
    def test_bad_damping_names_damping(self, tmp_path, damping, scale):
        # the damping is checked before the phase-rate terms, so a trace whose
        # terms overflow still reports it: flags exit 2 and a replay 3, one line
        src = tmp_path / "in.csv"
        t, v = write_tone_csv(tmp_path / "tone.csv")
        write_table_csv(src, ["t", "value"], [t, scale * v])
        message = f"damping (eps_damp) {float(damping):g} must be positive with a finite square"
        out = tmp_path / "o"
        err = assert_rejected(["ifreq", src, "--damping", damping, "--out", out / "f.csv"], 2, out)
        assert err == f"csit: error: {message}"
        assert main(["ifreq", str(tmp_path / "tone.csv"), "--out", str(tmp_path / "f.csv")]) == 0
        path = tmp_path / "f.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"].update(input=str(src), damping=float(damping))
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"


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
        out = tmp_path / "adv"
        assert main(["advect", "--scheme", "fd", "--config", str(cfg),
                     "--out-dir", str(out)]) == 4
        # every output is computed before the directory is created
        assert not out.exists()

    def test_unstable_replay_exits_4(self, tmp_path):
        run = tmp_path / "run"
        assert main(["advect", "--scheme", "fd", "--config", str(self._config(tmp_path)),
                     "--out-dir", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["parameters"]["cfl"] = 2.5
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert main(["replay", str(path), "--out-dir", str(out)]) == 4
        assert not out.exists()

    # the reference grid, just below and at or above each scheme's limit
    # c*dt*max_rate < 1 (fd reaches exactly 1 at cfl 1: n_x 500 is divisible by 4)
    STABILITY_CASES = [("fd", 0.999, 0), ("fd", 1.0, 4), ("pseudospectral", 0.3195, 0),
                       ("pseudospectral", 0.3197, 4), ("csit", 0.3245, 0), ("csit", 0.3246, 4)]

    @staticmethod
    def _assert_refused_or_run(code, expected, scheme, cfl, out, capsys):
        err = capsys.readouterr().err.splitlines()
        assert code == expected
        if expected == 0:
            assert err == [] and (out / "manifest.json").exists()
        else:
            assert len(err) == 1 and err[0].startswith(f"csit: error: {scheme} at cfl {cfl:g} ")
            assert "c*dt*max|sigma(k)| = " in err[0]
            assert not out.exists()

    @pytest.mark.parametrize("scheme, cfl, expected", STABILITY_CASES)
    def test_cfl_at_the_stability_limit(self, tmp_path, capsys, scheme, cfl, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cfl": cfl, "n_t": 4}))
        out = tmp_path / "adv"
        code = main(["advect", "--scheme", scheme, "--config", str(cfg), "--out-dir", str(out)])
        self._assert_refused_or_run(code, expected, scheme, cfl, out, capsys)

    @pytest.mark.parametrize("scheme, cfl, expected", STABILITY_CASES)
    def test_replay_at_the_stability_limit(self, tmp_path, capsys, scheme, cfl, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_t": 4}))
        run = tmp_path / "run"
        assert main(["advect", "--scheme", scheme, "--config", str(cfg), "--out-dir", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["parameters"]["cfl"] = cfl
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "replay"
        code = main(["replay", str(path), "--out-dir", str(out)])
        self._assert_refused_or_run(code, expected, scheme, cfl, out, capsys)

    def _rerun(self, cfg, out, snapshots):
        return main(["advect", "--scheme", "fd", "--config", str(cfg), "--snapshots", snapshots,
                     "--out-dir", str(out)])

    def test_rerun_removes_the_outputs_it_no_longer_writes(self, tmp_path):
        cfg, out = self._config(tmp_path), tmp_path / "adv"
        assert self._rerun(cfg, out, "0,1,2") == 0
        (out / "notes.txt").write_text("mine")
        assert self._rerun(cfg, out, "0,2") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["snapshot_000.csv", "snapshot_001.csv", "summary.json"]
        # only what the old manifest listed goes; a file no manifest names stays
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "snapshot_000.csv", "snapshot_001.csv", "summary.json"]

    def test_rerun_removes_only_plain_names_of_the_old_manifest(self, tmp_path):
        cfg, out = self._config(tmp_path), tmp_path / "adv"
        assert self._rerun(cfg, out, "0,1,2") == 0
        (tmp_path / "x").write_text("outside")
        (out / "sub").mkdir()
        (out / "sub" / "y").write_text("below")
        (out / "d").mkdir()
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"] += ["../x", "sub/y", str(tmp_path / "x"), "d", "..", "", 7, None]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert self._rerun(cfg, out, "0,2") == 0
        assert (tmp_path / "x").read_text() == "outside"
        assert (out / "sub" / "y").read_text() == "below"
        assert (out / "d").is_dir()
        assert not (out / "snapshot_002.csv").exists()

    @pytest.mark.parametrize("text", ["{broken", "[]", '{"subcommand": "advect"}',
                                      '{"subcommand": "advect", "parameters": {}, "outputs": "snapshot_002.csv"}',
                                      "[" * 100000 + "]" * 100000],
                             ids=["broken", "array", "no_parameters", "outputs_string", "too_deep"])
    def test_rerun_over_a_malformed_manifest_removes_nothing(self, tmp_path, text):
        cfg, out = self._config(tmp_path), tmp_path / "adv"
        assert self._rerun(cfg, out, "0,1,2") == 0
        (out / "manifest.json").write_text(text)
        assert self._rerun(cfg, out, "0,2") == 0
        assert (out / "snapshot_002.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["outputs"][-1] == "summary.json"

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
    def test_each_function_is_evaluated_once(self, tmp_path):
        # sin, cos, exp, gaussian; the exp(i x) row reuses the sin and cos results
        with mock.patch.object(operators, "csit_quadrature_direct",
                               wraps=operators.csit_quadrature_direct) as direct:
            assert main(["table1", "--out", str(tmp_path / "t.csv")]) == 0
        assert direct.call_count == 4

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

    @pytest.mark.parametrize("scheme", ["fd", "pseudospectral", "csit"])
    def test_calibration_runs_replay(self, tmp_path, scheme):
        committed = CALIBRATION / f"advect_{scheme}"
        out = tmp_path / "replay"
        assert main(["replay", str(committed / "manifest.json"), "--out-dir", str(out)]) == 0
        names = ["snapshot_000.csv", "snapshot_001.csv", "summary.json"]
        if scheme == "fd":
            for name in names:
                assert (out / name).read_bytes() == (committed / name).read_bytes(), name
            return
        # the committed spectral runs predate the half-spectrum multiplier
        for name in names[:2]:
            got = np.loadtxt(out / name, delimiter=",", skiprows=1)
            ref = np.loadtxt(committed / name, delimiter=",", skiprows=1)
            assert np.array_equal(got[:, 0], ref[:, 0])
            assert np.max(np.abs(got[:, 1] - ref[:, 1])) <= 1e-12 * np.max(np.abs(ref[:, 1]))
        got, ref = (json.loads((d / "summary.json").read_text()) for d in (out, committed))
        np.testing.assert_allclose(got["window"], ref["window"], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose([e["centroid"] for e in got["snapshots"]],
                                   [e["centroid"] for e in ref["snapshots"]], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("argv", [["replay", "{path}"], ["advect", "--config", "{path}"]],
                             ids=["replay", "config"])
    def test_json_nested_too_deep_exits_3(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "o"
        assert main([a.format(path=path) for a in argv] + ["--out-dir", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("csit: error:") and "invalid JSON" in err[0]
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv, keys",
        [(["symbol", "--samples", "7"], {"sampels": 7}),
         (["advect", "--scheme", "fd"], {"CFL": 0.9, "zzz": None}),
         (["table1"], {"threads": None, "out_dir": "x"})],
        ids=["symbol", "advect", "table1"],
    )
    def test_unknown_parameter_in_manifest_exits_3(self, tmp_path, argv, keys):
        path, _ = replayable(tmp_path, argv)
        manifest = json.loads(path.read_text())
        manifest["parameters"].update(keys)
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        unknown = sorted(set(keys) - {"threads"})
        assert err == f"csit: error: {path}: bad parameters: unknown parameter fields {unknown}"

    @pytest.mark.parametrize(
        "argv",
        [["transform", "tone.csv", "--H", "0.02", "--Z", "0.01"],
         ["derive", "--demo", "logistic", "--n", "64"],
         ["ifreq", "--demo", "chirp", "--n", "64"],
         ["advect", "--scheme", "fd"],
         ["table1"]],
        ids=["transform", "derive", "ifreq", "advect", "table1"],
    )
    def test_legacy_threads_entry_replays_for_every_subcommand(self, tmp_path, argv):
        path, outputs = replayable(tmp_path, argv)
        manifest = json.loads(path.read_text())
        manifest["parameters"]["threads"] = 2
        path.write_text(json.dumps(manifest))
        replay_dir = tmp_path / "replay"
        assert main(["replay", str(path), "--out-dir", str(replay_dir)]) == 0
        for name in outputs:
            assert (replay_dir / name).read_bytes() == (path.parent / name).read_bytes(), name


def replayable(tmp_path, argv):
    """Run ``argv`` (a small run; ``tone.csv`` names a tone) into ``tmp_path / "run"``;
    its manifest path and the names of its other outputs."""
    write_tone_csv(tmp_path / "tone.csv")
    argv = [str(tmp_path / a) if a == "tone.csv" else a for a in argv]
    run = tmp_path / "run"
    if argv[0] == "advect":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 32, "n_t": 8}))
        assert main([*argv, "--config", str(cfg), "--out-dir", str(run)]) == 0
        path = run / "manifest.json"
    else:
        assert main([*argv, "--out", str(run / "x.csv")]) == 0
        path = run / "x.csv.manifest.json"
    return path, json.loads(path.read_text())["outputs"]


class TestUsageSurface:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "transform" in capsys.readouterr().out

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version_string(self, tmp_path, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "0.1.0" in out
        # one version constant: the flag and every new manifest read it
        assert out == f"csit {csit.__version__}\n"
        assert main(["symbol", "--samples", "2", "--out", str(tmp_path / "s.csv")]) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["version"] == csit.__version__

    def test_manifests_name_every_listed_subcommand_but_replay(self, tmp_path, capsys):
        # one table lists the subcommands for the parser and for replay
        assert main(["--help"]) == 0
        listed = re.search(r"\{([a-z0-9,]+)\}", capsys.readouterr().out).group(1).split(",")
        assert listed == list(cli._COMMANDS)
        nameable = []
        for name in listed:
            path = write_manifest(tmp_path, name, {})
            out = tmp_path / "o"
            err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
            if err != f"csit: error: {path}: unknown subcommand {name!r}":
                assert err.startswith(f"csit: error: {path}: bad parameters: "), err
                nameable.append(name)
        assert nameable == [name for name in listed if name != "replay"]

    @pytest.mark.parametrize(
        "name", ["csit", "transform", "derive", "advect", "ifreq", "symbol", "table1", "replay"]
    )
    def test_help_text_is_unchanged(self, monkeypatch, capsys, name):
        # the flag surface, byte for byte, at a pinned terminal width
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["--help"] if name == "csit" else [name, "--help"]) == 0
        assert capsys.readouterr().out.encode() == (HELP / f"{name}.txt").read_bytes()


class TestDefaultsHaveOneSource:
    """With no optional flags, each default comes from the library's own definition."""

    def test_advect_defaults_are_the_reference_config(self, tmp_path):
        assert main(["advect", "--out-dir", str(tmp_path / "adv")]) == 0
        params = json.loads((tmp_path / "adv" / "manifest.json").read_text())["parameters"]
        ref = reference_config()
        for key in ("c", "L", "x_s", "f0", "n_x", "cfl", "n_t"):
            assert params[key] == getattr(ref, key), key
            assert type(params[key]) is type(getattr(ref, key)), key

    @pytest.mark.parametrize("flags", [[], ["--dx", "0.37"]], ids=["default", "dx"])
    def test_symbol_extents_are_the_reference_extents(self, tmp_path, flags):
        assert main(["symbol", *flags, "--out", str(tmp_path / "s.csv")]) == 0
        params = json.loads((tmp_path / "s.csv.manifest.json").read_text())["parameters"]
        p = default_csit_params(params["dx"])
        assert (params["H"], params["Z"]) == (p.eta_half_width, p.tau_max)

    def test_ifreq_rectangle_is_the_default_shift_rectangle(self, tmp_path):
        assert main(["ifreq", "--demo", "chirp", "--out", str(tmp_path / "f.csv")]) == 0
        params = json.loads((tmp_path / "f.csv.manifest.json").read_text())["parameters"]
        p = default_if_params(1.0 / params["n"])
        assert (params["H"], params["Z"], params["eps"]) == (p.eta_half_width, p.tau_max, p.tau_min)


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


# the growth error of a 64-sample grid on [0, 1) with Z = 1000
RANGE_GROWTH = "continuation step too large: Z (tau_max) 1000 times wavenumber 201.062 exceeds 700"


def assert_range_error_names_key(tmp_path, subcommand, key, value, message):
    """A flag gives exit 2 and a manifest entry exit 3, both with ``message``."""
    src = tmp_path / "tone.csv"
    write_tone_csv(src)
    argv = [subcommand, src, "--H", "0.02", "--Z", "0.01", "--out", tmp_path / "q.csv"]
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
            (["--dx", "0"], "dx must be positive"),
            (["--dx", "-1"], "dx must be positive"),
        ],
    )
    def test_symbol_checks_extents(self, tmp_path, flags, match):
        out = tmp_path / "o" / "s.csv"
        err = assert_rejected(["symbol", *flags, "--out", out], 2, out.parent)
        assert match in err

    @pytest.mark.parametrize("c, dx", [(1e308, 1e-10), (1e300, 1e-300), (-1e308, 1e-10)])
    def test_symbol_with_overflowing_c_over_dx_exits_2(self, tmp_path, c, dx):
        # c/dx is inf, and the fd dispersion would be inf * 0 = NaN at k = 0
        message = f"c/dx overflows for c {c!r} and dx {dx!r}"
        out = tmp_path / "o"
        err = assert_rejected(["symbol", f"--c={c!r}", f"--dx={dx!r}", "--out", out / "s.csv"],
                              2, out)
        assert err == f"csit: error: {message}"
        path = write_manifest(tmp_path, "symbol", {"kmax": None, "samples": 4, "H": None,
                                                   "Z": None, "dx": dx, "c": c, "out": "s.csv"})
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    @pytest.mark.parametrize(
        "flags, message",
        [({"samples": 16, "H": 1e308},
          "H (eta_half_width) 1e+308 times wavenumber 3.14159 overflows"),
         ({"samples": 3, "dx": 1e300, "kmax": 1e300, "Z": 1e-298, "H": 0.0},
          "kmax*dx overflows for kmax 1e+300 and dx 1e+300"),
         ({"samples": 3, "kmax": 1e300, "Z": 1e-298, "H": 0.0},
          "shi(kmax*Z)/Z overflows for kmax 1e+300 and Z 1e-298")],
        ids=["k_times_H", "kmax_times_dx", "shi_over_Z"],
    )
    def test_symbol_with_overflowing_columns_exits_2(self, tmp_path, flags, message):
        # each would leave empty cells in abs_sigma_csit, omega_fd or abs_sigma_single
        out = tmp_path / "o"
        argv = [f"--{key}={value!r}" for key, value in flags.items()]
        err = assert_rejected(["symbol", *argv, "--out", out / "s.csv"], 2, out)
        assert err == f"csit: error: {message}"
        parameters = {"kmax": None, "samples": 200, "H": None, "Z": None, "dx": 1.0, "c": 1.0,
                      "out": "s.csv"}
        path = write_manifest(tmp_path, "symbol", {**parameters, **flags})
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    @pytest.mark.parametrize("subcommand", ["transform", "derive", "ifreq"])
    def test_overflowing_k_times_H_names_key(self, tmp_path, subcommand):
        # k*eta would overflow in the quadrature multiplier's cosines; 2*H is still finite
        assert_range_error_names_key(tmp_path, subcommand, "H", 1e307,
                                     "H (eta_half_width) 1e+307 times wavenumber 201.062 overflows")

    @pytest.mark.parametrize("argv", [["transform", "--H", "0.02", "--Z", "0.01"], ["derive"],
                                      ["ifreq"], ["symbol"], ["symbol", "--H", "0"],
                                      ["symbol", "--kmax", "7e2", "--Z", "1"]],
                             ids=["transform", "derive", "ifreq", "symbol", "symbol_H0",
                                  "symbol_growth_limit"])
    def test_each_run_checks_the_range_rule_once(self, tmp_path, monkeypatch, argv):
        # the kernel that builds the multiplier checks the rectangle against the
        # grid; the command line and CsitParams do not check it again, and
        # symbol's abs_sigma_single reuses the k and Z of its csit column
        calls = []
        check = continuation._check_range
        for module in (continuation, operators, instfreq):
            def counted(k, eta_half_width, tau_max, name=module.__name__):
                calls.append(name)
                return check(k, eta_half_width, tau_max)

            monkeypatch.setattr(module, "_check_range", counted)
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        inputs = [] if argv[0] == "symbol" else [str(src)]
        assert main([argv[0], *inputs, *argv[1:], "--out", str(tmp_path / "o.csv")]) == 0
        assert calls == ["csit.instfreq" if argv[0] == "ifreq" else "csit.operators"]

    @pytest.mark.parametrize(
        "argv, digest",
        [(["transform", "--mode", "symbol", "--H", "0"],
          "d83a048e525287b7bc5926900f414ab1d9d3145cd6508adbe451203ffbf7ca58"),
         (["transform", "--H", "1e-15"], "d7acde186f98cdce74570154ae40828957ed9123b4254d4a7779317061ae86cf"),
         (["derive", "--H", "1e-15"], "d3afc1e677a1747380e8313528426c8b9b3d7d8b910a318433e2a1a0e6de4d03")],
        ids=["symbol", "quadrature", "derive"],
    )
    def test_multiplier_overflow_at_the_even_nyquist_bin_is_dropped(self, tmp_path, argv, digest):
        # spacing 1e-14 and Z 2.2e-12: max|k|*Z is 691, within the growth limit,
        # but the multiplier overflows at the Nyquist bin alone, which is zeroed;
        # the run writes its earlier bytes, now without a numpy warning
        src = tmp_path / "fine.csv"
        j = np.arange(64)
        write_table_csv(src, ["t", "value"], [j * 1e-14, np.sin(2.0 * np.pi * 3.0 * j / 64)])
        out = tmp_path / "o.csv"
        code, err, caught = run_cli([argv[0], src, *argv[1:], "--Z", "2.2e-12", "--out", out])
        assert (code, err, caught) == (0, [], [])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("mode, H", [("symbol", "0"), ("quadrature", "1e-24")])
    def test_multiplier_overflow_below_the_nyquist_bin_names_the_extent(self, tmp_path, mode, H):
        # 65 rows at spacing 4.45e-23 and Z 1e-20: max|k|*Z is 695, and the
        # multiplier overflows at the two highest kept wavenumbers
        src = tmp_path / "fine.csv"
        j = np.arange(65)
        write_table_csv(src, ["t", "value"], [j * 4.45e-23, np.sin(2.0 * np.pi * 3.0 * j / 65)])
        out = tmp_path / "o"
        err = assert_rejected(["transform", src, "--mode", mode, "--H", H, "--Z", "1e-20",
                               "--out", out / "q.csv"], 2, out)
        assert err == ("csit: error: the multiplier of Z (tau_max) 1e-20 overflows float64 "
                       "at wavenumber 6.73392e+22")

    def test_overflowing_continuation_is_one_line(self, tmp_path):
        # max|k|*Z = 690 is within the growth limit, but exp(690) times a
        # 1e100 trace overflows in if_csit's continuation
        src = tmp_path / "big.csv"
        tone = tmp_path / "tone.csv"
        t, v = write_tone_csv(tone, n=256)
        write_table_csv(src, ["t", "value"], [t, 1e100 * v])
        flags = ["--H", "0.1", "--Z", "0.858", "--n-tau", "3", "--damping", "1"]
        message = ("series too large (peak |value| 1e+100): "
                   "its continuation off the real axis overflows float64")
        out = tmp_path / "o"
        err = assert_rejected(["ifreq", src, *flags, "--out", out / "f.csv"], 2, out)
        assert err == f"csit: error: {message}"
        run = tmp_path / "run"
        assert main(["ifreq", str(tone), *flags, "--out", str(run / "f.csv")]) == 0
        manifest = json.loads((run / "f.csv.manifest.json").read_text())
        manifest["parameters"]["input"] = str(src)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    @pytest.mark.parametrize("argv", [["transform", "--H", "0.01", "--Z", "0.01"],
                                      ["transform", "--mode", "symbol", "--H", "0.01", "--Z", "0.01"],
                                      ["derive"], ["ifreq"]],
                             ids=["quadrature", "symbol", "derive", "ifreq"])
    def test_near_maximum_values_name_the_overflow(self, tmp_path, argv):
        # each route's output overflows float64: one line, no numpy warning
        src = tmp_path / "huge.csv"
        j = np.arange(64)
        write_table_csv(src, ["t", "value"], [j / 64, np.where(j % 2 == 0, 1.7e308, -1.7e308)])
        out = tmp_path / "o"
        err = assert_rejected([argv[0], src, *argv[1:], "--out", out / "f.csv"], 2, out)
        assert err == ("csit: error: series too large (peak |value| 1.7e+308): "
                       "the operator's output overflows float64")

    @pytest.mark.parametrize(
        "flags, start",
        [({"eps": 1e-320}, "eps (tau_min) 9.99989e-321 is too small"),
         ({"n_eta": MAX_COUNT, "n_tau": MAX_COUNT}, "Unable to allocate 19.5 PiB")],
        ids=["subnormal_eps", "unallocatable_nodes"],
    )
    def test_ifreq_run_that_cannot_finish_exits_2(self, tmp_path, flags, start):
        # a subnormal eps overflows the division by tau; 2^20 nodes per axis
        # ask numpy for a 19.5 PiB integrand, which it refuses at allocation
        run = tmp_path / "run"
        assert main(["ifreq", "--demo", "chirp", "--out", str(run / "f.csv")]) == 0
        argv = [f"--{key.replace('_', '-')}={value!r}" for key, value in flags.items()]
        out = tmp_path / "o"
        err = assert_rejected(["ifreq", "--demo", "chirp", *argv, "--out", out / "f.csv"], 2, out)
        assert err.startswith(f"csit: error: {start}"), err
        manifest = json.loads((run / "f.csv.manifest.json").read_text())
        manifest["parameters"].update(flags)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err.startswith(f"csit: error: {path}: bad parameters: {start}"), err

    def test_ifreq_with_smallest_working_eps_is_unchanged(self, tmp_path):
        # 1e-315 still divides without overflow; the check leaves its outputs alone
        out = tmp_path / "f.csv"
        code, err, caught = run_cli(["ifreq", "--demo", "chirp", "--eps", "1e-315", "--out", out])
        assert (code, err, caught) == (0, [], [])
        assert np.all(np.isfinite(np.genfromtxt(out, delimiter=",", names=True)["if_csit"]))

    def test_symbol_mode_transform_checks_k_times_H(self, tmp_path):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        out = tmp_path / "o"
        err = assert_rejected(["transform", src, "--mode", "symbol", "--H", "1e308", "--Z", "0.01",
                               "--out", out / "s.csv"], 2, out)
        assert err == "csit: error: H (eta_half_width) 1e+308 times wavenumber 201.062 overflows"

    def test_overflowing_eta_span_exits_2(self, tmp_path):
        # spacing 2: max|k|*H is finite, but the eta nodes span 2*H
        src = tmp_path / "coarse.csv"
        src.write_text("t,value\n" + "".join(f"{2 * i},{math.sin(i)}\n" for i in range(16)))
        message = "H (eta_half_width) 1e+308 is too large: 2*H overflows"
        out = tmp_path / "o"
        argv = ["transform", src, "--H", "1e308", "--Z", "0.01"]
        err = assert_rejected([*argv, "--out", out / "q.csv"], 2, out)
        assert err == f"csit: error: {message}"
        assert main([str(a) for a in ["transform", src, "--H", "0.5", "--Z", "0.01", "--out", tmp_path / "q.csv"]]) == 0
        path = tmp_path / "q.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"]["H"] = 1e308
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    def test_symbol_with_tiny_spacing_runs(self, tmp_path):
        # 1/(2*H*Z) overflows for the default extents of dx = 1e-200, and
        # symbol, which builds no quadrature, does not need it finite
        code, err, caught = run_cli(["symbol", "--dx", "1e-200", "--samples", "4",
                                     "--out", tmp_path / "s.csv"])
        assert (code, err, caught) == (0, [], [])

    def test_nonpositive_damping_exits_2(self, tmp_path):
        out = tmp_path / "o" / "f.csv"
        assert_rejected(["ifreq", "--demo", "chirp", "--n", "200", "--damping", "-1",
                         "--out", out], 2, out.parent)

    def test_damping_with_overflowing_square_exits_2(self, tmp_path):
        out = tmp_path / "o" / "f.csv"
        assert_rejected(["ifreq", "--demo", "chirp", "--n", "200", "--damping", "1e300",
                         "--out", out], 2, out.parent)

    @pytest.mark.parametrize("shape", ["steps", "tone"])
    def test_subnormal_trace_runs(self, tmp_path, shape):
        # the analytic trace of subnormal samples passes its one-sided check,
        # and the default damping, whose 1e-3 of the peak underflows, is 1e-3
        tiny = np.finfo(np.float64).smallest_subnormal
        t = np.arange(64) / 64
        values = {"steps": np.resize([-tiny, 0.0, tiny], 64),
                  "tone": 3.0 * tiny * np.sin(2.0 * np.pi * 3.0 * t)}[shape]
        src = tmp_path / "tiny.csv"
        write_table_csv(src, ["t", "value"], [t, values])
        out = tmp_path / "f.csv"
        code, err, caught = run_cli(["ifreq", src, "--out", out])
        assert (code, err, caught) == (0, [], [])
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["parameters"]["damping"] == 1e-3

    def test_default_damping_of_huge_data_names_the_trace(self, tmp_path):
        # 1e-3 of a peak amplitude of 1e158 has no finite square, but the
        # default is resolved after the phase-rate terms, whose overflow is
        # the cause: flags exit 2 and a replay 3, each one line, no warning
        huge = tmp_path / "huge.csv"
        t, v = write_tone_csv(tmp_path / "tone.csv")
        write_table_csv(huge, ["t", "value"], [t, 1e158 * v])
        message = ("trace too large (peak |x|, |y| 1e+158): "
                   "x*dy/dt - y*dx/dt or x^2 + y^2 overflows float64")
        out = tmp_path / "o"
        err = assert_rejected(["ifreq", huge, "--out", out / "f.csv"], 2, out)
        assert err == f"csit: error: {message}"
        assert main(["ifreq", str(tmp_path / "tone.csv"), "--out", str(tmp_path / "f.csv")]) == 0
        path = tmp_path / "f.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"].update(input=str(huge), damping=None)
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    def test_huge_trace_names_the_overflow(self, tmp_path):
        # with a damping whose square is finite, a trace near 1e300 still
        # overflows x*dy/dt - y*dx/dt and x^2 + y^2: flags exit 2 and a
        # replay 3, each one line, no warning and no output
        huge = tmp_path / "huge.csv"
        t, v = write_tone_csv(tmp_path / "tone.csv")
        write_table_csv(huge, ["t", "value"], [t, 1e300 * v])
        message = ("trace too large (peak |x|, |y| 1e+300): "
                   "x*dy/dt - y*dx/dt or x^2 + y^2 overflows float64")
        out = tmp_path / "o"
        err = assert_rejected(["ifreq", huge, "--damping", "1", "--out", out / "f.csv"], 2, out)
        assert err == f"csit: error: {message}"
        assert main(["ifreq", str(tmp_path / "tone.csv"), "--damping", "1",
                     "--out", str(tmp_path / "f.csv")]) == 0
        path = tmp_path / "f.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"]["input"] = str(huge)
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    @pytest.mark.parametrize(
        "key, value, message",
        [("f0", 1e308, "source peak frequency f0 1e+308 is out of range"),
         ("f0", 1e-320, "source peak frequency f0 9.99989e-321 is out of range"),
         ("f0", 5e-324, "source peak frequency f0 4.94066e-324 is out of range"),
         ("c", 1e-154, "c 1e-154 with cfl 0.25 lets the source alone add"),
         ("c", 1e-300, "c 1e-300 with cfl 0.25 lets the source alone add"),
         ("L", 1e308, "domain length L 1e+308 is too large: 2*pi*L overflows float64")],
    )
    def test_advect_parameters_that_cannot_drive_a_run(self, tmp_path, key, value, message):
        # a parameter fault, not a divergence: --config exits 2 and a replay
        # 3, each one line naming the key, no warning and no directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 32, "n_t": 8}))
        run = tmp_path / "run"
        assert main(["advect", "--config", str(cfg), "--out-dir", str(run)]) == 0
        cfg.write_text(json.dumps({"n_x": 32, "n_t": 8, key: value}))
        out = tmp_path / "o"
        err = assert_rejected(["advect", "--config", cfg, "--out-dir", out], 2, out)
        assert err.startswith(f"csit: error: {message}"), err
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["parameters"].update({key: value, "t_delay": None})
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err.startswith(f"csit: error: {path}: bad parameters: {message}"), err

    @pytest.mark.parametrize("key, value", [("snapshots", "0,1"), ("window", 5)])
    def test_advect_manifest_list_that_is_not_a_list_exits_3(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 32, "n_t": 8}))
        run = tmp_path / "run"
        assert main(["advect", "--config", str(cfg), "--out-dir", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["parameters"][key] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {key} must be a list of numbers, got {value!r}"

    def test_advect_snapshot_times_too_large_for_the_speed_fit(self, tmp_path):
        # L 1e307 puts the default snapshot times near 7e302, whose squares
        # overflow the pulse-speed fit: --config exits 2 and a replay 3,
        # each one line naming n_t and dt, no warning and no directory
        message = ("snapshot times up to 6.94444e+302 s (n_t 8, dt 8.68056e+301 s) are too "
                   "large: the speed fit's sum of their squares overflows float64")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 32, "n_t": 8}))
        run = tmp_path / "run"
        assert main(["advect", "--config", str(cfg), "--out-dir", str(run)]) == 0
        cfg.write_text(json.dumps({"n_x": 32, "n_t": 8, "L": 1e307}))
        out = tmp_path / "o"
        err = assert_rejected(["advect", "--config", cfg, "--out-dir", out], 2, out)
        assert err == f"csit: error: {message}"
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["parameters"].update(L=1e307, snapshots=None, t_delay=None)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    def test_advect_last_step_time_that_overflows(self, tmp_path):
        # L 2e307 at c 0.01 gives dt 3.125e307 s, so (n_t - 1)*dt overflows
        # float64: --config exits 2 and a replay 3, one line, no directory
        message = ("the last step time (n_t - 1)*dt overflows float64: n_t 10, "
                   "dt = cfl*dx/c = 3.125e+307 s")
        huge = {"c": 0.01, "L": 2e307, "x_s": 1e307, "n_x": 16, "n_t": 10, "f0": 1e-300}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 16, "n_t": 10}))
        run = tmp_path / "run"
        assert main(["advect", "--config", str(cfg), "--out-dir", str(run)]) == 0
        cfg.write_text(json.dumps(huge))
        out = tmp_path / "o"
        err = assert_rejected(["advect", "--scheme", "fd", "--config", cfg, "--snapshots", "0",
                               "--out-dir", out], 2, out)
        assert err == f"csit: error: {message}"
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["parameters"].update(huge, snapshots=[0.0], t_delay=None)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: bad parameters: {message}"

    def test_summary_is_strict_json(self, tmp_path):
        # no NaN or Infinity in summary.json: a window holding none of the
        # energy gives a null ratio, and any other non-finite entry refuses
        # the run, naming the entry
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 16, "n_t": 1, "x_s": 100.0}))
        out = tmp_path / "adv"
        code, err, caught = run_cli(["advect", "--scheme", "fd", "--config", cfg,
                                     "--window", "2000,6000", "--out-dir", out])
        assert (code, err, caught) == (0, [], [])
        summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
        assert [entry["parasitic_energy"] for entry in summary["snapshots"]] == [0.0, None]
        out = tmp_path / "nan"
        with mock.patch.object(cli, "parasitic_energy", return_value=math.nan):
            err = assert_rejected(["advect", "--config", cfg, "--out-dir", out], 2, out)
        assert err == "csit: error: summary entry snapshots[0].parasitic_energy = nan is not finite"

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

    def test_logistic_derivative_underflowing_everywhere_exits_2(self, tmp_path):
        # 1/k * 745 < one spacing: f is 0 or 1 at every node, so the error scale is 0
        out = tmp_path / "o" / "d.csv"
        err = assert_rejected(["derive", "--demo", "logistic", "--k", "1e300", "--t0", "0.1234567",
                               "--out", out], 2, out.parent)
        assert "k 1e+300 and t0 0.1234567" in err

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
         ("eps", 1, "eps (tau_min) must lie strictly between 0 and Z (tau_max)"),
         ("Z", 1000, RANGE_GROWTH)],
        ids=["Z", "H", "eps", "Z_growth"],
    )
    def test_range_errors_name_key_and_field(self, tmp_path, key, value, message):
        assert_range_error_names_key(tmp_path, "transform", key, value, message)

    @pytest.mark.parametrize("subcommand", ["derive", "ifreq"])
    @pytest.mark.parametrize(
        "key, value, message",
        [("Z", -1, "Z (tau_max) must be positive and finite"),
         ("eps", 1, "eps (tau_min) must lie strictly between 0 and Z (tau_max)"),
         ("Z", 1000, RANGE_GROWTH)],
        ids=["Z", "eps", "Z_growth"],
    )
    def test_derive_and_ifreq_range_errors_name_key_and_field(self, tmp_path, subcommand,
                                                              key, value, message):
        assert_range_error_names_key(tmp_path, subcommand, key, value, message)

    @pytest.mark.parametrize("trim", [0.5, -0.1])
    def test_trim_out_of_range_names_key(self, tmp_path, trim):
        message = "trim (fraction) must lie in [0, 0.5)"
        out = tmp_path / "o"
        err = assert_rejected(["ifreq", "--demo", "chirp", "--n", "64", "--trim", trim,
                               "--out", out / "f.csv"], 2, out)
        assert err == f"csit: error: {message}"
        assert main(["ifreq", "--demo", "chirp", "--n", "64", "--out", str(tmp_path / "f.csv")]) == 0
        path = tmp_path / "f.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"]["trim"] = trim
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

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"abc"'])
    def test_manifest_must_be_a_json_object(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        out = tmp_path / "replay"
        err = assert_rejected(["replay", path, "--out-dir", out], 3, out)
        assert err == f"csit: error: {path}: manifest must be a JSON object"

    @pytest.mark.parametrize("what", ["input", "manifest", "config"])
    def test_non_utf8_input_exits_3_naming_the_file(self, tmp_path, what):
        out = tmp_path / "out"
        if what == "input":
            path = tmp_path / "bad.csv"
            path.write_bytes(b"t,value\n0,1\n1,\xff2\n")
            argv = ["transform", path, "--H", "0.02", "--Z", "0.01", "--out", out / "q.csv"]
            wording = "cannot read file"
        else:
            path = tmp_path / "bad.json"
            path.write_bytes(b'{"x_s": "\xff"}')
            if what == "manifest":
                argv = ["replay", path, "--out-dir", out]
            else:
                argv = ["advect", "--config", path, "--out-dir", out]
            wording = f"cannot read {what}"
        err = assert_rejected(argv, 3, out)
        assert err.startswith(f"csit: error: {path}: {wording} ('utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("edge", ["1.5e308", "8e307"], ids=["span", "length"])
    @pytest.mark.parametrize(
        "argv",
        [["transform", "--H", "1", "--Z", "1"], ["transform", "--mode", "symbol", "--H", "1", "--Z", "1"],
         ["ifreq"], ["derive"]],
        ids=["transform", "transform_symbol", "ifreq", "derive"],
    )
    def test_grid_length_overflowing_float64_exits_3(self, tmp_path, edge, argv):
        path = tmp_path / "o.csv"
        path.write_text(f"x,v\n-{edge},0\n0,1\n{edge},0\n")
        out = tmp_path / "out"
        err = assert_rejected([argv[0], path, *argv[1:], "--out", out / "r.csv"], 3, out)
        assert err.startswith(f"csit: error: {path}: grid length n*dt")

    @pytest.mark.parametrize("what", ["manifest", "config"])
    def test_byte_order_mark_before_json_is_skipped(self, tmp_path, what):
        if what == "config":
            path = tmp_path / "cfg.json"
            path.write_bytes(b'\xef\xbb\xbf{"n_x": 32, "n_t": 8}')
            assert main(["advect", "--config", str(path), "--out-dir", str(tmp_path / "adv")]) == 0
            return
        assert main(["symbol", "--samples", "4", "--out", str(tmp_path / "s.csv")]) == 0
        path = tmp_path / "s.csv.manifest.json"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        replay_dir = tmp_path / "replay"
        assert main(["replay", str(path), "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "s.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

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


# --- one parser per process ---------------------------------------------------


def run_outputs(argv, out_dir):
    """Run ``argv`` into ``out_dir``; the manifest parameters and the bytes
    of every other file written."""
    out_dir = Path(out_dir)
    target = ["--out-dir", out_dir] if argv[0] in ("advect", "replay") else ["--out", out_dir / "x.csv"]
    assert main([str(a) for a in [*argv, *target]]) == 0
    manifest = next(out_dir.glob("*manifest.json"))
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p != manifest}
    return json.loads(manifest.read_text())["parameters"], files


def fresh_parser():
    """The next ``main`` call builds its parser, as the first call of a process does."""
    return mock.patch.object(cli, "_parser", None)


class TestParserReuse:
    def test_build_parser_runs_once_over_several_calls(self, tmp_path, capsys):
        with fresh_parser(), mock.patch.object(cli, "build_parser",
                                               wraps=cli.build_parser) as build:
            for index in range(3):
                assert main(["symbol", "--samples", "4", "--out", str(tmp_path / f"{index}.csv")]) == 0
            assert main(["--version"]) == 0
            assert main(["symbol", "--samples", "zz"]) == 2
        capsys.readouterr()
        assert build.call_count == 1

    def test_build_parser_returns_a_new_parser_each_call(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "subcommand, flags",
        [("ifreq", ["--damping", "0.5"]), ("advect", ["--window", "1000,4000"]),
         ("transform", ["--eps", "0.002", "--rule", "midpoint"])],
    )
    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, subcommand, flags):
        src = tmp_path / "tone.csv"
        write_tone_csv(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_x": 32, "n_t": 8}))
        base = {
            "ifreq": ["ifreq", "--demo", "chirp", "--n", "64"],
            "advect": ["advect", "--scheme", "fd", "--config", cfg],
            "transform": ["transform", src, "--H", "0.02", "--Z", "0.01",
                          "--n-eta", "4", "--n-tau", "4"],
        }[subcommand]
        with fresh_parser():
            first = run_outputs(base, tmp_path / "first")
            flagged = run_outputs([*base, *flags], tmp_path / "flagged")
            again = run_outputs(base, tmp_path / "again")
        assert flagged[0] != first[0]
        assert again == first

    @pytest.mark.parametrize(
        "argv, code",
        [(["--version"], 0), (["--help"], 0), (["symbol", "--samples", "zz"], 2),
         (["transform"], 2)],
        ids=["version", "help", "bad_value", "missing_argument"],
    )
    def test_call_after_an_early_exit_works(self, tmp_path, capsys, argv, code):
        with fresh_parser():
            expected = run_outputs(["symbol", "--samples", "16"], tmp_path / "expected")
        with fresh_parser():
            assert main(argv) == code
            capsys.readouterr()
            assert run_outputs(["symbol", "--samples", "16"], tmp_path / "after") == expected


@st.composite
def replay_runs(draw, subcommand):
    """argv of a small valid run, without the output flag, and the input
    files it names as ``{name: text}``."""
    if subcommand == "advect":
        n_x = draw(st.integers(16, 64))
        config = {"n_x": n_x, "n_t": draw(st.integers(1, 16)),
                  "cfl": draw(st.floats(0.05, 0.3)), "x_s": draw(st.floats(100.0, 9900.0)),
                  "source": {"kind": draw(st.sampled_from(["gaussian_derivative", "ricker"]))}}
        scheme = draw(st.sampled_from(["fd", "pseudospectral", "csit"]))
        if scheme == "csit" or draw(st.booleans()):
            dx = 10000.0 / n_x
            config["csit"] = {"eta_half_width": draw(st.floats(0.01, 2.0)) * dx,
                              # c*dt*max_rate stays below 0.981, so no draw is refused
                              "tau_max": draw(st.floats(0.001, 0.25)) * dx,
                              "n_eta": draw(st.integers(1, 4)), "n_tau": draw(st.integers(1, 4))}
        flags = ["--scheme", scheme, "--config", "cfg.json"]
        if draw(st.booleans()):
            flags += ["--window", "2000,6000"]
        files = {"cfg.json": json.dumps(config)}
    else:
        n = draw(st.integers(8 if subcommand == "ifreq" else 4, 64))
        demo = subcommand == "ifreq" and draw(st.booleans())
        dx = 1.0 / n if demo else draw(st.floats(1e-3, 10.0))
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        t = draw(st.floats(-10.0, 10.0)) + dx * np.arange(n)
        files = {} if demo else {"in.csv": "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, values))}
        flags = ["--demo", "chirp", "--n", n, "--f0", draw(st.floats(1.0, 10.0)),
                 "--rate", draw(st.floats(0.0, 10.0))] if demo else ["in.csv"]
        Z = draw(st.floats(0.01, 2.0)) * dx
        flags += ["--H", draw(st.floats(0.01, 2.0)) * dx, "--Z", Z,
                  "--n-eta", draw(st.integers(1, 4)), "--n-tau", draw(st.integers(1, 4)),
                  "--rule", draw(st.sampled_from(["trapezoid", "midpoint"]))]
        if draw(st.booleans()):
            flags += ["--eps", draw(st.floats(0.05, 0.95)) * Z]
        if subcommand == "transform":
            flags += ["--mode", draw(st.sampled_from(["quadrature", "symbol"]))]
        else:
            flags += ["--backend", draw(st.sampled_from(["pseudospectral", "fd"])),
                      "--trim", draw(st.floats(0.0, 0.3))]
            if draw(st.booleans()):
                flags += ["--damping", draw(st.floats(1e-6, 10.0))]
    return [subcommand, *flags], files


class TestReplayProperty:
    """ROADMAP item 4: replay of any small valid run is byte-identical; every
    run and replay of the session shares one parser."""

    @pytest.mark.parametrize("subcommand", ["advect", "ifreq", "transform"])
    def test_replay_is_byte_identical(self, fuzz_dir, subcommand):
        @settings(max_examples=40, deadline=None)
        @given(run=replay_runs(subcommand))
        def check(run):
            argv, files = run
            # left for pytest to remove: unlinking a synced file is slow on some disks
            work = Path(tempfile.mkdtemp(dir=fuzz_dir))
            for name, text in files.items():
                (work / name).write_text(text)
            first = run_outputs([work / a if a in files else a for a in argv], work / "run")
            manifest = next((work / "run").glob("*manifest.json"))
            assert run_outputs(["replay", manifest], work / "replay") == first

        check()
