"""CSV and JSON plumbing for the command-line tools.

Conventions, fixed so that outputs are byte-reproducible:

* CSV cells use the '.' decimal separator and 17 significant digits
  (enough to round-trip float64 exactly); lines end with a bare newline.
* Non-finite values are written as empty cells; boolean flag columns are
  written as 0/1.
* Files are written atomically: a temporary file in the target directory
  is populated, closed, and renamed over the destination, so a reader
  sees either the old file or the whole new one, never a partial file.
  Nothing is fsync'd, so no durability against a crash or power loss is
  promised.
* Every output CSV is accompanied by a JSON run manifest carrying the
  resolved parameters, enough to re-run the command exactly.

:func:`format_cell` is the definition of a cell.  ``write_table_csv``
works on whole columns, one block of 8192 rows at a time, and gives
every cell the text ``format_cell`` gives: each row is one %-format in
which finite float64 columns enter as ``%.17g`` (the text of
``f"{v:.17g}"``) and bool columns as ``%d``, straight from
``tolist()``; non-finite floats become empty cells, and every other
dtype goes through ``format_cell`` cell by cell.

``read_series_csv`` first parses a plain file in one ``np.loadtxt``
pass: printable ASCII and ``\n`` line breaks only, no ``#`` and no
``_``, a one-line header at most, every line a data row.  Whatever that
pass cannot take, or whatever fails a check there (parse, column count,
finiteness, ordering), goes to the line-by-line loop, which is the
definition of the format and the source of every error message and line
number.  The loop decodes UTF-8 and drops a leading byte-order mark,
which is outside the plain set.  Both paths give bit-identical arrays,
and the one-pass path accepts no file that the loop rejects.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__

__all__ = [
    "CsvFormatError",
    "RunManifest",
    "atomic_write_text",
    "format_cell",
    "read_series_csv",
    "write_table_csv",
]

# relative deviation of sample spacing tolerated before a grid is
# declared nonuniform
_JITTER_TOL = 1e-9

# rows formatted per block by write_table_csv
_BLOCK_ROWS = 8192

# bytes of a file that the one-pass reader takes: printable ASCII but the
# comment mark and the digit separator float() allows, and \n line breaks
_PLAIN = (bytes(range(0x20, 0x7F)) + b"\n").replace(b"#", b"").replace(b"_", b"")


class CsvFormatError(ValueError):
    """Malformed tabular input, with the offending line when known."""

    def __init__(self, path, message: str, line: int | None = None):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


def format_cell(value) -> str:
    """One CSV cell: 17-significant-digit floats, 0/1 booleans, empty
    for non-finite entries, text passed through unquoted."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (str, np.str_)):
        # the format has no quoting, so cell text must not break rows
        if "," in value or "\n" in value or "\r" in value:
            raise ValueError(f"cell text may not contain separators: {value!r}")
        return str(value)
    x = float(value)
    if not np.isfinite(x):
        return ""
    return f"{x:.17g}"


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file plus rename (no fsync)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _block_rows(block: list[np.ndarray]) -> list[str]:
    """The CSV rows of one block of columns; every cell is the one
    ``format_cell`` gives for its entry.

    Each row is one %-format: finite float64 columns enter as ``%.17g``
    and bool columns as ``%d``, straight from ``tolist()``; any other
    column, and a float64 block with a non-finite entry, enters as its
    cell strings through ``%s``.
    """
    specs, values = [], []
    for column in block:
        flat = column.ndim == 1
        if flat and column.dtype == np.bool_:
            spec, cells = "%d", column.tolist()
        elif flat and column.dtype == np.float64:
            finite = np.isfinite(column)
            spec, cells = "%.17g", column.tolist()
            if not finite.all():
                spec = "%s"
                cells = ["%.17g" % v if ok else "" for v, ok in zip(cells, finite.tolist())]
        else:
            spec, cells = "%s", [format_cell(v) for v in column]
        specs.append(spec)
        values.append(cells)
    template = ",".join(specs)
    return [template % row for row in zip(*values)]


def _table_text(header: Sequence[str], columns: list[np.ndarray], n: int) -> str:
    # one block of rows at a time bounds the per-cell objects alive at
    # once; the rows stay small strings until the one join (joining each
    # block to one string raised the peak resident memory of a 65536-row
    # transform by about 1 MB) and are freed on return, before the text
    # is encoded
    lines = [",".join(header)]
    for start in range(0, n, _BLOCK_ROWS):
        lines.extend(_block_rows([c[start:start + _BLOCK_ROWS] for c in columns]))
    lines.append("")
    return "\n".join(lines)


def write_table_csv(
    path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """Write named columns as CSV in the package's fixed format.

    All columns must share one length.
    """
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("columns must share one length")
    n = lengths.pop() if lengths else 0
    atomic_write_text(path, _table_text(header, columns, n))


def _read_file(path: Path, read):
    try:
        return read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvFormatError(path, f"cannot read file ({exc})") from exc


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file ``path``; any fault is a CsvFormatError
    naming the file, with ``what`` naming the document."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvFormatError(path, f"cannot read {what} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise CsvFormatError(path, f"invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise CsvFormatError(path, f"{what} must be a JSON object")
    return data


def _parse_plain(raw: bytes):
    """``(coords, values, has_header)`` from one numpy pass, or None.

    None leaves the decision to the line loop: a byte outside the plain
    set, a first line without two cells, any line that is not a data row
    (numpy skips blank ones), fewer than two rows, or a parse, finiteness
    or ordering failure.
    """
    if not raw or raw.translate(None, _PLAIN):
        return None
    first = raw.split(b"\n", 1)[0].split(b",")
    if len(first) != 2:
        return None
    try:
        float(first[0]), float(first[1])
        header = 0
    except ValueError:
        header = 1
    rows = raw.count(b"\n") + (not raw.endswith(b"\n")) - header
    if rows < 2:
        return None
    try:
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=header, ndmin=2)
    except ValueError:
        return None
    if table.shape != (rows, 2) or not np.isfinite(table).all():
        return None
    t, v = table[:, 0].copy(), table[:, 1].copy()
    if not (t[1:] > t[:-1]).all():
        return None
    return t, v, bool(header)


def _parse_lines(path: Path, text: str):
    """``(coords, values, lines)`` line by line, ``lines`` holding the
    1-based line number of each data row; raises on any fault."""
    coords: list[float] = []
    values: list[float] = []
    lines: list[int] = []
    first_data_line = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in stripped.split(",")]
        if len(cells) != 2:
            raise CsvFormatError(
                path, f"expected 2 columns, found {len(cells)}", lineno
            )
        try:
            t, v = float(cells[0]), float(cells[1])
        except ValueError:
            if not coords and first_data_line is None:
                # a single leading non-numeric row is a header
                first_data_line = lineno
                continue
            raise CsvFormatError(
                path, f"non-numeric cell in {cells!r}", lineno
            ) from None
        if not (np.isfinite(t) and np.isfinite(v)):
            raise CsvFormatError(path, "non-finite sample", lineno)
        if coords and t <= coords[-1]:
            raise CsvFormatError(
                path, "coordinates must be strictly increasing", lineno
            )
        coords.append(t)
        values.append(v)
        lines.append(lineno)
    if len(coords) < 2:
        raise CsvFormatError(path, "need at least 2 data rows")
    return np.asarray(coords), np.asarray(values), lines


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (coordinate, value) CSV with a uniform grid.

    The first line may be a header (detected by non-numeric cells); a
    UTF-8 byte-order mark before it is skipped.  Returns the coordinate
    and value arrays.

    Raises
    ------
    CsvFormatError
        On missing files, short files, rows without exactly two numeric
        cells, non-finite entries, a grid length n*dt that overflows,
        or spacing jitter beyond 1e-9 relative; the message carries the
        1-based line number of a faulty row.
    """
    path = Path(path)
    parsed = _parse_plain(_read_file(path, Path.read_bytes))
    if parsed is None:
        text = _read_file(path, lambda p: p.read_text(encoding="utf-8-sig"))
        t, v, lines = _parse_lines(path, text)
    else:
        # the one-pass path takes no comment or blank line
        t, v, has_header = parsed
        lines = range(1 + has_header, 1 + has_header + len(t))
    with np.errstate(over="ignore"):
        dt = (t[-1] - t[0]) / (len(t) - 1)
        if not np.isfinite(len(t) * dt):
            raise CsvFormatError(path, f"grid length n*dt of coordinates {t[0]:g} to {t[-1]:g} "
                                       "overflows float64")
    jitter = np.abs(np.diff(t) - dt)
    worst = int(np.argmax(jitter))
    if jitter[worst] > _JITTER_TOL * abs(dt):
        raise CsvFormatError(
            path,
            f"grid spacing varies by {jitter[worst] / abs(dt):.3e} relative "
            f"(tolerance {_JITTER_TOL:g})",
            line=lines[worst + 1],
        )
    return t, v


@dataclass
class RunManifest:
    """Everything needed to re-run a command and audit its outputs.

    ``parameters`` holds the fully resolved parameter set of the
    subcommand (defaults filled in, paths absolute), ``outputs`` the
    basenames written next to the manifest.  Reduction order is fixed in
    every code path, so a re-run from this record reproduces output CSVs
    byte for byte.
    """

    subcommand: str
    parameters: dict
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    tool: str = "csit"
    version: str = __version__
    reduction: str = "fixed"
    created_utc: str = ""
    duration_seconds: float = 0.0

    def finalize(self, duration_seconds: float) -> "RunManifest":
        self.created_utc = datetime.now(timezone.utc).isoformat()
        self.duration_seconds = duration_seconds
        return self

    def write(self, path) -> None:
        atomic_write_text(path, json.dumps(asdict(self), indent=2) + "\n")

    @classmethod
    def read(cls, path) -> "RunManifest":
        path = Path(path)
        data = _read_json_object(path, "manifest")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise CsvFormatError(
                path, f"unknown manifest fields {sorted(unknown)}"
            )
        missing = {"subcommand", "parameters"} - set(data)
        if missing:
            raise CsvFormatError(
                path, f"manifest lacks required fields {sorted(missing)}"
            )
        return cls(**data)
