"""CSV and JSON plumbing for the command-line tools.

Conventions, fixed so that outputs are byte-reproducible:

* CSV cells use the '.' decimal separator and 17 significant digits
  (enough to round-trip float64 exactly); lines end with a bare newline.
* Non-finite values are written as empty cells; boolean flag columns are
  written as 0/1.
* Files are written atomically: a temporary file in the target directory
  is populated, flushed, and renamed over the destination.
* Every output CSV is accompanied by a JSON run manifest carrying the
  resolved parameters, enough to re-run the command exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

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
    """Write ``text`` to ``path`` through a temp file plus rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
    lines = [",".join(header)]
    n = lengths.pop() if lengths else 0
    for i in range(n):
        lines.append(",".join(format_cell(c[i]) for c in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (coordinate, value) CSV with a uniform grid.

    The first line may be a header (detected by non-numeric cells).
    Returns the coordinate and value arrays.

    Raises
    ------
    CsvFormatError
        On missing files, short files, rows without exactly two numeric
        cells, non-finite entries, or spacing jitter beyond 1e-9
        relative; the message carries the 1-based line number.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise CsvFormatError(path, f"cannot read file ({exc})") from exc
    coords: list[float] = []
    values: list[float] = []
    first_data_line = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
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
    if len(coords) < 2:
        raise CsvFormatError(path, "need at least 2 data rows")
    t = np.asarray(coords)
    v = np.asarray(values)
    dt = (t[-1] - t[0]) / (len(t) - 1)
    jitter = np.abs(np.diff(t) - dt)
    worst = int(np.argmax(jitter))
    if jitter[worst] > _JITTER_TOL * abs(dt):
        raise CsvFormatError(
            path,
            f"grid spacing varies by {jitter[worst] / abs(dt):.3e} relative "
            f"(tolerance {_JITTER_TOL:g})",
            line=worst + 2 + (1 if first_data_line is not None else 0),
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
    version: str = "0.1.0"
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
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise CsvFormatError(path, f"cannot read manifest ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise CsvFormatError(path, f"invalid JSON ({exc})") from exc
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
