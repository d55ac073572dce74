r"""CSV and JSON plumbing for the command-line tools.

Conventions, fixed so that outputs are byte-reproducible:

* CSV cells use the '.' decimal separator and 17 significant digits
  (enough to round-trip float64 exactly); lines end with a bare newline.
* Non-finite values are written as empty cells; boolean flag columns are
  written as 0/1.  Nothing is quoted, so a text cell or header name
  holding ``,``, ``\n`` or ``\r`` is refused with a ValueError.
* Output is UTF-8 whatever the locale, as the reader decodes it.
* Files are written atomically: a temporary file in the target directory
  is populated, closed, and renamed over the destination, so a reader
  sees either the old file or the whole new one, never a partial file;
  a failure part way leaves the old file and removes the temporary one.
  Every output file gets mode 0666 less the umask, as ``open`` gives.
  Nothing is fsync'd, so no durability against a crash or power loss is
  promised.
* Every output CSV is accompanied by a JSON run manifest carrying the
  resolved parameters, enough to re-run the command exactly.

:func:`format_cell` is the definition of a cell.  ``write_table_csv``
works on whole columns, one block of at most 4096 cells (at least one
row) at a time, and gives every cell the text ``format_cell`` gives.
Each block's bytes go into the temporary file as soon as they are
formatted, so the text of a block or two, not the table's, is held at a
time.  A table of 1-D float64 and bool columns only is formatted at
array speed: each finite float's 17 significant digits come out as an
exact integer (a Dekker product with a double-double power of ten,
rounded half-even), are laid out as ``%.17g`` lays them out in a
fixed-width byte matrix whose zero bytes stand for no byte, and one
compaction gives the block's text.  A rounding within 2**-24 of a tie
that the product does not give exactly goes to Python's ``%.17g``;
non-finite floats become empty cells, and a bool enters as 0.0 or 1.0,
whose text is 0 or 1.  Any other table is formatted one ``format_cell``
per cell.

``read_series_csv`` first parses a plain file in one ``np.loadtxt``
pass: printable ASCII and ``\n`` line breaks only, no ``#`` and no
``_``, a one-line header at most, every line a data row.  Whatever that
pass cannot take, or whatever fails a check there (parse, column count,
finiteness, ordering), goes to the line-by-line loop, which is the
definition of the format and the source of every error message and line
number.  The file is read once, as bytes: the loop decodes those bytes
as UTF-8 and drops a leading byte-order mark, which is outside the plain
set.  Both paths give bit-identical arrays, and the one-pass path
accepts no file that the loop rejects.
"""

from __future__ import annotations

import io
import json
import os
import secrets
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

# a block of write_table_csv has at most this many cells (and at least
# one row), so that the arrays of the field path stay small: a 2250 x 9
# ifreq table in one block made 4.4 MB of temporaries, in blocks of 4096
# cells 1.1 MB
_FIELD_CELLS = 4096

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


def _unbroken(text: str, what: str) -> str:
    """``text`` as a cell or header name: the format has no quoting, so
    a separator in it would break the row, and is a ValueError."""
    if "," in text or "\n" in text or "\r" in text:
        raise ValueError(f"{what} may not contain separators: {text!r}")
    return str(text)


def format_cell(value) -> str:
    """One CSV cell: 17-significant-digit floats, 0/1 booleans, empty
    for non-finite entries, text passed through unquoted."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (str, np.str_)):
        return _unbroken(value, "cell text")
    x = float(value)
    if not np.isfinite(x):
        return ""
    return f"{x:.17g}"


def _write_atomic(path, chunks) -> None:
    """Write the byte chunks of an iterable, in order, to ``path`` through
    a temp file in its directory plus rename (no fsync).  On any error,
    from the iterable or the file, the temp file goes and the destination
    keeps its previous bytes.  The temp file, a new name opened with
    O_EXCL, gets mode 0666 less the umask, which the rename keeps."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temp file plus rename (no fsync)."""
    _write_atomic(path, [text.encode("utf-8")])


def _block_rows(block: list[np.ndarray]) -> bytes:
    """The CSV rows of one block of columns as UTF-8 bytes, one ``format_cell`` per cell."""
    return "".join(",".join(map(format_cell, row)) + "\n" for row in zip(*block)).encode("utf-8")


# --- exact %.17g at array speed ----------------------------------------------
#
# A finite nonzero |v| with decimal exponent D = floor(log10 |v|) has the
# 17 significant digits N = round_half_even(|v| * 10**(16 - D)), an integer
# in [1e16, 1e17).  With 10**(16 - D) = 2**E * (hi + lo), 1 <= hi < 2 and
# hi + lo within 2**-106 of it, w = |v| * 2**E is exact (a power-of-two
# scaling into [5e15, 1e17]), w * hi is exact as the Dekker product p + e,
# and w * lo adds at most 3e-15 of error.  p is an even integer above
# 2**53, so N = p + rint(e + w * lo), half-even on e being half-even on N.
# Where 0 <= 16 - D <= 22, lo is 0 and N exact; elsewhere a rounding within
# 2**-24 of a tie goes to Python's %.17g instead.

# 16 - D for D from -325 to 309: one beyond the floor(log10 |v|) of the
# smallest subnormal and of the largest double, which the exponent
# correction reaches
_J_MIN, _J_MAX = 16 - 309, 16 + 325


def _decimal_power(j: int) -> tuple[int, float, float]:
    """``(E, hi, lo)``: 10**j = 2**E * (hi + lo), hi the double nearest
    and lo the double nearest the rest, from exact integers."""
    if j >= 0:
        num = 10**j
        exp = num.bit_length() - 1
        den = 1 << exp
    else:
        den = 10**-j
        exp = -den.bit_length()
        num = 1 << -exp
    hi = num / den  # int true division rounds correctly
    scaled = int(hi * 2.0**52)
    lo = (num * 2**52 - scaled * den) / (den * 2**52)
    return exp, hi, lo


_POW_E, _POW_HI, _POW_LO = (
    np.array(c) for c in zip(*[_decimal_power(j) for j in range(_J_MIN, _J_MAX + 1)])
)
_POW_E = _POW_E.astype(np.int32)  # np.ldexp is slow with int64 exponents
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting factor
_POW_HI_H = _POW_HI * _SPLIT - (_POW_HI * _SPLIT - _POW_HI)
_POW_HI_L = _POW_HI - _POW_HI_H
_TIE = 0.5 - 2.0**-24


# A float cell is laid out in six 8-byte words, a 0 byte meaning no byte:
#   word 0     the sign, "0." and up to three zeros of a fixed cell below 1,
#              the first digit and the slot for a point after it
#   words 1-4  digits 1 to 16, four per word, each followed by a point slot
#   word 5     "e", the exponent sign and digits, and the separator
# Each table below holds words as rows of 8 bytes, so that a word reads
# the same bytes on any byte order.
_FIELD_WORDS = 6


def _words(table) -> np.ndarray:
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64)[..., 0]


_ZERO = ord("0")
# every 4-digit group g = 100*hi + lo from the 100 2-digit ones, without
# an array of 10000 ints
_pairs = np.arange(100, dtype=np.uint8)
_pair_digits = np.stack([_pairs // 10, _pairs % 10], axis=1)
# digits up to the last nonzero one: 2, 1 for a multiple of 10, 0 for 00
_pair_significant = (_pairs % 10 != 0).astype(np.int8) + (_pairs != 0)
# the digits of every group, at the even bytes of a word
_word = np.zeros((100, 100, 8), dtype=np.uint8)
_word[:, :, 0:4:2] = _pair_digits[:, None, :] + _ZERO
_word[:, :, 4:8:2] = _pair_digits[None, :, :] + _ZERO
_DIGITS = _words(_word).reshape(10000)
# per group index i (digits 4i+1 to 4i+4 of N) and group g: how many
# digits of N run up to the last nonzero digit of g, 0 for g = 0
_significant = np.where(_pairs[None, :] != 0, 2 + _pair_significant[None, :],
                        _pair_significant[:, None]).reshape(10000)
_TAIL = np.where(_significant > 0, 4 * np.arange(4, dtype=np.int8)[:, None] + 1 + _significant, 0)
_TAIL_OFFSETS = 10000 * np.arange(4)[:, None]
# per group index i and count L of digits written: the bytes of the
# group's word among them
_kept = np.clip(np.arange(18) - (4 * np.arange(4)[:, None] + 1), 0, 4)
_KEEP = _words(np.where((np.arange(8) % 2 == 0) & (np.arange(8) // 2 < _kept[:, :, None]), 255, 0))
# word 0 per sign (2), -D of a cell below 1 ("0." and -D-1 zeros before
# the first digit; 0 for any other cell, 5) and first digit (10)
_lead = np.zeros((2, 5, 10, 8), dtype=np.uint8)
_lead[1, ..., 0] = ord("-")
_lead[:, 1:, :, 1] = _ZERO
_lead[:, 1:, :, 2] = ord(".")
_lead[..., 3:6] = np.where(np.arange(5)[:, None, None] - 1 > np.arange(3), _ZERO, 0)
_lead[..., 6] = np.arange(10) + _ZERO
_LEAD = _words(_lead.reshape(100, 8))
# word 5 per exponent D + 331 for D in -330..330, 0 for a fixed cell
_exp = np.abs(np.arange(-330, 331))
_tail = np.zeros((662, 8), dtype=np.uint8)
_tail[1:, 0] = ord("e")
_tail[1:, 1] = np.where(np.arange(-330, 331) < 0, ord("-"), ord("+"))
_tail[1:, 2] = np.where(_exp >= 100, _exp // 100 + _ZERO, 0)
_tail[1:, 3] = _exp // 10 % 10 + _ZERO
_tail[1:, 4] = _exp % 10 + _ZERO
_tail[:, 7] = ord(",")
_EXPONENT = _words(_tail)
del _pairs, _pair_digits, _pair_significant, _word, _significant, _kept, _lead, _exp, _tail


def _scaled(a: np.ndarray, d: np.ndarray):
    """``(p, e, exact)`` with ``p + e`` equal to ``a * 10**(16 - d)``
    within 3e-15, and exactly where ``exact`` (0 <= 16 - d <= 22), for
    positive finite ``a``."""
    index = 16 - d - _J_MIN
    w = np.ldexp(a, _POW_E.take(index))
    p = w * _POW_HI.take(index)
    c = w * _SPLIT
    wh = c - (c - w)
    wl = w - wh
    hh, hl = _POW_HI_H.take(index), _POW_HI_L.take(index)
    e = ((wh * hh - p) + wh * hl + wl * hh) + wl * hl
    lo = _POW_LO.take(index)
    e += w * lo
    return p, e, lo == 0.0


def _off(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Where the exponent of ``p + e`` is off: outside [1e16 - 0.05, 1e17 - 0.5).
    Just below 1e16, ``p + e`` rounds to the 1e16 that ten times it at the
    exponent below would round to as 1e17; at or just below 1e17 - 0.5 it
    would round to 1e17, the 1e16 of the exponent above."""
    return ((p - 1e16) + e < -0.05) | ((p - 1e17) + e >= -0.5)


def _float_fields(v: np.ndarray, out: np.ndarray) -> None:
    """Write the ``%.17g`` text of each entry of float64 ``v``, laid out
    in words, to the rows of ``out`` (``(len(v), _FIELD_WORDS)`` uint64,
    C-contiguous); a non-finite entry leaves only its separator."""
    finite = np.isfinite(v)
    zero = v == 0.0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    d = np.floor(np.log10(a)).astype(np.int64)
    p, e, exact = _scaled(a, d)
    off = np.flatnonzero(_off(p, e))
    doubt = np.zeros(len(v), dtype=bool)
    if off.size:
        # log10 rounded across a power of ten: the exponent is one off
        d[off] += np.where((p[off] - 1e16) + e[off] < 0.0, -1, 1)
        p[off], e[off], exact[off] = _scaled(a[off], d[off])
        doubt[off] = _off(p[off], e[off])
    r = np.rint(e)
    doubt |= ~exact & (np.abs(e - r) > _TIE)
    n = p.astype(np.int64) + r.astype(np.int64)
    n[zero] = 0

    first, rest = np.divmod(n, 10**16)
    halves = np.empty((2, len(v)), dtype=np.int64)
    np.divmod(rest, 10**8, out=(halves[0], halves[1]))
    groups = np.empty((4, len(v)), dtype=np.int64)  # digits 1-4, 5-8, 9-12, 13-16
    np.divmod(halves, 10**4, out=(groups[0::2], groups[1::2]))
    tails = _TAIL.take(groups + _TAIL_OFFSETS)
    significant = np.maximum(np.maximum(tails[0], tails[1]), np.maximum(tails[2], tails[3]))
    significant = np.maximum(significant, 1).astype(np.int64)
    fixed = (d >= -4) & (d < 17)
    below_one = fixed & (d < 0)
    whole = np.where(fixed & ~below_one, d, 0)  # index of the last integer digit
    out[:, 0] = _LEAD.take((np.signbit(v) * 5 + np.where(below_one, -d, 0)) * 10 + first)
    written = np.maximum(significant, whole + 1)  # trailing zeros of a fraction go
    for i in range(4):
        np.bitwise_and(_DIGITS.take(groups[i]), _KEEP[i].take(written), out=out[:, 1 + i])
    out[:, 5] = _EXPONENT.take(np.where(fixed, 0, d + 331))
    point = np.flatnonzero(~below_one & (significant > whole + 1))
    out.reshape(-1).view(np.uint8)[8 * _FIELD_WORDS * point + 7 + 2 * whole[point]] = ord(".")

    out[~finite, :5] = 0
    slow = np.flatnonzero(doubt)
    if slow.size:
        out[slow, 3:5] = 0
        out[slow, 5] = _EXPONENT[0]
        text = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype="S24")
        out[slow, :3] = text.view(np.uint64).reshape(-1, 3)


def _block_text(block: list[np.ndarray]) -> bytes:
    """The CSV rows of one block of 1-D float64 and bool columns, as ASCII
    bytes from one field matrix and one compaction.  A bool enters as 0.0
    or 1.0, whose ``%.17g`` text is its 0 or 1."""
    values = np.column_stack(block).astype(np.float64, copy=False)
    fields = np.empty(values.shape + (_FIELD_WORDS,), dtype=np.uint64)
    _float_fields(values.ravel(), fields.reshape(values.size, _FIELD_WORDS))
    text = fields.view(np.uint8)
    text[:, -1, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def _table_chunks(header: Sequence[str], columns: list[np.ndarray], n: int):
    """The UTF-8 bytes of a table: the header line, then one chunk per
    block of rows, each formatted only once the chunk before it is taken,
    so that the text of two blocks at most is alive at a time."""
    fast = all(c.ndim == 1 and c.dtype in (np.float64, np.bool_) for c in columns)
    rows = max(1, _FIELD_CELLS // max(len(columns), 1))
    yield (",".join(header) + "\n").encode("utf-8")
    for start in range(0, n, rows):
        block = [c[start:start + rows] for c in columns]
        # chunk keeps the block before alive until this block is formatted:
        # lying above that block's freed temporaries in the heap, it keeps
        # glibc malloc from trimming them and faulting them back in for
        # every block (a 2250 x 9 table: about 170 minor faults a write,
        # not 1130)
        chunk = _block_text(block) if fast else _block_rows(block)
        yield chunk


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
    for name in header:
        _unbroken(name, "header name")
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("columns must share one length")
    n = lengths.pop() if lengths else 0
    _write_atomic(path, _table_chunks(header, columns, n))


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file ``path``; any fault is a CsvFormatError
    naming the file, with ``what`` naming the document."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvFormatError(path, f"cannot read {what} ({exc})") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
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
    end = raw.find(b"\n")
    first = raw[:end if end >= 0 else len(raw)].split(b",")
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
    try:
        raw = path.read_bytes()
        parsed = _parse_plain(raw)
        # the line loop decodes the bytes already read: the file is read once
        text = raw.decode("utf-8-sig") if parsed is None else None
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvFormatError(path, f"cannot read file ({exc})") from exc
    if parsed is None:
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
