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
array speed, in work arrays made once per table: each finite float's 17
significant digits come out as an exact integer (the binary exponent
from ``np.frexp`` picks a double-double scale, and a Dekker product
rounds half-even), are laid out as ``%.17g`` lays them out in a matrix
of 8-byte words whose zero bytes stand for no byte, and one compaction
gives the block's text.  A float cell takes six words, or five in a
block where no float cell prints an exponent, and a bool cell one word,
its digit and separator.  A rounding within 2**-24 of a tie that the
product does not give exactly goes to Python's ``%.17g``, as does a
value that rounds up to the power of ten above it; non-finite floats
become empty cells.  Any other table is formatted one ``format_cell``
per cell.

``read_series_csv`` first reads a plain file at array speed: printable
ASCII and ``\n`` line breaks only, no ``#`` and no ``_``, a one-line
header at most, every line a data row of two cells.  It goes through the
file's bytes in chunks of whole lines, without copying them, and turns
each cell ``[-]digits[.digits][(e|E)[+-]d{1,3}]`` into the double that
Python's ``float`` gives, exactly, through the writer's Dekker product
with double-double powers of ten (``_product`` states why it is exact).
A cell of any other spelling, or one whose rounding lies too near a tie
to tell, goes to ``float`` itself.  Whatever that reader cannot take, or
whatever fails a check there (parse, column count, finiteness,
ordering), goes to the line-by-line loop, which is the definition of the
format and the source of every error message and line number.  The file
is read once, as bytes: the loop decodes those bytes as UTF-8 and drops
a leading byte-order mark, which is outside the plain set.  Both paths
give bit-identical arrays, and the array-speed reader accepts no file
that the loop rejects.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .instfreq import _work_arrays

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
# ifreq table in one block made 4.4 MB of temporaries; in blocks of 4096
# cells, with the work arrays made once per table, a write of it peaks at
# 0.97 MB of tracemalloc
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
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
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
# np.frexp gives a finite |v| as w * 2**(x - 53), w an integer in
# [2**52, 2**53) and 0 for 0.  Within the binade x the decimal exponent
# D = floor(log10 |v|) has one value, or two where a power of ten lies in
# the binade, the higher from the integer w at which |v| reaches it; so x
# and one comparison of w pick a row of tables that hold, per row, D and
# F = 2**(x - 53) * 10**(16 - D) as hi + lo.  The 17 significant digits of
# |v| are N = round_half_even(w * F), an integer in [1e16, 1e17].  F lies
# in [1.1, 22.3), so _product's p = w * hi is an even integer above 2**53,
# and N = p + rint(e), half-even on e being half-even on N.  Where lo is
# not 0, a rounding within 2**-24 of a tie (_TIE) goes to Python's %.17g,
# as does N = 1e17, which only a |v| just below a power of ten reaches.

# 10**j for j from -323 (the smallest power above the smallest subnormal)
# to 16 - D of the smallest subnormal
_J_MIN, _J_MAX = -323, 16 + 324
# frexp's binary exponent x of the finite doubles, 0 included
_X_MIN, _X_MAX = -1073, 1024


def _decimal_power(j: int) -> tuple[int, float, float, int]:
    """``(E, hi, lo, c)``: 10**j = 2**E * (hi + lo), hi the double nearest
    and lo the double nearest the rest, and c = ceil(2**52 * 10**j / 2**E),
    from exact integers."""
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
    rest = num * 2**52 - scaled * den
    return exp, hi, rest / (den * 2**52), scaled + (rest > 0)


def _words(table) -> np.ndarray:
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64)[..., 0]


_POW_E, _POW_HI, _POW_LO, _POW_CEIL = (
    np.array(c) for c in zip(*[_decimal_power(j) for j in range(_J_MIN, _J_MAX + 1)])
)
_SPLIT = np.float64(134217729.0)  # 2**27 + 1, Veltkamp's splitting factor
_TIE = 0.5 - 2.0**-24


def _halves(hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each entry of ``hi`` into a high half of 26
    significant bits and the exact rest."""
    high = hi * _SPLIT - (hi * _SPLIT - hi)
    return high, hi - high


def _product(a: np.ndarray, table, row: np.ndarray, p: np.ndarray, e: np.ndarray, work) -> None:
    """Into ``p`` and ``e``: a * (hi + lo) = p + e at array speed, p = a * hi
    rounded and e its exact Dekker error plus a * lo, where ``table`` is
    ``(hi, hi_high, hi_low, lo)`` and ``row`` indexes it; ``a`` is kept,
    and ``work`` is four float64 arrays shaped like it.

    The tables hold a scaled power of ten T as hi + lo within 2**-106 of
    hi.  With nothing under- or overflowing, p + e is then within 2**-104
    of p of a * T, under 2**-51 of an ulp of p: Dekker's four partial
    products give the error of p exactly (Dekker, "A floating-point
    technique for extending the available precision", 1971), and a * lo,
    at most 2**-53 of p, adds two roundings of at most 2**-106 and 2**-105
    of p.  The writer's p is an integer below 2**58, so e is within 2**-46
    of w * F - p, and a rounding more than 2**-24 (_TIE) from a tie is
    that of w * F; where lo is 0, e is exact.  The reader adds wl * hi for
    a mantissa past 2**53, which keeps the error under 2**-49 of an ulp,
    and brackets p + e by 2**-80 of p (_SLACK), over 2**-28 of an ulp:
    where both ends round to one double, so does w * 10**q, rounding being
    monotonic."""
    hi, hi_high, hi_low, lo = table
    t, c, ah, al = work
    hi.take(row, None, t, "clip")
    np.multiply(a, t, p)
    np.multiply(a, _SPLIT, c)
    np.subtract(c, a, ah)
    np.subtract(c, ah, ah)
    np.subtract(a, ah, al)
    # e = ((ah*hh - p) + ah*hl + al*hh) + al*hl + a*lo
    hi_high.take(row, None, t, "clip")
    np.multiply(ah, t, e)
    np.subtract(e, p, e)
    hi_low.take(row, None, c, "clip")
    np.multiply(ah, c, ah)
    np.add(e, ah, e)
    np.multiply(al, t, t)
    np.add(e, t, e)
    np.multiply(al, c, al)
    np.add(e, al, e)
    lo.take(row, None, t, "clip")
    np.multiply(a, t, t)
    np.add(e, t, e)


# Rows 2i and 2i + 1 belong to the binade x = _X_MIN + i: w below and at
# or above _THRESHOLD[2i] = _THRESHOLD[2i + 1], the w of the power of ten
# in the binade.  A binade without one has the threshold 1, so that its
# row 2i takes only w = 0: frexp gives x = 0 for 0, and the binade 0,
# [0.5, 1), holds no power of ten.  Such a row is a zero row, D = 0.
_binade = np.arange(_X_MIN, _X_MAX + 1)
_power_binade = _POW_E[: 309 - _J_MIN] + 1  # of 10**-323 to 10**308, the powers among the doubles
_above = np.searchsorted(_power_binade, _binade)  # how many lie in lower binades
_has_power = _power_binade[np.minimum(_above, len(_power_binade) - 1)] == _binade
_THRESHOLD = np.repeat(np.where(_has_power, _POW_CEIL[np.minimum(_above, len(_power_binade) - 1)], 1),
                       2).astype(np.float64)
_low = _above - 1 + _J_MIN  # D below the binade's power of ten
_zero = np.stack([~_has_power, np.zeros_like(_has_power)], axis=1).reshape(-1)
_d = np.where(_zero, 0, np.stack([_low, _low + _has_power], axis=1).reshape(-1))
_j = 16 - _d - _J_MIN
_e = np.repeat(_binade, 2) - 53 + _POW_E[_j]
_ROW_HI = np.where(_zero, 0.0, np.ldexp(_POW_HI[_j], _e))
_ROW_LO = np.where(_zero, 0.0, np.ldexp(_POW_LO[_j], _e))
_ROW = (_ROW_HI, *_halves(_ROW_HI), _ROW_LO)  # the table of _product
_ROW_INEXACT = (_ROW_LO != 0.0).astype(np.float64)  # 0 where N = p + rint(e) exactly


# A float cell is laid out in six 8-byte words, a 0 byte meaning no byte:
#   word 0     the sign, "0." and up to three zeros of a fixed cell below 1,
#              the first digit and the slot for a point after it
#   words 1-4  digits 1 to 16, four per word, each followed by a point slot
#   word 5     "e", the exponent sign and digits, and the separator
# In a block where no float cell prints an exponent, a float cell is words
# 0-4 only, the separator taking the slot after digit 16, where no point
# goes.  A bool cell is one word: its digit and the separator.  The tables
# hold words as rows of 8 bytes, so that a word reads the same bytes on
# any byte order; the words of digits and of the lead fill every slot,
# and a mask per word keeps the digits written, the one point and, in a
# five-word cell, the separator.
_FIELD_WORDS = 6

_ZERO = ord("0")
# every 4-digit group g = 100*hi + lo from the 100 2-digit ones, without
# an array of 10000 ints
_pairs = np.arange(100, dtype=np.uint8)
_pair_digits = np.stack([_pairs // 10, _pairs % 10], axis=1)
# digits up to the last nonzero one: 2, 1 for a multiple of 10, 0 for 00
_pair_significant = (_pairs % 10 != 0).astype(np.int16) + (_pairs != 0)
_word = np.full((100, 100, 8), ord("."), dtype=np.uint8)
_word[:, :, 0:4:2] = _pair_digits[:, None, :] + _ZERO
_word[:, :, 4:8:2] = _pair_digits[None, :, :] + _ZERO
_DIGITS = _words(_word).reshape(10000)
# per group index i (digits 4i+1 to 4i+4 of N after the first) and group
# g: 18 times the count of digits of N up to the last nonzero digit of g,
# and 18 times 1, the first digit, for g = 0
_significant = np.where(_pairs[None, :] != 0, 2 + _pair_significant[None, :],
                        _pair_significant[:, None]).reshape(10000)
_TAIL = (18 * np.where(_significant > 0, 4 * np.arange(4, dtype=np.int16)[:, None] + 1 + _significant, 1)
         ).astype(np.int16)
# per mask index 18 * s + c and word 0-4: the bytes written, s being the
# count of significant digits and c the point code (0 below 1, otherwise
# 1 + the index of the last integer digit)
_s, _c = np.divmod(np.arange(18 * 18), 18)
_written = np.maximum(_s, np.maximum(_c, 1))
_point = np.where((_c >= 1) & (_s > _c), _c - 1, -1)  # the digit the point follows
_digit = 4 * np.arange(-1, 4)[:, None] + np.arange(8) // 2 + 1  # of each byte of words 0-4
_keep = np.where(np.arange(8) % 2 == 0, _digit < _written[:, None, None], _digit == _point[:, None, None])
_keep[:, 0, :7] = True
_KEEP = _words(np.where(_keep, 255, 0))
# word 0 per sign (2), -D of a cell below 1 ("0." and -D-1 zeros before
# the first digit; 0 for any other cell, 5) and first digit (11, the last
# for the N = 1e17 that goes to Python)
_lead = np.zeros((2, 5, 11, 8), dtype=np.uint8)
_lead[1, ..., 0] = ord("-")
_lead[:, 1:, :, 1] = _ZERO
_lead[:, 1:, :, 2] = ord(".")
_lead[..., 3:6] = np.where(np.arange(5)[:, None, None] - 1 > np.arange(3), _ZERO, 0)
_lead[..., 6] = np.arange(11) % 10 + _ZERO
_lead[..., 7] = ord(".")
_LEAD = _words(_lead.reshape(110, 8))
_NEGATIVE = np.intp(55)  # the lead index of a minus sign
# word 5 per row: the exponent of an exponential cell, and the separator
_exp = np.abs(_d)
_tail = np.zeros((len(_d), 8), dtype=np.uint8)
_fixed = (_d >= -4) & (_d < 17)
_tail[~_fixed, 0] = ord("e")
_tail[~_fixed, 1] = np.where(_d < 0, ord("-"), ord("+"))[~_fixed]
_tail[~_fixed, 2] = np.where(_exp >= 100, _exp // 100 + _ZERO, 0)[~_fixed]
_tail[~_fixed, 3] = (_exp // 10 % 10 + _ZERO)[~_fixed]
_tail[~_fixed, 4] = (_exp % 10 + _ZERO)[~_fixed]
_tail[:, 7] = ord(",")
_ROW_EXPONENT = _words(_tail)
# per row: the point code, and 11 times -D of a cell below 1 (the lead index)
_ROW_CODE = np.where(~_fixed, 1, np.where(_d < 0, 0, _d + 1)).astype(np.intp)
_ROW_LEAD = np.where(_fixed & (_d < 0), -11 * _d, 0).astype(np.intp)
_SEPARATOR = _words([0, 0, 0, 0, 0, 0, 0, ord(",")])
_BOOL = _words([[_ZERO, 0, 0, 0, 0, 0, 0, ord(",")], [_ZERO + 1, 0, 0, 0, 0, 0, 0, ord(",")]])
del (_binade, _power_binade, _above, _has_power, _low, _d, _zero, _j, _e, _pairs, _pair_digits,
     _pair_significant, _word, _significant, _s, _c, _written, _point, _digit, _keep, _lead,
     _exp, _tail, _fixed)


def _float_work(cells: int) -> list[tuple[tuple[int, ...], type]]:
    """The ``(shape, dtype)`` of the work arrays of :func:`_float_fields`
    for ``cells`` values."""
    return [((8, cells), np.float64), ((4, cells), np.intp), ((cells,), np.int32), ((5, cells), np.int16),
            ((cells,), np.uint64), ((cells, 5), np.uint64), ((3, cells), np.bool_)]


# numpy scalars, which a ufunc takes without converting a Python number
_INF, _TWO_53 = np.float64(np.inf), np.float64(2.0**53)
_ROW_0, _E8, _E4, _NINE, _SIGN_BIT = (np.intp(i) for i in (2 * _X_MIN, 10**8, 10**4, 9, 63))


def _float_fields(v: np.ndarray, fields: np.ndarray, work: list[np.ndarray]) -> int:
    """Write the ``%.17g`` text of each entry of float64 ``v``, laid out
    in words, to the rows of ``fields[:len(v) * width].reshape(-1, width)``
    and return the width: 5 words a cell where no entry prints an exponent,
    else ``_FIELD_WORDS``.  A non-finite entry leaves only its separator.
    ``fields`` is flat uint64 of at least ``len(v) * _FIELD_WORDS``, and
    ``work`` the arrays of :func:`_float_work` for ``len(v)`` cells."""
    floats, (row, n, first, lead), x, (*tails, sig), digits, keep, (finite, up, doubt) = work
    w, t, c, wh, wl, p, e, r = floats
    # once N is formed, the float rows hold its digits as integers
    spare = floats.view(np.intp)
    quotients, rests, halves = spare[0:2], spare[2:4], spare[4:6]
    groups = (quotients[0], rests[0], quotients[1], rests[1])  # digits 1-4, 5-8, 9-12, 13-16

    np.abs(v, w)
    np.less(w, _INF, finite)
    blank = not finite.all()
    if blank:
        w[~finite] = 0.0
    np.frexp(w, w, x)
    np.multiply(w, _TWO_53, w)
    np.add(x, x, row)
    np.subtract(row, _ROW_0, row)
    _THRESHOLD.take(row, None, t, "wrap")
    np.greater_equal(w, t, up)
    np.add(row, up, row)

    _product(w, _ROW, row, p, e, (t, c, wh, wl))
    np.rint(e, r)
    np.subtract(e, r, e)
    np.abs(e, e)
    _ROW_INEXACT.take(row, None, t, "wrap")
    np.multiply(e, t, e)
    np.greater(e, _TIE, doubt)
    n[...] = p  # N = p + r in int64
    first[...] = r
    np.add(n, first, n)

    # N = first * 10**16 + halves[0] * 10**8 + halves[1], each half two
    # groups of 4 digits; N = 1e17 goes to Python
    np.floor_divide(n, _E8, lead)
    np.multiply(lead, _E8, halves[1])
    np.subtract(n, halves[1], halves[1])
    np.floor_divide(lead, _E8, first)
    np.multiply(first, _E8, halves[0])
    np.subtract(lead, halves[0], halves[0])
    np.floor_divide(halves, _E4, quotients)
    np.multiply(quotients, _E4, rests)
    np.subtract(halves, rests, rests)
    np.greater(first, _NINE, up)
    np.logical_or(doubt, up, doubt)
    for i in range(4):
        _TAIL[i].take(groups[i], None, tails[i], "wrap")
    np.maximum(tails[0], tails[1], out=sig)
    np.maximum(sig, tails[2], out=sig)
    np.maximum(sig, tails[3], out=sig)
    _ROW_CODE.take(row, None, lead, "wrap")
    np.add(lead, sig, n)  # the mask index 18 * s + c
    _ROW_LEAD.take(row, None, lead, "wrap")
    np.add(lead, first, lead)
    np.right_shift(v.view(np.int64), _SIGN_BIT, first)  # -1 for a set sign bit, else 0
    np.bitwise_and(first, _NEGATIVE, first)
    np.add(lead, first, lead)

    _ROW_EXPONENT.take(row, None, digits, "wrap")
    np.not_equal(digits, _SEPARATOR, up)
    width = _FIELD_WORDS if up.any() else _FIELD_WORDS - 1
    out = fields[:len(v) * width].reshape(-1, width)
    if width == _FIELD_WORDS:
        out[:, 5] = digits
    _KEEP.take(n, 0, keep, "wrap")
    _LEAD.take(lead, None, digits, "wrap")
    np.bitwise_and(digits, keep[:, 0], out[:, 0])
    for i in range(3):
        _DIGITS.take(groups[i], None, digits, "wrap")
        np.bitwise_and(digits, keep[:, 1 + i], out[:, 1 + i])
    _DIGITS.take(groups[3], None, digits, "wrap")
    if width == _FIELD_WORDS:
        np.bitwise_and(digits, keep[:, 4], out[:, 4])
    else:  # the separator in the slot after digit 16
        np.bitwise_and(digits, keep[:, 4], digits)
        np.bitwise_or(digits, _SEPARATOR, out[:, 4])

    if blank:
        out[~finite, :width - 1] = 0
        out[~finite, width - 1] = _SEPARATOR
    if doubt.any():
        slow = np.flatnonzero(doubt)
        out[slow, 3:width - 1] = 0
        out[slow, width - 1] = _SEPARATOR
        text = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype="S24")
        out[slow, :3] = text.view(np.uint64).reshape(-1, 3)
    return width


def _field_chunks(columns: list[np.ndarray], n: int, rows: int):
    """The CSV rows of 1-D float64 and bool columns, as ASCII bytes, one
    chunk per block of at most ``rows`` rows.  Each block fills one word
    matrix, made once per table like every work array, and one compaction
    gives its text.  The blocks differ by one row at most, and the float
    cells of a shorter block are computed for a whole one, the rows
    beyond the table holding zeros."""
    rows = -(-n // -(-n // rows)) if n else rows  # ceil(n / the count of blocks)
    floats = [j for j, c in enumerate(columns) if c.dtype == np.float64]
    bools = [j for j, c in enumerate(columns) if c.dtype == np.bool_]
    # per float cell width, the first word of each column
    starts = {width: np.cumsum([0] + [width if c.dtype == np.float64 else 1 for c in columns]).tolist()
              for width in (_FIELD_WORDS - 1, _FIELD_WORDS)}
    # runs of adjacent float columns: [first float index, count, first column]
    runs = []
    for i, j in enumerate(floats):
        if runs and floats[i - 1] == j - 1:
            runs[-1][1] += 1
        else:
            runs.append([i, 1, j])
    cells = rows * len(floats)
    mixed = len(floats) < len(columns)  # else the float cells are the rows
    words, values, fields, *work = _work_arrays(
        ((rows * starts[_FIELD_WORDS][-1],), np.uint64), ((rows, len(floats)), np.float64),
        ((cells * _FIELD_WORDS if mixed else 0,), np.uint64), *_float_work(cells))
    width = _FIELD_WORDS
    for start in range(0, n, rows):
        k = min(rows, n - start)
        if floats:
            for i, j in enumerate(floats):
                values[:k, i] = columns[j][start:start + k]
            values[k:] = 0.0
            width = _float_fields(values.reshape(-1), fields if mixed else words, work)
        start_word = starts[width]
        text = words[:k * start_word[-1]].reshape(k, -1)
        if mixed:
            cell_words = fields[:cells * width].reshape(rows, -1)
            for i, count, j in runs:
                text[:, start_word[j]:start_word[j] + width * count] = (
                    cell_words[:k, width * i:width * (i + count)])
        for j in bools:
            _BOOL.take(columns[j][start:start + k].view(np.uint8), None, text[:, start_word[j]], "clip")
        text.view(np.uint8)[:, -1] = ord("\n")
        yield text.tobytes().translate(None, b"\0")


def _table_chunks(header: Sequence[str], columns: list[np.ndarray], n: int):
    """The UTF-8 bytes of a table: the header line, then one chunk per
    block of rows, each formatted only once the chunk before it is taken,
    so that the text of two blocks at most is alive at a time.  A block
    has at most ``_FIELD_CELLS`` cells and at least one row."""
    rows = max(1, _FIELD_CELLS // max(len(columns), 1))
    yield (",".join(header) + "\n").encode("utf-8")
    if all(c.ndim == 1 and c.dtype in (np.float64, np.bool_) for c in columns):
        yield from _field_chunks(columns, n, rows)
    else:
        for start in range(0, n, rows):
            yield _block_rows([c[start:start + rows] for c in columns])


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


# --- exact decimal reading at array speed -------------------------------------
#
# A cell of a plain file is read here when it is [-]digits[.digits], the
# point anywhere, with an optional (e|E)[+-] and 1-3 digits, and its
# mantissa (digits and point) is at most 24 bytes.  The file goes in chunks
# of whole lines of about _CHUNK_CELLS cells, so that every temporary stays
# small, and its bytes are never copied.  One scan of a chunk finds the
# bytes outside '-' to '9': the ',' and '\n' that must alternate, two cells
# a line, the exponent letters, at most one a cell, and any other byte.  A
# byte outside the plain set, a letter but e or E, or a second letter in a
# cell sends the file to the line loop; any other byte sends its cell to
# Python's float(), unless it is a '+' after a letter.
#
# A mantissa is read as the three 8-byte words that end at its last byte,
# little-endian on any machine, each joined from two aligned words of the
# file (a word that reaches past either end of the file is made in Python).
# Only the low nibbles of the mantissa's bytes are kept: a digit is its
# value, the point 14, a '-' or '/' 13 or 15.  One test per byte for a
# nibble above 9 finds the point, and the place of its byte gives the count
# of fraction digits.  The bytes before the point move one place on, over
# it, and each word gives its 8-digit integer by the multiply-and-shift of
# Lemire's parse_eight_digits ("Number Parsing at a Gigabyte per Second",
# 2021).  w = word2 * 1e16 + word1 * 1e8 + word0 fits uint64 while word2 is
# at most 1843; a longer mantissa goes to float().
#
# The value is w * 10**q, q the exponent less the fraction digits.  With
# w = wh + wl, wh the double nearest, and the writer's 10**q = 2**E *
# (hi + lo), _product gives wh * (hi + lo) = p + e, and e takes wl * hi
# too.  p + (e - b) and p + (e + b), b = 2**-80 * p, then round to one
# double, the correct rounding, unless a tie lies too near (see _product).
# Where they differ, or a nonzero value leaves the normal range, or q lies
# beyond the tables, float() reads the cell.

# cells of a chunk, which holds whole lines: every temporary of a chunk
# of 17-digit cells stays within about 1 MB
_CHUNK_CELLS = 8192

# a byte less '-' above 12 lies outside '-' to '9'
_MINUS, _DIGIT_SPAN, _NINE_BYTE = np.uint8(ord("-")), np.uint8(ord("9") - ord("-")), np.uint8(ord("9"))
# _CASE, the bit that sets an ASCII letter in lower case
_COMMA, _NEWLINE, _PLUS, _LETTER_E, _CASE = (np.uint8(ord(b)) for b in ",\n+e ")
_OUTSIDE_PLAIN = np.ones(256, dtype=np.bool_)
_OUTSIDE_PLAIN[list(_PLAIN)] = False

_NIBBLES, _HIGH_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F), np.uint64(0xF0F0F0F0F0F0F0F0)
# a nibble plus 0x76 sets its byte's top bit when it is above 9
_ABOVE_NINE, _BYTE_TOPS = np.uint64(0x7676767676767676), np.uint64(0x8080808080808080)
_POINTS, _BYTE_SUM, _FIFTEEN = np.uint64(0x0E0E0E0E0E0E0E0E), np.uint64(0x0101010101010101), np.uint64(15)
_SHIFT_7, _SHIFT_8, _SHIFT_16, _SHIFT_32, _SHIFT_56, _SHIFT_64 = (np.uint64(s) for s in (7, 8, 16, 32, 56, 64))
# parse_eight_digits: digit pairs, then groups of four, then the eight
_PAIRS, _QUADS = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0000FFFF0000FFFF)
_TIMES_PAIR, _TIMES_QUAD, _TIMES_EIGHT = (np.uint64(10**k * 2**(8 * k) + 1) for k in (1, 2, 4))
_WORD_1, _WORD_2, _LAST_WORD = np.uint64(10**8), np.uint64(10**16), np.uint64(1843)
# per count v (0-8) of a word's last bytes: their low nibbles, and their
# high nibbles as a digit has them
_last = np.array([(1 << 64) - (1 << 64 - 8 * v) for v in range(9)], dtype=object)
_TAIL_NIBBLES = (_last & 0x0F0F0F0F0F0F0F0F).astype(np.uint64)
_TAIL_THREES = (_last & 0x3030303030303030).astype(np.uint64)
_TAIL_SHIFT = np.array([64 - 8 * v for v in range(9)], dtype=np.uint64)
# a point marked 1 in byte i of mantissa word k (word 0 the last) times
# _POINT_PLACE[k] has g = 24 - f = 17 + i - 8k in its top byte, f being the
# digits after the point; g = 0 without a point.  Per g: f, and per word
# the bytes that move one place on, the point and those before it
_POINT_PLACE = [np.uint64(sum(24 - i - 8 * k << 8 * i for i in range(8))) for k in range(3)]
_FRACTION = np.array([0] + [24 - g for g in range(1, 25)], dtype=np.intp)
_MOVED = [np.array([(1 << 8 * min(max(g + 8 * k - 16, 0), 8)) - 1 for g in range(25)], dtype=np.uint64)
          for k in range(3)]
_POW = (_POW_HI, *_halves(_POW_HI), _POW_LO)  # the table of _product
_POW_SHIFT = _POW_E.astype(np.int32)  # np.ldexp's vector loop takes int32 exponents
_POW_ROWS = np.uint64(len(_POW_E))
_SLACK, _SMALLEST_NORMAL = np.float64(2.0**-80), np.float64(2.0**-1022)
del _last


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """In place: each word of 8 digit nibbles, the first digit in its
    first byte, becomes the integer they spell."""
    words *= _TIMES_PAIR
    words >>= _SHIFT_8
    words &= _PAIRS
    words *= _TIMES_QUAD
    words >>= _SHIFT_16
    words &= _QUADS
    words *= _TIMES_EIGHT
    words >>= _SHIFT_32
    return words


def _words_at(raw: bytes, aligned: np.ndarray, pos: np.ndarray, count: int) -> list[np.ndarray]:
    """The little-endian 8-byte words of ``raw`` at each of the increasing
    positions ``pos``, then at ``pos - 8`` and so on, ``count`` in all.
    Each joins two of the file's ``aligned`` words; one that reaches past
    either end of the file is made in Python, with '0' bytes before the
    file and zero bytes after it."""
    at = pos >> 3
    low = ((pos & 7) << 3).astype(np.uint64)
    high = _SHIFT_64 - low
    words, above = [], aligned.take(at + 1, mode="clip")
    for k in range(count):
        below = aligned.take(at - k, mode="clip")
        above <<= high
        word = below >> low
        word |= above
        words.append(word)
        above = below
    edges = [*range(np.searchsorted(at, count - 1)), *range(np.searchsorted(at, len(aligned) - 2, "right"), len(at))]
    for cell in edges:
        for k, word in enumerate(words):
            p = int(pos[cell]) - 8 * k
            piece = b"0" * min(max(-p, 0), 8) + raw[max(p, 0):max(p + 8, 0)]
            word[cell] = int.from_bytes(piece.ljust(8, b"\0"), "little")
    return words


def _exponents(raw: bytes, buf: np.ndarray, aligned: np.ndarray, start: np.ndarray, end: np.ndarray):
    """``(value, bad)``: the integer of each exponent text ``raw[start:end]``,
    an optional sign and 1-3 digits, and where a text is not one."""
    sign = buf.take(start, mode="clip")
    minus = sign == _MINUS
    signed = minus | (sign == _PLUS)
    start = start + signed
    digits = end - start
    (word,) = _words_at(raw, aligned, start, 1)
    word <<= _TAIL_SHIFT.take(digits, mode="clip")  # the digits at the word's end
    bad = (word & _HIGH_NIBBLES) != _TAIL_THREES.take(digits, mode="clip")
    bad |= (digits < 1) | (digits > 3)
    word &= _NIBBLES
    bad |= ((word + _ABOVE_NINE) & _BYTE_TOPS) != 0
    value = _eight_digits(word).view(np.int64)
    np.negative(value, out=value, where=minus)
    return value, bad


def _mantissas(raw: bytes, aligned: np.ndarray, end: np.ndarray, length: np.ndarray, odd: np.ndarray):
    """``(w, fraction)``: the digits of each mantissa ``raw[end - length:end]``
    as an integer and the count of them after its point.  Sets ``odd``
    where a mantissa is not digits with at most one point, has no digit,
    or is longer than 24 bytes or than uint64 holds."""
    count = max(1, -(-min(int(length.max()), 24) // 8))  # the words the longest mantissa reaches
    words = _words_at(raw, aligned, end - 8, count)
    for k, word in enumerate(words):
        word &= _TAIL_NIBBLES.take(length - 8 * k, mode="clip")
        mark = (word + _ABOVE_NINE) & _BYTE_TOPS
        mark >>= _SHIFT_7  # 1 in each byte that is not a digit
        flaw = word ^ _POINTS  # ... and is not a point
        flaw &= mark * _FIFTEEN
        place = mark * _POINT_PLACE[k]
        place >>= _SHIFT_56
        if k == 0:
            marks, flaws, g = mark, flaw, place
        else:
            marks += mark
            flaws |= flaw
            g += place
    points = (marks * _BYTE_SUM >> _SHIFT_56).view(np.int64)
    odd |= (flaws != 0) | (points > 1) | (length <= points) | (length > 24)
    g = g.view(np.int64)
    for k, word in enumerate(words):
        moved = word << _SHIFT_8
        if k + 1 < count:
            moved |= words[k + 1] >> _SHIFT_56
        moved ^= word
        moved &= _MOVED[k].take(g, mode="clip")
        word ^= moved
        _eight_digits(word)
    w = words[0]
    if count > 1:
        w += words[1] * _WORD_1
    if count > 2:
        odd |= words[2] > _LAST_WORD
        w += words[2] * _WORD_2
    return w, _FRACTION.take(g, mode="clip")


def _scaled(w: np.ndarray, q: np.ndarray, doubt: np.ndarray) -> np.ndarray:
    """``w * 10**q`` as float64, correctly rounded where ``doubt`` is not
    set; sets ``doubt`` where it cannot tell the rounding or a nonzero
    value leaves the normal range.  Overwrites ``w`` and ``q``."""
    w[doubt] = 0  # a w near 2**64 may round to 2**64, which uint64 does not hold
    q -= _J_MIN  # the row of 10**q in the tables
    wh = w.astype(np.float64)
    w -= wh.astype(np.uint64)  # wl = w - wh, exact as int64
    p, e, b, *work = (np.empty_like(wh) for _ in range(6))
    _product(wh, _POW, q, p, e, (b, *work))
    _POW_HI.take(q, None, b, "clip")
    b *= w.view(np.int64)
    e += b
    np.multiply(p, _SLACK, b)
    above = e + b
    above += p
    e -= b
    e += p  # below
    with np.errstate(over="ignore", under="ignore"):
        values = np.ldexp(e, _POW_SHIFT.take(q, mode="clip"))
    doubt |= e != above
    doubt |= q.view(np.uint64) >= _POW_ROWS  # q beyond the tables
    doubt |= ~(values >= _SMALLEST_NORMAL) & (p != 0.0)  # a zero is exact
    doubt |= values == _INF
    return values


def _float_cells(raw: bytes, a: int, ends: np.ndarray, values: np.ndarray, cells: np.ndarray) -> bool:
    """Python's float() of each cell ``i`` in ``cells`` of the chunk at
    ``a``, which ends at ``ends[i]``, into ``values``; False if one is not
    a number."""
    try:
        for i in cells.tolist():
            values[i] = float(raw[ends[i - 1] + 1 if i else a:ends[i]])
    except ValueError:
        return False
    return True


def _alternate(kinds: np.ndarray) -> bool:
    """Whether the separator bytes ``kinds`` are ',' and '\\n' in turn."""
    return len(kinds) % 2 == 0 and bool((kinds[0::2] == _COMMA).all() and (kinds[1::2] == _NEWLINE).all())


def _chunk_values(raw: bytes, buf: np.ndarray, aligned: np.ndarray, a: int, b: int):
    """The float64 values of the cells of the whole lines ``raw[a:b]``,
    in order, or None: a byte outside the plain set, a line without two
    cells, a byte above '9' other than one exponent letter a cell, or a
    cell that float() refuses."""
    c = buf[a:b]
    ends = np.flatnonzero(np.subtract(c, _MINUS) > _DIGIT_SPAN)
    kinds = c.take(ends)
    if b == len(raw) and raw[-1] != _NEWLINE:  # the break the last line lacks
        ends = np.append(ends, b - a)
        kinds = np.append(kinds, _NEWLINE)
    if _OUTSIDE_PLAIN.take(kinds).any():
        return None
    ends += a
    other = None
    if not _alternate(kinds):
        is_sep = (kinds == _COMMA) | (kinds == _NEWLINE)
        at = np.flatnonzero(~is_sep)
        # each other byte, its kind, and its cell: the separators before it
        other, other_kinds, other_cell = ends[at], kinds[at], at - np.arange(len(at))
        ends, kinds = ends[is_sep], kinds[is_sep]
        if not _alternate(kinds):
            return None
    starts = np.empty_like(ends)
    starts[0] = a
    np.add(ends[:-1], 1, out=starts[1:])
    negative = buf.take(starts, mode="clip") == _MINUS
    mantissa_end, q, odd = ends, np.zeros(len(ends), np.intp), np.zeros(len(ends), np.bool_)
    if other is not None:
        letter = other_kinds > _NINE_BYTE
        if letter.any():
            at, cell = other[letter], other_cell[letter]
            if ((other_kinds[letter] | _CASE) != _LETTER_E).any() or (cell[1:] == cell[:-1]).any():
                return None
            mantissa_end = ends.copy()
            mantissa_end[cell] = at
            q[cell], odd[cell] = _exponents(raw, buf, aligned, at + 1, ends[cell])
        loose = ~letter
        if loose.any():  # a '+' after a letter is the exponent's sign
            at, cell = other[loose], other_cell[loose]
            sign = (other_kinds[loose] == _PLUS) & ((buf.take(at - 1, mode="clip") | _CASE) == _LETTER_E)
            odd[cell[~sign]] = True
    length = mantissa_end - starts
    length -= negative
    del starts
    w, fraction = _mantissas(raw, aligned, mantissa_end, length, odd)
    del mantissa_end, length
    q -= fraction
    del fraction
    values = _scaled(w, q, odd)
    np.negative(values, out=values, where=negative)
    if not _float_cells(raw, a, ends, values, np.flatnonzero(odd)):
        return None
    return values


def _parse_plain(raw: bytes):
    """``(coords, values, has_header)`` from the array-speed reader, or None.

    None leaves the decision to the line loop: a byte outside the plain
    set, a first line without two cells, any line that is not a data row,
    fewer than two rows, or a parse, finiteness or ordering failure.
    """
    end = raw.find(b"\n")
    line = raw[:end if end >= 0 else len(raw)]
    first = line.split(b",")
    if len(first) != 2 or line.translate(None, _PLAIN):
        return None
    try:
        float(first[0]), float(first[1])
        header = False
    except ValueError:
        header = True
    start = 0 if not header else end + 1 if end >= 0 else len(raw)
    buf = np.frombuffer(raw, np.uint8)
    aligned = np.frombuffer(raw if len(raw) >= 8 else bytes(8), "<u8", max(len(raw) // 8, 1))
    coords, values = [], []
    size = 2 * _CHUNK_CELLS  # bytes: a cell takes two at least, with its separator
    while start < len(raw):
        stop = raw.find(b"\n", start + size - 1) + 1 or len(raw)
        cells = _chunk_values(raw, buf, aligned, start, stop)
        if cells is None:
            return None
        coords.append(cells[0::2].copy())
        values.append(cells[1::2].copy())
        size = _CHUNK_CELLS * (stop - start) // len(cells) + 1  # at the bytes a cell took
        start = stop
    if sum(map(len, coords)) < 2:
        return None
    t = np.concatenate(coords)
    del coords
    v = np.concatenate(values)
    if not (np.isfinite(t).all() and np.isfinite(v).all() and (t[1:] > t[:-1]).all()):
        return None
    return t, v, header


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
