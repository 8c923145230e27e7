"""Typed result tables with provenance comments and atomic CSV round-trips.

A write reduces each column to the distinct values of its runs of equal
cells, floats compared bit for bit, and checks and formats each value once.
Only a float column of more than ``_CHUNK_ROWS`` runs is printed a chunk of
rows at a time instead.  Floats are printed by a numpy kernel that gives the
bytes of ``"%.16e"``.  Every check runs before the temp file is made."""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError

# 17 significant digits: exact float64 round-trip
_FLOAT_FMT = "%.16e"
_INT_RE = re.compile(r"^[+-]?\d+$")
_CHUNK_ROWS = 4096  # rows formatted and joined per write: bounded memory, few write calls
_FLOAT_WORDS = 7  # uint32 words of a float cell's text: 24 bytes at most, NUL-padded
_TEN16 = 10 ** 16
_DIRECT = 1e280  # the float kernel prints 1/_DIRECT < |x| < _DIRECT itself
# the powers of ten it scales by: 10**(16 - e10) for those x, with a margin;
# 10**300 is about the largest whose Veltkamp split does not overflow
_POW_MIN, _POW_MAX = -270, 300
_EXP_MAX = 300  # the decimal exponents it writes lie in [-_EXP_MAX, _EXP_MAX]


@dataclass
class ResultTable:
    """Columns plus units and a provenance block.  A column is a 1-D numpy
    array of float (at most 64 bits), int or str."""

    columns: dict
    units: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, values in self.columns.items():
            if not (isinstance(values, np.ndarray) and values.ndim == 1 and (
                    values.dtype.kind in "iuU"
                    or values.dtype.kind == "f" and values.itemsize <= 8)):
                what = (f"a {values.ndim}-D {values.dtype} array"
                        if isinstance(values, np.ndarray) else f"a {type(values).__name__}")
                raise InputError(f"column {name!r} is {what}, not a 1-D array of float "
                                 "(at most 64 bits), int or str")
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise InputError(f"column lengths differ: {lengths}")
        if not self.provenance:
            raise InputError("provenance block must not be empty")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0


def _check_text(value: str, what: str = "string cell") -> str:
    if "," in value or "\n" in value or "\r" in value or value.startswith("#"):
        raise InputError(f"{what} {value!r} would break the CSV dialect")
    if "\0" in value:
        raise InputError(f"{what} {value!r} holds a NUL, which the writer drops")
    return value


class _Digits(NamedTuple):
    """Tables of the float kernel."""

    hi: np.ndarray  # 10**s for _POW_MIN <= s <= _POW_MAX as the sum hi + lo
    lo: np.ndarray
    hi_big: np.ndarray  # Veltkamp halves of hi
    hi_small: np.ndarray
    prefix: np.ndarray  # the word "[-]D." at 10 * sign + D
    quads: np.ndarray  # the word of four digits at 0..9999
    exponent: np.ndarray  # the two words of "e+XX" at 0..2 * _EXP_MAX


@functools.cache
def _digits() -> _Digits:
    """The float kernel's tables, built on its first call.  Each power of
    ten comes from exact integers: int / int rounds correctly."""
    hi, lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        head = num / den
        head_num, head_den = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * head_den - head_num * den) / (den * head_den))
    hi = np.array(hi)
    quad = np.arange(10000, dtype=np.uint16)[:, None]
    quads = (quad // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    return _Digits(
        hi, np.array(lo), *_split(hi),
        _words([b"%s%d." % (sign, d) for sign in (b"", b"-") for d in range(10)])[:, 0],
        quads.view(np.uint32)[:, 0],
        _words([b"e%+03d" % e for e in range(-_EXP_MAX, _EXP_MAX + 1)]).T.copy())


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    big = c - (c - a)
    return big, a - big


def _scaled(ax, e10, digits: _Digits):
    """``ax * 10**(16 - e10)`` as an int64 integer part and a fraction in
    [0, 1), within 1e-14 of exact.  The product by the power's head is
    exact (Dekker, Numer. Math. 18, 224 (1971)), so what rounds is the
    power's tail (|lo| <= 2**-53 hi) times ``ax``, and the sum of the two
    corrections."""
    at = 16 - _POW_MIN - e10
    hi, lo, hi_big, hi_small = (table.take(at) for table in digits[:4])
    big, small = _split(ax)
    head = ax * hi  # an integer whenever the product lies in [1e16, 1e17)
    tail = ((big * hi_big - head) + big * hi_small + small * hi_big) + small * hi_small
    tail += ax * lo
    whole = np.floor(tail)
    return head.astype(np.int64) + whole.astype(np.int64), tail - whole


def _float_words(x: np.ndarray) -> np.ndarray:
    """The ``"%.16e"`` text of each cell of a float array, widened to
    float64 (exactly), as a ``(len(x), _FLOAT_WORDS)`` uint32 matrix of
    NUL-padded bytes: the word ``[-]D.``, four words of four digits, two of
    exponent.

    A cell with 1/_DIRECT < |x| < _DIRECT is scaled to y = |x| * 10**(16 -
    e10) in [1e16, 1e17), e10 its decimal exponent, and y is rounded to its
    17 digits.  The scaling is exact to 1e-14, so only a cell whose fraction
    lies within 1e-9 of one half could round either way.  That cell, and
    each nonzero cell outside the range (nan and inf among them), gets
    ``"%.16e"`` itself."""
    digits = _digits()
    with np.errstate(invalid="ignore"):  # widening keeps a signalling nan a nan
        x = x.astype(np.float64, copy=False)
    ax = np.abs(x)
    direct = (ax > 1 / _DIRECT) & (ax < _DIRECT)
    ax[~direct] = 1.0
    e10 = np.log10(ax)
    e10 = np.floor(e10, out=e10).astype(np.intp)
    whole, frac = _scaled(ax, e10, digits)
    # where log10 rounded across a power of ten, y is one decade off
    off = np.flatnonzero((whole < _TEN16) | (whole >= 10 * _TEN16))
    if len(off):
        e10[off] += np.where(whole[off] < _TEN16, -1, 1)
        whole[off], frac[off] = _scaled(ax[off], e10[off], digits)
    frac -= 0.5
    exact = direct & (np.abs(frac) >= 1e-9) & (whole >= _TEN16) & (whole < 10 * _TEN16)
    whole += frac > 0
    whole[~exact] = 0  # so a zero prints as 0 * 10**0
    e10[~exact] = 0
    carry = whole == 10 * _TEN16  # 9.99...95 rounds up into the next decade
    whole[carry] = _TEN16
    e10 += carry
    # integer division by a scalar is far faster than np.divmod
    lead = whole // _TEN16
    whole -= lead * _TEN16
    high = whole // 10 ** 8
    low = (whole - high * 10 ** 8).astype(np.uint32)
    lead += 10 * np.signbit(x)
    e10 += _EXP_MAX
    words = np.empty((len(x), _FLOAT_WORDS), np.uint32)
    words[:, 0] = digits.prefix.take(lead)
    for column, eight in ((1, high.astype(np.uint32)), (3, low)):
        quad = eight // 10000
        words[:, column] = digits.quads.take(quad)
        words[:, column + 1] = digits.quads.take(eight - quad * 10000)
    words[:, 5] = digits.exponent[0].take(e10)
    words[:, 6] = digits.exponent[1].take(e10)
    fallback = np.flatnonzero(~exact & (x != 0))
    if len(fallback):
        texts = (_FLOAT_FMT + "\n") * len(fallback) % tuple(x[fallback].tolist())
        words[fallback] = _words(texts.encode().split(), _FLOAT_WORDS)
    return words


def _words(encoded: list, width: int = 1) -> np.ndarray:
    """Byte strings as a NUL-padded uint32 matrix of ``len(encoded)`` rows
    and at least ``width`` columns."""
    width = max(width, -(-max(map(len, encoded), default=0) // 4))
    return np.array(encoded, dtype=f"S{4 * width}").view(np.uint32).reshape(-1, width)


def _column(name: str, values: np.ndarray):
    """Check one column and return ``(cells, width)``: ``cells(start, stop)``
    is the UTF-8 text of rows ``start:stop`` as a NUL-padded uint32 matrix of
    ``width`` columns.

    The column is reduced to the distinct values of its runs of equal cells,
    floats compared bit for bit, so each is checked and formatted once, and
    a chunk gathers its rows from them.  A float column of more than
    ``_CHUNK_ROWS`` runs goes to the float kernel a chunk at a time instead,
    so no more than a chunk of its text exists at once.  Nothing that can be
    refused is left to the chunks."""
    is_float = values.dtype.kind == "f"
    bits = values.view(f"i{values.itemsize}") if is_float else values
    first = np.empty(len(values), bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if is_float and np.count_nonzero(first) > _CHUNK_ROWS:
        return lambda start, stop: _float_words(values[start:stop]), _FLOAT_WORDS
    heads = np.flatnonzero(first)
    keys, key_of_run = np.unique(bits[heads], return_inverse=True)
    key_of_row = np.repeat(key_of_run.astype(np.min_scalar_type(len(keys))),
                           np.diff(heads, append=len(values)))
    if is_float:
        texts = _float_words(keys.view(values.dtype))
    else:
        formatted = [_check_text(str(key)) for key in keys.tolist()]
        if values.dtype.kind == "U" and formatted and _parsed(formatted).dtype.kind != "U":
            raise InputError(f"str column {name!r} would read back as numbers: "
                             f"each of its cells, such as {formatted[0]!r}, is one")
        texts = _words([text.encode() for text in formatted])
    return lambda start, stop: texts.take(key_of_row[start:stop], axis=0), texts.shape[1]


def _parsed(cells: list) -> np.ndarray:
    """A column's cells as one array: int64, or else uint64, when every cell
    is an integer that fits it, float when every cell is a number, else str."""
    if all(map(_INT_RE.match, cells)):
        ints = list(map(int, cells))
        low, high = min(ints, default=0), max(ints, default=0)
        for dtype in (np.int64, np.uint64):
            if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
                return np.array(ints, dtype=dtype)
        return np.array(cells, dtype=str)
    try:
        return np.array(list(map(float, cells)))
    except ValueError:
        return np.array(cells, dtype=str)


def _head(table: ResultTable) -> str:
    """Provenance and unit comments, then the header row.  Refuses a column
    name as a cell is refused, and a comment that would not read back as
    its own key and value."""
    lines = []
    for kind, entries in (("provenance", table.provenance), ("unit", table.units)):
        for key in sorted(entries):
            text = f"{key} = {entries[key]}"
            if text.partition(" = ")[0] != str(key) or "\n" in text or "\r" in text:
                raise InputError(f"{kind} entry {text!r} would break the CSV dialect")
            lines.append(f"# {kind}: {text}")
    lines.append(",".join(_check_text(str(name), "column name") for name in table.columns))
    return "\n".join(lines) + "\n"


def write_table(table: ResultTable, path: str) -> str:
    """Write atomically (temp file + rename); returns the path.

    Every cell is checked before the temp file is created, so a refused cell
    leaves ``path`` as it was.  A table with no row is refused, as its
    columns would all read back as int (a table with no column has none),
    and so is a str column whose every cell reads as a number.  Besides the
    columns, the write holds the text of each distinct value of a column
    (see ``_column``); a float column of more than ``_CHUNK_ROWS`` runs is
    formatted with its chunk of ``_CHUNK_ROWS`` rows, so no column's whole
    text exists at once.  A column's cells take a fixed slot of every row
    for the whole write, ``_FLOAT_WORDS`` words from the kernel or the words
    of its widest distinct text, in one NUL-padded uint32 matrix whose
    separators are written once.  Each chunk fills the slots, and dropping
    the NULs leaves its rows, written in one call.  Text is UTF-8, whatever
    the locale; a one-column table with an empty name or cell writes blank
    lines, which read back as rows.  The file gets the mode a plain
    ``open`` gives a new file: 0o666 less the umask.
    """
    head = _head(table).encode()
    columns = [_column(name, values) for name, values in table.columns.items()]
    if not table.n_rows:
        raise InputError("a table with no row is refused: every column would read back "
                         "as int")
    stops = np.cumsum([width + 1 for _, width in columns])
    rows = np.empty((min(table.n_rows, _CHUNK_ROWS), stops[-1]), np.uint32)
    rows[:, stops - 1] = ord(",")  # one byte once the NULs are dropped
    rows[:, -1] = ord("\n")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".qptscale_{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "xb")  # O_EXCL, so an existing file is never taken over
    try:
        with handle:
            handle.write(head)
            for start in range(0, table.n_rows, _CHUNK_ROWS):
                chunk = rows[:table.n_rows - start]
                for (cells, width), stop in zip(columns, stops):
                    chunk[:, stop - 1 - width:stop - 1] = cells(start, start + _CHUNK_ROWS)
                handle.write(chunk.tobytes().translate(None, b"\0"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_table(path: str) -> ResultTable:
    """Parse a UTF-8 table written by :func:`write_table` back, losslessly:
    each column comes back as an int, float or str array.  After the header,
    every line that is not a comment is a row, a blank one included."""
    provenance = {}
    units = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if line.startswith("# provenance: "):
                key, _, value = line[len("# provenance: "):].partition(" = ")
                provenance[key] = value
            elif line.startswith("# unit: "):
                key, _, value = line[len("# unit: "):].partition(" = ")
                units[key] = value
            elif line.startswith("#"):
                continue
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise InputError(f"{path}: no header row found")
    for row in rows:
        if len(row) != len(header):
            raise InputError(f"{path}: row width {len(row)} != header width {len(header)}")
    columns = {name: _parsed([row[i] for row in rows]) for i, name in enumerate(header)}
    return ResultTable(columns=columns, units=units, provenance=provenance)
