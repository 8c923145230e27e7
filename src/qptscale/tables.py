"""Typed result tables with provenance comments and atomic CSV round-trips.

Besides the columns, a write holds the text of each distinct int or str
value of an array column and of each float a float array repeats, with
their keys.  The rest of the text is made a chunk of rows at a time: a float
met once is formatted in the chunk that holds it, as is every cell of a
list.  Every check runs before the temp file is made."""

from __future__ import annotations

import os
import re
import secrets
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# 17 significant digits: exact float64 round-trip
_FLOAT_FMT = "%.16e"
_INT_RE = re.compile(r"^[+-]?\d+$")
_CHUNK_ROWS = 4096  # rows formatted and joined per write: bounded memory, few write calls


@dataclass
class ResultTable:
    """Columns plus units and a provenance block.  A column is a list of
    int/float/str cells or a 1-D numpy array of one such type."""

    columns: dict
    units: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
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
    return value


def _formatter(kind: type):
    """The function that writes cells of type ``kind``; refuses bools and
    any type other than int, float and str."""
    if issubclass(kind, bool):
        raise InputError("boolean cells are not supported; use strings")
    if issubclass(kind, int):
        return str
    if issubclass(kind, float):
        return _FLOAT_FMT.__mod__
    if issubclass(kind, str):
        return str  # the cell is checked by _formatters
    raise InputError(f"unsupported cell type {kind.__name__}")


def _formatters(values: list) -> dict:
    """The formatter of each cell type in ``values``.  Refuses a bool, an
    unsupported type and a str cell that would break the dialect, so the
    cells can then be formatted at any time without a refusal."""
    formatters = {kind: _formatter(kind) for kind in set(map(type, values))}
    if any(issubclass(kind, str) for kind in formatters):
        for value in values:
            if isinstance(value, str):
                _check_text(value)
    return formatters


def _format_floats(values: list) -> list:
    """The text of a list of floats, formatted in one call."""
    return ((_FLOAT_FMT + "\n") * len(values) % tuple(values)).splitlines()


def _format_cells(values: list, formatters: dict) -> list:
    """The text of each cell of a list, by the cell's own type, so a column
    may mix int, float and str cells."""
    if formatters.keys() == {float}:
        return _format_floats(values)
    return [formatters[type(value)](value) for value in values]


def _float_cells(values: np.ndarray):
    """The text of a float array's rows ``start:stop``.  Values are told
    apart by their float64 bits, so 0.0 and -0.0 keep their signs.  Only a
    value met more than once keeps its text; one met once is formatted in
    the chunk that holds it."""
    def bits(floats):  # widening to float64 is exact
        return floats.astype(np.float64, copy=False).view(np.int64)

    keys, counts = np.unique(bits(values), return_counts=True)
    keys = keys[counts > 1]
    texts = np.array(_format_floats(keys.view(np.float64).tolist()), dtype=object)

    def cells(start: int, stop: int) -> list:
        chunk = bits(values[start:stop])
        at = np.searchsorted(keys, chunk)
        repeated = at != np.searchsorted(keys, chunk, side="right")
        text = np.empty(len(chunk), dtype=object)
        text[repeated] = texts[at[repeated]]
        once = ~repeated
        text[once] = _format_floats(chunk[once].view(np.float64).tolist())
        return text.tolist()
    return cells


def _column(values):
    """Check one column and return ``(cells, empty)``: ``cells(start, stop)``
    is the text of rows ``start:stop``, and ``empty`` says whether some
    cell's text is the empty string.

    A 1-D array of one type is reduced to its distinct values, so each is
    checked once.  Its distinct values (of a float array, those met more
    than once) are formatted here, and a chunk finds its cells among them
    by ``np.searchsorted``.  A list, or an array numpy holds as objects, is
    checked cell by cell here and formatted chunk by chunk.  Nothing that
    can be refused is left to the chunks."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype != object:
        if values.dtype.kind == "f" and values.itemsize <= 8:
            return _float_cells(values), False
        # with no second output, np.unique takes a hash path that imports
        # numpy.ma (~20 ms and ~1.7 MB on the first call)
        keys = np.unique(values, return_counts=True)[0]
        distinct = keys.tolist()
        formatted = _format_cells(distinct, _formatters(distinct))
        texts = np.array(formatted, dtype=object)
        return (lambda start, stop: texts[np.searchsorted(keys, values[start:stop])].tolist(),
                "" in formatted)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    formatters = _formatters(values)
    return (lambda start, stop: _format_cells(values[start:stop], formatters),
            "" in values)


def _parse_cell(text: str):
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


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
    leaves ``path`` as it was.  A one-column table may hold no empty name or
    cell, since its line would be blank.  Besides the columns, the write
    holds the text of each distinct int or str value of an array column and
    of each float a float array repeats; the rest is formatted with its
    chunk of ``_CHUNK_ROWS`` rows, so no column's whole text exists at once.
    The file gets the mode a plain ``open`` gives a new file: 0o666 less the
    umask.
    """
    head = _head(table)
    columns = [_column(values) for values in table.columns.values()]
    if len(columns) == 1 and ("" in table.columns or columns[0][1]):
        raise InputError("an empty name or cell in a one-column table is a blank "
                         "line, which read_table skips")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".qptscale_{secrets.token_hex(8)}.tmp")
    handle = open(tmp, "x")  # O_EXCL, so an existing file is never taken over
    try:
        with handle:
            handle.write(head)
            for start in range(0, table.n_rows, _CHUNK_ROWS):
                text = [cells(start, start + _CHUNK_ROWS) for cells, _ in columns]
                handle.write("\n".join(map(",".join, zip(*text))) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_table(path: str) -> ResultTable:
    """Parse a table written by :func:`write_table` back, losslessly."""
    provenance = {}
    units = {}
    header = None
    rows = []
    with open(path, "r") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line:
                continue
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
    columns = {name: [] for name in header}
    for row in rows:
        if len(row) != len(header):
            raise InputError(f"{path}: row width {len(row)} != header width {len(header)}")
        for name, cell in zip(header, row):
            columns[name].append(_parse_cell(cell))
    return ResultTable(columns=columns, units=units, provenance=provenance)
