"""Typed result tables with provenance comments and atomic CSV round-trips."""

from __future__ import annotations

import os
import re
import secrets
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import InputError

# 17 significant digits: exact float64 round-trip
_FLOAT_FMT = "%.16e"
_INT_RE = re.compile(r"^[+-]?\d+$")
_CHUNK_ROWS = 4096  # rows joined per write: bounded memory, few write calls


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
        return _check_text
    raise InputError(f"unsupported cell type {kind.__name__}")


def _format_cells(values: list) -> list:
    """The text of each cell of a list, by the cell's own type, so a column
    may mix int, float and str cells.  Each type is checked once; a column
    of floats alone is formatted in one call."""
    formatters = {kind: _formatter(kind) for kind in set(map(type, values))}
    if formatters.keys() == {float}:
        return ((_FLOAT_FMT + "\n") * len(values) % tuple(values)).splitlines()
    return [formatters[type(value)](value) for value in values]


def _format_column(values) -> list:
    """The text of every cell of one column.  A 1-D array of one type is
    reduced to its distinct values first, so each is checked and formatted
    once; floats are told apart by their float64 bits, so 0.0 and -0.0 keep
    their signs.  A list, or an array numpy holds as objects, is formatted
    cell by cell."""
    if not isinstance(values, np.ndarray):
        return _format_cells(values)
    if values.ndim != 1 or values.dtype == object:
        return _format_cells(values.tolist())
    if values.dtype.kind == "f" and values.itemsize <= 8:  # widening is exact
        keys, inverse = np.unique(values.astype(np.float64, copy=False).view(np.int64),
                                  return_inverse=True)
        keys = keys.view(np.float64)
    else:
        keys, inverse = np.unique(values, return_inverse=True)
    return np.array(_format_cells(keys.tolist()), dtype=object)[inverse].tolist()


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

    Every cell is formatted and checked before the temp file is created, so a
    refused cell leaves ``path`` as it was.  A one-column table may hold no
    empty name or cell, since its line would be blank.  The rows are then
    written ``_CHUNK_ROWS`` at a time.  The file gets the mode a plain
    ``open`` gives a new file: 0o666 less the umask.
    """
    head = _head(table)
    columns = [_format_column(values) for values in table.columns.values()]
    if len(columns) == 1 and ("" in table.columns or "" in columns[0]):
        raise InputError("an empty name or cell in a one-column table is a blank "
                         "line, which read_table skips")
    rows = map(",".join, zip(*columns))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".qptscale_{secrets.token_hex(8)}.tmp")
    handle = open(tmp, "x")  # O_EXCL, so an existing file is never taken over
    try:
        with handle:
            handle.write(head)
            while chunk := list(islice(rows, _CHUNK_ROWS)):
                handle.write("\n".join(chunk) + "\n")
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
