import math
from decimal import Decimal
import os
import stat

import numpy as np
import pytest

from qptscale import InputError, tables
from qptscale.tables import ResultTable, read_table, write_table
from conftest import peak_bytes


def sample_table():
    return ResultTable(
        columns={
            "n": np.array([1, 2, 30000000000]),
            "value": np.array([0.1, -3.5e-120, 1.0]),
            "tag": np.array(["a", "b", "c"]),
            "u": np.array([0, 2**63 + 5, 7], dtype=np.uint64),  # above int64
        },
        units={"n": "1", "value": "energy", "tag": "label", "u": "1"},
        provenance={"config_hash": "deadbeef", "package_version": "0.1.0"},
    )


def assert_same_columns(got, want):
    """The same names, and each column of the same kind (int stays int,
    float stays float) with equal cells."""
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype.kind == want[name].dtype.kind, name
        assert got[name].tolist() == want[name].tolist(), name


def test_round_trip_is_lossless(tmp_path):
    path, again = tmp_path / "t.csv", tmp_path / "again.csv"
    table = sample_table()
    write_table(table, str(path))
    back = read_table(str(path))
    assert_same_columns(back.columns, table.columns)
    assert back.units == table.units
    assert back.provenance == table.provenance
    write_table(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_floats_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50)
    table = ResultTable(columns={"x": values}, provenance={"k": "v"})
    path = tmp_path / "f.csv"
    write_table(table, str(path))
    assert read_table(str(path)).columns["x"].tolist() == values.tolist()


def test_mismatched_column_lengths_rejected():
    with pytest.raises(InputError):
        ResultTable(columns={"a": np.array([1]), "b": np.array([1, 2])}, provenance={"k": "v"})


def test_provenance_required():
    with pytest.raises(InputError):
        ResultTable(columns={"a": np.array([1])}, provenance={})


def test_cells_that_break_the_dialect_rejected(tmp_path):
    # read_table reads in universal-newline mode, so "\r" would end a row too
    for cell in ("x,y", "x\ny", "x\ry", "#x"):
        table = ResultTable(columns={"a": np.array([cell]), "b": np.array([1])},
                            provenance={"k": "v"})
        with pytest.raises(InputError, match="dialect"):
            write_table(table, str(tmp_path / "bad.csv"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("columns,units,provenance", [
    ({"a,b": np.array([1])}, {}, {"k": "v"}),
    ({"a\nb": np.array([1])}, {}, {"k": "v"}),
    ({"a\rb": np.array([1])}, {}, {"k": "v"}),
    ({"#a": np.array([1])}, {}, {"k": "v"}),
    ({"a": np.array([1])}, {}, {"k": "v\nw"}),
    ({"a": np.array([1])}, {}, {"k": "v\rw"}),
    ({"a": np.array([1])}, {}, {"k\nx": "v"}),
    ({"a": np.array([1])}, {}, {"k = x": "v"}),
    ({"a": np.array([1])}, {}, {"k =": "v"}),
    ({"a": np.array([1])}, {"a": "1\n2"}, {"k": "v"}),
    ({"a": np.array([1])}, {"a = b": "1"}, {"k": "v"}),
], ids=["name-comma", "name-newline", "name-return", "name-hash", "value-newline",
        "value-return", "key-newline", "key-separator", "key-trailing-separator",
        "unit-newline", "unit-key-separator"])
def test_header_text_that_breaks_the_round_trip_rejected(tmp_path, columns, units,
                                                         provenance):
    table = ResultTable(columns=columns, units=units, provenance=provenance)
    with pytest.raises(InputError, match="dialect"):
        write_table(table, str(tmp_path / "new" / "h.csv"))
    assert list(tmp_path.iterdir()) == []  # refused before the directory exists


@pytest.mark.parametrize("columns", [
    {"tag": np.array([""])},
    {"tag": np.array(["a", "", "b"])},
    {"": np.array([1, 2])},
    {},
], ids=["empty-cell", "empty-array-cell", "empty-name", "no-columns"])
def test_one_column_table_with_an_empty_line_rejected(tmp_path, columns):
    # its empty name or cell, or the header of no columns, would be a blank
    # line, which read_table skips
    table = ResultTable(columns=columns, provenance={"k": "v"})
    with pytest.raises(InputError, match="blank line"):
        write_table(table, str(tmp_path / "new" / "e.csv"))
    assert list(tmp_path.iterdir()) == []  # refused before the directory exists


def test_table_with_no_row_rejected(tmp_path):
    # its header alone would read back with every column as int
    table = ResultTable(columns={"x": np.array([], float), "s": np.array([], str)},
                        provenance={"k": "v"})
    with pytest.raises(InputError, match="no row"):
        write_table(table, str(tmp_path / "new" / "z.csv"))
    assert list(tmp_path.iterdir()) == []  # refused before the directory exists


def test_empty_cells_beside_other_columns_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    table = ResultTable(columns={"tag": np.array(["a", "", "b"]), "n": np.array([1, 2, 3])},
                        provenance={"k": "v"})
    write_table(table, str(path))
    assert_same_columns(read_table(str(path)).columns, table.columns)


def test_failed_rename_removes_the_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(b"previous contents\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(tables.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_table(sample_table(), str(path))
    assert path.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "t.csv"
    write_table(sample_table(), str(path))
    assert path.exists()


def test_no_temp_files_left_behind(tmp_path):
    path = tmp_path / "t.csv"
    write_table(sample_table(), str(path))
    leftovers = [p for p in tmp_path.iterdir() if p.name != "t.csv"]
    assert leftovers == []


def _per_cell_text(table):
    """Reference rendering: every cell of every column formatted on its own."""
    def cell(value):
        return "{:.16e}".format(value) if isinstance(value, float) else str(value)
    lines = [f"# provenance: {k} = {table.provenance[k]}" for k in sorted(table.provenance)]
    lines += [f"# unit: {k} = {table.units[k]}" for k in sorted(table.units)]
    lines.append(",".join(table.columns))
    columns = [col.tolist() for col in table.columns.values()]
    lines += [",".join(cell(col[i]) for col in columns) for i in range(table.n_rows)]
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """got == want, failing with the first differing line and the line counts
    rather than a diff of two tables of thousands of lines."""
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    pytest.fail(f"texts differ first at line {i + 1}: {a[i:i + 1]} != {b[i:i + 1]}; "
                f"{len(a)} lines against {len(b)}", pytrace=False)


@pytest.mark.parametrize("runs", [tables._CHUNK_ROWS, tables._CHUNK_ROWS + 1],
                         ids=["chunk-rows-runs", "one-run-more"])
def test_streamed_rows_match_per_cell_rendering(tmp_path, runs):
    rng = np.random.default_rng(5)
    n = 2 * tables._CHUNK_ROWS + 7  # two full chunks and a partial one
    pool = [0.0, -0.0, 0.5, -2.25e-300, 1e300, 3.0]
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                        2.2250738585072014e-308, 1e300])
    # float columns of ``runs`` runs each: up to _CHUNK_ROWS runs a column is
    # reduced to its distinct values, above it goes to the kernel chunk by chunk
    run = np.zeros(n, int)
    run[rng.choice(np.arange(1, n), runs - 1, replace=False)] = 1
    run = np.cumsum(run)
    signalling = np.array([0x7FF0000000000001], np.uint64).view(np.float64)[0]
    table = ResultTable(columns={
        "f": np.array(pool)[rng.integers(0, len(pool), n)],
        "x": rng.standard_normal(n),
        "k": np.array(["a", "b"])[rng.integers(0, 2, n)],
        # each value repeats in every chunk, next to values met once
        "af": np.where(rng.random(n) < 0.5, special[rng.integers(0, len(special), n)],
                       rng.standard_normal(n)),
        "ai": rng.integers(-3, 2**40, n) * rng.integers(0, 2, n),
        "as": np.array(["a", "bb", "c-1"])[rng.integers(0, 3, n)],
        "zeros": np.array([0.0, -0.0])[run % 2],
        "nans": np.array([signalling, -math.nan, math.inf])[run % 3],
        "f32": np.array([0.1, -0.0, math.nan, 3.0], np.float32)[np.arange(n) * 4 // n],
    }, units={"x": "energy"}, provenance={"k": "v"})
    path = tmp_path / "s.csv"
    write_table(table, str(path))
    assert_same_text(path.read_text(), _per_cell_text(table))


def test_floats_met_once_in_a_late_chunk_print_as_per_cell(tmp_path, rng):
    # values met once are formatted in their own chunk, after every check
    n = 3 * tables._CHUNK_ROWS
    values = np.where(rng.random(n) < 0.5, 0.25, rng.standard_normal(n))
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    values[n - 100:n - 100 + len(special)] = special
    table = ResultTable(columns={"x": values}, provenance={"k": "v"})
    path = tmp_path / "late.csv"
    write_table(table, str(path))
    text = path.read_text()
    assert_same_text(text, _per_cell_text(table))
    assert text.splitlines()[-100:-95] == [
        "nan", "inf", "-inf", "-0.0000000000000000e+00", "4.9406564584124654e-324"]


def test_float32_column_round_trips_byte_identically(tmp_path, rng):
    n = 2 * tables._CHUNK_ROWS + 7
    values = np.where(rng.random(n) < 0.5, np.float32(0.1),
                      rng.standard_normal(n)).astype(np.float32)
    table = ResultTable(columns={"x": values, "i": np.arange(n)}, provenance={"k": "v"})
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(table, str(first))
    assert_same_text(first.read_text(), _per_cell_text(table))  # widened to float64 exactly
    back = read_table(str(first))
    assert np.array_equal(np.array(back.columns["x"], dtype=np.float32), values)
    write_table(back, str(second))
    assert second.read_bytes() == first.read_bytes()


def test_write_holds_no_column_text(tmp_path, rng):
    # shaped like an lmg-echo table: float columns of mostly distinct values
    # beside a constant one.  Formatting every cell before the first write
    # peaked near ten times the columns' bytes; chunked, it stays near one.
    n = 2 ** 17
    t = np.linspace(0.0, 2.0 * math.pi, n)
    columns = {"eta": np.full(n, 0.1), "t": t, "tau": 0.7 * t, "M": rng.random(n)}
    table = ResultTable(columns=columns, provenance={"k": "v"})
    nbytes = sum(column.nbytes for column in columns.values())
    assert peak_bytes(lambda: write_table(table, str(tmp_path / "m.csv"))) <= 2 * nbytes


def test_signed_zeros_keep_their_signs(tmp_path):
    table = ResultTable(columns={"z": np.array([0.0, -0.0, 0.0])}, provenance={"k": "v"})
    path = tmp_path / "z.csv"
    write_table(table, str(path))
    assert path.read_text().splitlines()[-3:] == [
        "0.0000000000000000e+00", "-0.0000000000000000e+00", "0.0000000000000000e+00"]
    back = read_table(str(path)).columns["z"]
    assert [math.copysign(1.0, v) for v in back] == [1.0, -1.0, 1.0]


def test_bool_array_rejected(tmp_path):
    n = 3 * tables._CHUNK_ROWS
    with pytest.raises(InputError, match="'b' is a 1-D bool array"):
        write_table(ResultTable(columns={"x": np.arange(n, dtype=float),
                                         "b": np.arange(n) % 7 == 0}, provenance={"k": "v"}),
                    str(tmp_path / "new" / "b.csv"))
    assert list(tmp_path.iterdir()) == []


def test_bad_last_cell_leaves_existing_file_untouched(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"previous contents\n")
    n = 3 * tables._CHUNK_ROWS
    table = ResultTable(columns={"x": np.arange(n, dtype=float),
                                 "tag": np.array(["ok"] * (n - 1) + ["a,b"])},
                        provenance={"k": "v"})
    with pytest.raises(InputError, match="dialect"):
        write_table(table, str(path))
    assert path.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_bad_string_met_once_in_the_last_chunk_rejected(tmp_path):
    n = 3 * tables._CHUNK_ROWS
    tags = np.array(["ok", "fine"])[np.arange(n) % 2]
    tags[-1] = "a,b"  # the only value of its kind, in the last chunk
    table = ResultTable(columns={"x": np.arange(n, dtype=float), "tag": tags},
                        provenance={"k": "v"})
    with pytest.raises(InputError, match="dialect"):
        write_table(table, str(tmp_path / "new" / "u.csv"))
    assert not (tmp_path / "new").exists()


def test_labels_alternating_over_many_runs_print_as_per_cell(tmp_path, rng):
    # runs of random length, two labels taking turns, across several chunks
    lengths = rng.integers(1, 700, 60)
    kinds = np.repeat(np.array(["collapse", "exact"] * 30), lengths)
    table = ResultTable(columns={"kind": kinds, "x": np.arange(len(kinds), dtype=float)},
                        provenance={"k": "v"})
    path = tmp_path / "runs.csv"
    write_table(table, str(path))
    assert_same_text(path.read_text(), _per_cell_text(table))


def test_int_runs_out_of_order_print_as_per_cell(tmp_path, rng):
    # runs in no sorted order, a value coming back after others, and runs of one
    values = np.array([7, -3, 2**40, 7, 0, -3, 5, 7])
    pair = np.repeat(values, [4096, 1, 3000, 1, 5000, 2, 1, 4100])
    table = ResultTable(columns={"pair": pair}, provenance={"k": "v"})
    path = tmp_path / "pairs.csv"
    write_table(table, str(path))
    assert_same_text(path.read_text(), _per_cell_text(table))


def test_bad_label_in_the_last_run_rejected(tmp_path):
    n = 3 * tables._CHUNK_ROWS
    kinds = np.repeat(np.array(["collapse", "exact", "collapse", "a,b"]), n // 4)
    table = ResultTable(columns={"x": np.arange(n, dtype=float), "kind": kinds},
                        provenance={"k": "v"})
    with pytest.raises(InputError, match="dialect"):
        write_table(table, str(tmp_path / "new" / "k.csv"))
    assert list(tmp_path.iterdir()) == []


def test_new_file_mode_follows_the_umask(tmp_path):
    path = tmp_path / "t.csv"
    for umask, mode in ((0o022, 0o644), (0o027, 0o640)):  # the second replaces the first
        previous = os.umask(umask)
        try:
            write_table(sample_table(), str(path))
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode


def _cells_as_printed(tmp_path, column):
    """The lines of ``column`` written as a one-column table."""
    path = tmp_path / "k.csv"
    write_table(ResultTable(columns={"x": column}, provenance={"k": "v"}), str(path))
    return path.read_text().splitlines()[2:]


def _printf(values):
    return ("%.16e\n" * len(values) % tuple(map(float, values))).splitlines()


def test_float_array_prints_as_printf_on_random_bit_patterns(tmp_path):
    values = np.random.default_rng(22).integers(0, 2**64, 2**20, dtype=np.uint64)
    values = values.view(np.float64)  # every sign, exponent and mantissa
    assert _cells_as_printed(tmp_path, values) == _printf(values)


def test_floats_near_every_power_of_ten_print_as_printf(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    near = powers.view(np.int64)[:, None] + np.arange(-40, 41)
    values = near.ravel().view(np.float64)
    values = np.concatenate([values, -values])
    printed = _cells_as_printed(tmp_path, values)
    assert printed == _printf(values)
    # the carry into the next decade: a double just below 10**k printed as 10**k
    carried = [v for v, text in zip(values, printed)
               if text.startswith("1.0000000000000000e") and abs(Decimal(v)) < Decimal(text)]
    assert len(carried) >= 10


def _exact_ties(rng):
    """Doubles m * 2**-k with exactly 18 significant digits, the last a 5:
    halfway between two 17-digit decimals."""
    ties = []
    for k in range(2, 26):
        lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        for m in rng.integers(lo, hi, 20):
            ties.append(math.ldexp(int(m) | 1, -k))
    return [tie for tie in ties if len(Decimal(tie).as_tuple().digits) == 18]


def test_exact_ties_print_as_printf(tmp_path, rng):
    ties = _exact_ties(rng)
    assert len(ties) > 300 and all(Decimal(tie).as_tuple().digits[-1] == 5 for tie in ties)
    values = np.array(ties + [-tie for tie in ties])
    assert _cells_as_printed(tmp_path, values) == _printf(values)


def test_ties_deep_in_a_long_column_take_the_exact_fallback(tmp_path, rng):
    # "%.16e" rounds a tie to the even digit: up where the 17th digit is odd.
    # Rounded directly, an exact half would go down, so an odd tie printing
    # as printf shows that the fallback formatted it.
    ties = _exact_ties(rng)
    odd = [t for t in ties if Decimal(t).as_tuple().digits[16] % 2]
    even = [t for t in ties if not Decimal(t).as_tuple().digits[16] % 2]
    assert odd and even
    values = rng.standard_normal(3 * tables._CHUNK_ROWS)
    values[-50:-50 + 4] = [odd[0], -odd[0], even[0], -even[0]]
    printed = _cells_as_printed(tmp_path, values)
    assert printed == _printf(values)
    assert Decimal(printed[-50]) > Decimal(odd[0])  # rounded up


def test_subnormals_edges_and_specials_print_as_printf(tmp_path, rng):
    edges = np.array([1e-280, 1e280, 1e-281, 1e281, 1e-279, 1e279,
                      2.2250738585072014e-308, 1.7976931348623157e308])
    near = (edges.view(np.int64)[:, None] + np.arange(-100, 101)).ravel().view(np.float64)
    subnormal = rng.integers(1, 2**52, 2000).view(np.float64)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324])
    values = np.concatenate([near, subnormal, special])
    values = np.concatenate([values, -values])
    assert _cells_as_printed(tmp_path, values) == _printf(values)


def test_float32_bit_patterns_print_as_printf_of_their_float64(tmp_path, rng):
    values = rng.integers(0, 2**32, 2**19, dtype=np.uint64).astype(np.uint32).view(np.float32)
    assert _cells_as_printed(tmp_path, values) == _printf(values)


@pytest.mark.parametrize("columns", [
    {"a": np.array(["ok", "x\0y"]), "b": np.array([1, 2])},
    {"a\0": np.array([1]), "b": np.array([1])},
], ids=["array-cell", "name"])
def test_nul_in_a_cell_or_name_rejected(tmp_path, columns):
    # the writer drops NUL bytes, so such text would not read back
    table = ResultTable(columns=columns, provenance={"k": "v"})
    with pytest.raises(InputError, match="NUL"):
        write_table(table, str(tmp_path / "new" / "n.csv"))
    assert list(tmp_path.iterdir()) == []


NOT_TYPED = "'c' is .*, not a 1-D array"


@pytest.mark.parametrize("column,match", [
    ([1.0, 2.0], NOT_TYPED),
    (np.array([1, "a"], dtype=object), NOT_TYPED),
    (np.array([1j, 2.0]), NOT_TYPED),
    pytest.param(np.array([1.0, 2.0], dtype=np.longdouble), NOT_TYPED, marks=pytest.mark.skipif(
        np.dtype(np.longdouble).itemsize <= 8, reason="long double is float64 here")),
    (np.zeros((2, 1)), NOT_TYPED),
    (np.array(["1.50", "2"]), "str column 'c' would read back as numbers"),
], ids=["list", "object", "complex", "float128", "2-D", "numeric-str"])
def test_columns_other_than_typed_arrays_rejected(tmp_path, column, match):
    # a column is one 1-D array of float (at most 64 bits), int or str, and
    # reads back as the same kind
    with pytest.raises(InputError, match=match):
        write_table(ResultTable(columns={"x": np.arange(2.0), "c": column},
                                provenance={"k": "v"}), str(tmp_path / "new" / "c.csv"))
    assert list(tmp_path.iterdir()) == []
