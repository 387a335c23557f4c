"""Run-trace recording, CSV serialization, and parsing."""

import dataclasses
import json
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigrad import oracles, trace as trace_module
from unigrad.trace import CSV_COLUMNS, RunTrace, block_rows, parse_trace_csv, write_trace_csv


def _sample_trace():
    trace = RunTrace(
        algorithm="oupgm",
        eps=1e-2,
        T=2,
        x0=np.array([0.5, -1.5]),
        L0=1.0,
        seed=7,
        order_kind="random",
        problem_meta={"kind": "synth-lasso", "p": 2},
        extra_meta={"note": 1},
    )
    rng = np.random.default_rng(0)
    for t in range(3):
        trace.add_row(
            t=t,
            i_t=int(rng.integers(0, 3)),
            L_next=float(rng.uniform(0.5, 2.0)),
            f_gt_xt=float(rng.normal()),
            f_gt_xnext=float(rng.normal()),
            f_gt_yt=float(rng.normal()),
            f_full=float(rng.normal()),
            elapsed_s=float(rng.uniform(0.0, 1.0)),
            component=t,
            x_next=np.full(2, float(t)),
        )
    return trace


def test_csv_columns_pinned():
    assert CSV_COLUMNS == (
        "t", "i_t", "L_next", "f_gt_xt", "f_gt_xnext", "f_gt_yt",
        "f_full", "elapsed_s",
    )


def test_round_trip_preserves_everything(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = parse_trace_csv(path)
    assert back.algorithm == trace.algorithm
    assert back.eps == trace.eps
    assert back.T == trace.T
    assert back.L0 == trace.L0
    assert back.seed == trace.seed
    assert back.order_kind == trace.order_kind
    assert back.problem_meta == trace.problem_meta
    assert back.extra_meta == trace.extra_meta
    np.testing.assert_array_equal(back.x0, trace.x0)
    assert back.t.tobytes() == trace.t.tobytes()
    assert back.i_t.tobytes() == trace.i_t.tobytes()
    for col in CSV_COLUMNS[2:]:
        assert getattr(back, col).tobytes() == getattr(trace, col).tobytes(), col


def test_floats_round_trip_exactly(tmp_path):
    """repr-formatted floats parse back bit-for-bit."""
    trace = _sample_trace()
    trace.L_next[0] = 1.0 / 3.0
    trace.f_full[1] = 1e-17
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = parse_trace_csv(path)
    assert back.L_next[0] == trace.L_next[0]
    assert back.f_full[1] == trace.f_full[1]


def test_header_line_matches_columns(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(_sample_trace(), path)
    lines = path.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == ",".join(CSV_COLUMNS)


def test_parse_rejects_malformed_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# schema=1\n# algorithm\n" + ",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_trace_csv(path)


def test_parse_rejects_non_json_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# schema=1\n# algorithm=oupgm\n' + ",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="not JSON"):
        parse_trace_csv(path)


def test_parse_rejects_unexpected_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# schema=1\n# algorithm="oupgm"\nt,i_t\n')
    with pytest.raises(ValueError, match="column header"):
        parse_trace_csv(path)


def test_parse_rejects_short_row_with_line_number(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    lines[-1] = "1,2,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="expected 8 fields"):
        parse_trace_csv(path)


def test_parse_rejects_non_numeric_field(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_text().splitlines()
    parts = text[-1].split(",")
    parts[3] = "not-a-number"
    text[-1] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_trace_csv(path)


def _edited_trace(tmp_path, edit):
    """A written sample trace with edit applied to its list of lines."""
    path = tmp_path / "trace.csv"
    write_trace_csv(_sample_trace(), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path, lines


def test_parse_errors_name_the_file_line(tmp_path):
    # the schema line, 9 metadata lines and the header, so the three rows
    # are lines 12-14
    path, lines = _edited_trace(tmp_path, lambda lines: lines.__setitem__(-1, "1,2,3"))
    assert len(lines) == 14
    with pytest.raises(ValueError, match=r"^line 14: expected 8 fields, got 3$"):
        parse_trace_csv(path)

    def bad_field(lines):
        parts = lines[12].split(",")
        parts[1] = "x"
        lines[12] = ",".join(parts)

    path, _ = _edited_trace(tmp_path, bad_field)
    with pytest.raises(ValueError, match=r"^line 13: non-numeric field$"):
        parse_trace_csv(path)


# lines that are not rows: blank, a metadata line of one field and one of
# eight, as wide as a row
NOT_ROWS = pytest.mark.parametrize("line, message", [
    ("", "expected 8 fields, got 1"),
    ('# late="yes"', "expected 8 fields, got 1"),
    ("# x0=[1,2,3,4,5,6,7,8]", "non-numeric field"),
], ids=["blank", "metadata", "metadata-of-eight-fields"])


@NOT_ROWS
@pytest.mark.parametrize("k", [11, 12, 14], ids=["first", "middle", "last"])
def test_parse_refuses_a_line_among_the_rows_that_is_not_a_row(k, line, message, tmp_path):
    path, _ = _edited_trace(tmp_path, lambda lines: lines.insert(k, line))
    with pytest.raises(ValueError, match=rf"^line {k + 1}: {message}$"):
        parse_trace_csv(path)


GOLDEN = sorted((Path(__file__).parent / "data").glob("*/trace.csv"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.parent.name for p in GOLDEN])
def test_golden_traces_parse_and_write_back_byte_for_byte(path, tmp_path):
    """The committed golden traces, elapsed_s included, come back unchanged
    from the parser and the writer."""
    out = tmp_path / "trace.csv"
    write_trace_csv(parse_trace_csv(path), out)
    assert out.read_bytes() == path.read_bytes()


def test_golden_traces_cover_every_algorithm():
    names = {p.parent.name for p in GOLDEN}
    assert names == {"oupgm", "oudgm", "oupgm-fixed", "oudgm-fixed", "oudgm-steiner",
                     "sug", "batch"}


def test_parse_requires_core_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# schema=1\n# algorithm="oupgm"\n' + ",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="metadata key 'eps' missing"):
        parse_trace_csv(path)


@pytest.mark.parametrize("key", ["L0", "seed", "order", "problem", "x0", "extra"])
def test_parse_requires_every_header_key_the_writer_writes(key, tmp_path):
    path, _ = _edited_trace(tmp_path, lambda lines: lines.remove(
        next(line for line in lines if line.startswith(f"# {key}="))))
    message = rf"^{re.escape(str(path))}: metadata key '{key}' missing$"
    with pytest.raises(ValueError, match=message):
        parse_trace_csv(path)


def _set_header(key, text):
    """An edit of a trace's lines that sets header key's value to text."""
    def edit(lines):
        k = next(k for k, line in enumerate(lines) if line.startswith(f"# {key}="))
        lines[k] = f"# {key}={text}"
    return edit


@pytest.mark.parametrize("key, text, kind", [
    ("eps", "null", "a JSON number"), ("eps", "true", "a JSON number"),
    ("eps", '"0.1"', "a JSON number"), ("T", "null", "a JSON integer"),
    ("T", "1.5", "a JSON integer"), ("T", "false", "a JSON integer"),
    ("L0", "[1.0]", "a JSON number"), ("seed", "2.0", "a JSON integer"),
    # numbers JSON reads but float() cannot hold
    ("eps", "1" + "0" * 400, "a finite number"), ("eps", "Infinity", "a finite number"),
    ("L0", "-1e400", "a finite number"), ("L0", "NaN", "a finite number"),
    # RunConfig refuses these at run time
    ("eps", "-1", "a positive number"), ("eps", "0", "a positive number"),
    ("eps", "-0.0", "a positive number"), ("L0", "-3", "a positive number"),
    ("x0", "{}", "a JSON list of finite numbers"),
    ("x0", '[0.0, "1"]', "a JSON list of finite numbers"),
    ("x0", "[0.0, 1e400]", "a JSON list of finite numbers"),
])
def test_parse_refuses_a_header_scalar_of_the_wrong_type(key, text, kind, tmp_path):
    path, _ = _edited_trace(tmp_path, _set_header(key, text))
    shown = json.dumps(json.loads(text))  # 1e400 reads, and so shows, as Infinity
    message = rf"^{re.escape(str(path))}: metadata '{key}' is not {kind}: {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        parse_trace_csv(path)


def test_parse_reads_an_integer_eps_and_null_L0_and_seed(tmp_path):
    def edit(lines):
        for key, text in (("eps", "1"), ("L0", "null"), ("seed", "null")):
            _set_header(key, text)(lines)

    path, _ = _edited_trace(tmp_path, edit)
    trace = parse_trace_csv(path)
    assert (trace.eps, trace.L0, trace.seed) == (1.0, None, None)
    assert type(trace.eps) is float


@pytest.mark.parametrize("edit, found", [
    (lambda lines: lines.pop(0), "no schema line"),
    (lambda lines: lines.__setitem__(0, "# schema=2"), "schema=2"),
    (lambda lines: lines.__setitem__(0, '# schema="1"'), 'schema="1"'),
], ids=["none", "2", "text"])
def test_parse_refuses_a_trace_of_no_or_another_schema(edit, found, tmp_path):
    path, _ = _edited_trace(tmp_path, edit)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: trace has {found}; "
                                         r"this version reads schema=1$"):
        parse_trace_csv(path)


def test_write_refuses_non_finite_values(tmp_path):
    trace = _sample_trace()
    trace.f_gt_yt[2] = float("nan")
    with pytest.raises(ValueError, match="f_gt_yt"):
        write_trace_csv(trace, tmp_path / "trace.csv")


def _text_columns(path):
    """The data fields of a written trace, column by column, as text."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]
    assert tuple(rows[0]) == CSV_COLUMNS
    return dict(zip(CSV_COLUMNS, zip(*rows[1:])))


def _assert_written_per_value(trace, path):
    """Every float column holds the repr of each of its values, as a float."""
    columns = _text_columns(path)
    for name in CSV_COLUMNS[2:]:
        assert columns[name] == tuple(repr(float(v)) for v in getattr(trace, name)), name


def _trace_of_rows(n):
    """The sample trace with its three rows repeated to n rows."""
    trace = _sample_trace()
    columns = {name: getattr(trace, name)[np.arange(n) % 3] for name in CSV_COLUMNS}
    columns["t"] = np.arange(n)
    return dataclasses.replace(trace, **columns)


_RESULTS = [1.5, -2.25, 1e-300, np.float64(0.1), 7]


@pytest.mark.parametrize("f_gt_xnext, f_gt_yt", [
    (_RESULTS, _RESULTS),
    (_RESULTS, [float(v) for v in _RESULTS]),
    ([1.5, 0.0, -0.0, 0.0, 2.0], [1.5, -0.0, 0.0, 0.0, 2.0]),
], ids=["same-objects", "equal-values", "signed-zeros"])
def test_equal_result_columns_are_written_per_value(f_gt_xnext, f_gt_yt, tmp_path):
    """f_gt_yt equal to f_gt_xnext, even but for 0.0 against -0.0, writes
    the text of each value in both columns."""
    assert f_gt_yt == f_gt_xnext
    trace = _trace_of_rows(5)
    trace.f_gt_xnext = np.array(f_gt_xnext, dtype=float)
    trace.f_gt_yt = (trace.f_gt_xnext if f_gt_yt is f_gt_xnext
                     else np.array(f_gt_yt, dtype=float))
    write_trace_csv(trace, tmp_path / "trace.csv")
    _assert_written_per_value(trace, tmp_path / "trace.csv")


@pytest.mark.parametrize("L_next", [
    [2.0, 2.0, 0.5, 2, np.float64(0.5), 1e300, np.float64(2.0), 0.5, 3.75],
    [2.0, 2.0, 0.5, 0.0, -0.0, 2, np.float64(0.5), -0.0, 0.0, 1e300, 2.0],
], ids=["nonzero", "signed-zeros"])
def test_repeated_step_sizes_are_written_per_value(L_next, tmp_path):
    """An L_next column of repeated and distinct values, some ints and numpy
    floats, with or without zeros of either sign, comes out as the text of
    each value."""
    trace = _trace_of_rows(len(L_next))
    trace.L_next = np.array(L_next, dtype=float)
    write_trace_csv(trace, tmp_path / "trace.csv")
    _assert_written_per_value(trace, tmp_path / "trace.csv")


def test_n_rows_tracks_appends():
    trace = _sample_trace()
    assert trace.n_rows == 3
    assert len(trace.t) == len(trace.elapsed_s) == 3


def test_parse_rejects_non_finite_fields_naming_line_and_column(tmp_path):
    """The parser refuses what the writer refuses: a NaN or infinite field."""
    for row, column, text in [(0, "f_full", "nan"), (2, "L_next", "inf"),
                              (1, "elapsed_s", "-inf")]:

        def non_finite(lines):
            parts = lines[11 + row].split(",")
            parts[CSV_COLUMNS.index(column)] = text
            lines[11 + row] = ",".join(parts)

        path, _ = _edited_trace(tmp_path, non_finite)
        with pytest.raises(ValueError,
                           match=rf"^line {12 + row}: non-finite value in column {column}$"):
            parse_trace_csv(path)


# ---------------------------------------------------------------------------
# traces of several blocks: the writer and the parser take block_rows() rows
# at a time


def _long_trace(n, shared=True):
    """The sample trace's metadata over n rows of random values: L_next
    drawn from three values plus a fourth in the last row, and f_gt_yt
    equal to f_gt_xnext when shared."""
    rng = np.random.default_rng(n)
    L_next = rng.choice([0.5, 2.0, 1.0 / 3.0], size=n)
    L_next[-1] = 7.25
    f_gt_xnext = rng.normal(size=n)
    return dataclasses.replace(
        _sample_trace(), t=np.arange(n), i_t=rng.integers(0, 3, size=n), L_next=L_next,
        f_gt_xt=rng.normal(size=n), f_gt_xnext=f_gt_xnext,
        f_gt_yt=f_gt_xnext.copy() if shared else rng.normal(size=n),
        f_full=rng.normal(size=n), elapsed_s=rng.uniform(size=n))


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
@pytest.mark.parametrize("extra", [-1, 0, 1, None], ids=["B-1", "B", "B+1", "2B+1"])
def test_traces_across_block_boundaries_round_trip(extra, shared, tmp_path):
    B = block_rows()
    n = 2 * B + 1 if extra is None else B + extra
    trace = _long_trace(n, shared)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace_csv(trace, first)
    _assert_written_per_value(trace, first)
    back = parse_trace_csv(first)
    assert back.n_rows == n
    for col in CSV_COLUMNS:
        assert getattr(back, col).tobytes() == getattr(trace, col).tobytes(), col
    write_trace_csv(back, second)
    assert second.read_bytes() == first.read_bytes()


def _long_lines(tmp_path, edit):
    """A written trace of 2B + 1 rows with edit(lines, k) applied to its list
    of lines, k the index of the line of row B + 5, in the second block."""
    path = tmp_path / "trace.csv"
    write_trace_csv(_long_trace(2 * block_rows() + 1), path)
    lines = path.read_text().splitlines()
    edit(lines, 11 + block_rows() + 5)
    path.write_text("\n".join(lines) + "\n")
    return path


def _set_field(j, text):
    def edit(lines, k):
        parts = lines[k].split(",")
        parts[j] = text
        lines[k] = ",".join(parts)
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda lines, k: lines.__setitem__(k, "1,2,3"), "expected 8 fields, got 3"),
    (_set_field(1, "x"), "non-numeric field"),
    (_set_field(0, str(2**63)), "non-numeric field"),
    (_set_field(6, "nan"), "non-finite value in column f_full"),
], ids=["short-row", "non-numeric", "beyond-int64", "non-finite"])
def test_parse_errors_in_a_later_block_name_the_file_line(edit, message, tmp_path):
    path = _long_lines(tmp_path, edit)
    with pytest.raises(ValueError, match=rf"^line {11 + block_rows() + 6}: {message}$"):
        parse_trace_csv(path)


@NOT_ROWS
def test_parse_refuses_a_line_that_is_not_a_row_in_a_later_block(line, message, tmp_path):
    path = _long_lines(tmp_path, lambda lines, k: lines.insert(k, line))
    with pytest.raises(ValueError, match=rf"^line {11 + block_rows() + 6}: {message}$"):
        parse_trace_csv(path)


def _write_parse_overhead(n, tmp_path):
    """Bytes tracemalloc saw at its peak while a trace of n rows was written
    and parsed back, beyond the parsed columns."""
    trace = _long_trace(n)
    tracemalloc.start()
    try:
        write_trace_csv(trace, tmp_path / "trace.csv")
        back = parse_trace_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(getattr(back, col).nbytes for col in CSV_COLUMNS)


def test_write_and_parse_hold_one_block_beside_the_columns(tmp_path, monkeypatch):
    """Written and parsed a block at a time, a trace costs its columns plus
    a block of text that does not grow with its rows.  Blocks of 256 rows
    and traces of 10 and 20 such blocks keep tracemalloc, which slows every
    allocation tenfold, to about a second; written and parsed whole, the
    20 blocks took 3 MiB beside the columns, and 10 blocks 1.5 MiB."""
    monkeypatch.setattr(oracles, "BLOCK_BYTES", 2**15)
    assert block_rows() == 256
    _write_parse_overhead(256, tmp_path)  # first-call allocations
    half, full = (_write_parse_overhead(n, tmp_path) for n in (2560, 5120))
    assert full <= 2**20
    assert full - half <= 16 * 2**10


# ---------------------------------------------------------------------------
# the C reader: numpy's loadtxt converts a block, and _read_lines reads again
# one line at a time any block it refuses, warns about or returns short

_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), *[_FINITE] * 6),
                min_size=1, max_size=12))
def test_random_finite_rows_parse_bit_exactly_through_the_c_reader(rows):
    """Rows as the writer formats them, of any finite floats, signed zeros,
    subnormals and the extremes included, and any int64 i_t, come back bit
    for bit from the C reader, which never hands them to _read_lines."""
    lines = [",".join([str(t), str(i_t), *map(repr, floats)]) + "\n"
             for t, (i_t, *floats) in enumerate(rows)]
    columns = [np.empty(len(rows), kind) for kind in (int, int, *[float] * 6)]
    with mock.patch.object(trace_module, "_read_lines",
                           side_effect=AssertionError("the line path read the block")):
        assert trace_module._read_block(lines, 12, columns, 0) == len(rows)
    assert columns[0].tolist() == list(range(len(rows)))
    assert columns[1].tolist() == [row[0] for row in rows]
    for j, column in enumerate(columns[2:], start=1):
        assert column.tobytes() == np.array([row[j] for row in rows]).tobytes()


def _outcome(path):
    """What parsing path gives: its columns as bytes, or its message."""
    try:
        back = parse_trace_csv(path)
    except ValueError as exc:
        return str(exc)
    return [getattr(back, name).tobytes() for name in CSV_COLUMNS]


def _outcomes(path, monkeypatch):
    """(the parse, the parse with every block read by _read_lines)."""
    first = _outcome(path)

    def refuse(*args, **kwargs):
        raise ValueError("the C reader is off")

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        return first, _outcome(path)


def _field_edit(j, text):
    """An edit of the sample trace's lines that sets field j of its second
    row, file line 13, to text."""
    def edit(lines):
        parts = lines[12].split(",")
        parts[j] = text
        lines[12] = ",".join(parts)
    return edit


@pytest.mark.parametrize("edit, message", [
    (_field_edit(0, "3.0"), "line 13: non-numeric field"),
    (_field_edit(0, "1e3"), "line 13: non-numeric field"),
    (_field_edit(0, "+1"), None),
    (_field_edit(0, " 1 "), None),
    (_field_edit(0, "1_0"), None),
    (_field_edit(0, "\uff11"), None),  # full-width 1, a digit to int()
    (_field_edit(1, ""), "line 13: non-numeric field"),
    (_field_edit(1, "\x1c2"), "line 13: non-numeric field"),  # numpy strips \x1c, int() does not
    (_field_edit(2, "nan"), "line 13: non-finite value in column L_next"),
    (_field_edit(2, "1e500"), "line 13: non-finite value in column L_next"),
    (_field_edit(2, "0x10"), "line 13: non-numeric field"),
    (_field_edit(2, "1_0.5"), None),
    (_field_edit(2, "\uff11.5"), None),
    (_field_edit(2, ""), "line 13: non-numeric field"),
    (lambda lines: lines.insert(12, ""), "line 13: expected 8 fields, got 1"),
    # one row read from two lines would fill both
    (lambda lines: lines.__setitem__(slice(12, None), [""]), "line 13: expected 8 fields, got 1"),
    (lambda lines: lines.insert(12, "# x0=[1,2,3,4,5,6,7,8]"), "line 13: non-numeric field"),
], ids=["float-t", "exponent-t", "plus", "spaces", "underscore", "full-width",
        "empty-int", "file-separator", "nan", "overflow", "hex", "underscore-float",
        "full-width-float", "empty-float", "blank-line", "blank-line-after-one-row",
        "hash-line"])
def test_odd_fields_read_as_the_line_path_reads_them(edit, message, tmp_path, monkeypatch):
    """A field or a line the writer never writes gives the same values, or
    the same message, through the C reader as through _read_lines alone."""
    path, _ = _edited_trace(tmp_path, edit)
    first, lines_only = _outcomes(path, monkeypatch)
    assert first == lines_only
    if message is None:
        assert isinstance(first, list)
    else:
        assert first == message


@pytest.mark.parametrize("edit", [
    lambda data: data.replace(b"\n", b"\r\n"),
    lambda data: data.replace(b"\n", b"\r"),
    lambda data: data[:-1],
], ids=["crlf", "cr", "no-final-newline"])
def test_other_line_endings_parse_as_written(edit, tmp_path, monkeypatch):
    """CRLF and CR line ends, and a last line without one, parse to the
    written trace: the columns are sized from a count of both ends."""
    trace = _long_trace(50)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    path.write_bytes(edit(path.read_bytes()))
    first, lines_only = _outcomes(path, monkeypatch)
    assert first == lines_only == [getattr(trace, name).tobytes() for name in CSV_COLUMNS]


def test_a_block_of_blank_lines_is_refused_naming_its_first_line(tmp_path, monkeypatch):
    """The C reader warns that a block of only blank lines holds no data;
    the warning stays inside the parser, and the line path names the line."""
    monkeypatch.setattr(oracles, "BLOCK_BYTES", 2**10)
    B = block_rows()
    path = tmp_path / "trace.csv"
    write_trace_csv(_long_trace(3 * B), path)
    lines = path.read_text().splitlines()
    lines[11 + B:11 + B] = [""] * B
    path.write_text("\n".join(lines) + "\n")
    first, lines_only = _outcomes(path, monkeypatch)
    assert first == lines_only == f"line {12 + B}: expected 8 fields, got 1"


def test_a_reader_that_accepts_with_a_warning_is_not_trusted(tmp_path, monkeypatch):
    """numpy 1.23-1.25 reads 3.0 into an int64 field and only warns.  The
    parser raises the reader's warnings as errors itself, whatever filter
    is in force, so the line path reads such a block and refuses it."""
    path, _ = _edited_trace(tmp_path, _field_edit(0, "3.0"))

    def lenient(lines, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.zeros(len(lines), dtype)

    monkeypatch.setattr(np, "loadtxt", lenient)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=r"^line 13: non-numeric field$"):
            parse_trace_csv(path)
