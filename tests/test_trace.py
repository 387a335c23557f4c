"""Run-trace recording, CSV serialization, and parsing."""

import numpy as np
import pytest

from unigrad.trace import CSV_COLUMNS, RunTrace, parse_trace_csv, write_trace_csv


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
    assert back.t == trace.t
    assert back.i_t == trace.i_t
    for col in CSV_COLUMNS[2:]:
        assert getattr(back, col) == getattr(trace, col), col


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
    path.write_text("# algorithm\n" + ",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_trace_csv(path)


def test_parse_rejects_non_json_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# algorithm=oupgm\n' + ",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="not JSON"):
        parse_trace_csv(path)


def test_parse_rejects_unexpected_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# algorithm="oupgm"\nt,i_t\n')
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


def test_parse_requires_core_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('# algorithm="oupgm"\n' + ",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="metadata key"):
        parse_trace_csv(path)


def test_write_refuses_non_finite_values(tmp_path):
    trace = _sample_trace()
    trace.f_gt_yt[2] = float("nan")
    with pytest.raises(ValueError, match="f_gt_yt"):
        write_trace_csv(trace, tmp_path / "trace.csv")


def test_n_rows_tracks_appends():
    trace = _sample_trace()
    assert trace.n_rows == 3
    assert len(trace.t) == len(trace.elapsed_s) == 3
