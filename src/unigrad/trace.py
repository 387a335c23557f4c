"""Run traces: per-round scalars plus enough metadata to replay checks.

The CSV serialization carries `# key=json-value` header lines followed by
the fixed column schema

    t,i_t,L_next,f_gt_xt,f_gt_xnext,f_gt_yt,f_full,elapsed_s

Floats are written with shortest round-trip formatting, so writing and
re-parsing a trace reproduces it exactly.  Both directions work by column:
the writer formats each column lazily, with one map, and joins the rows
with another.  A repeated value is formatted once: L_next through a memo,
and f_gt_yt, when it equals f_gt_xnext, through f_gt_xnext's text.  The
parser splits every data line in one pass and converts each column with
one map, falling back to a line-by-line pass only to name the offending
line of a malformed file.

f_full is the full objective f(x_t) at the iterate round t starts from.
The solvers compute it after the rounds, in one blocked batch pass over
the stored iterates (RunTrace.fill_f_full), so elapsed_s is solver-only
wall time: it excludes that diagnostic.

In-memory traces additionally record the visited component index and the
post-round iterate, which the prefix-bound checks need; those extras are
not part of the CSV schema.
"""

import json
from dataclasses import dataclass, field
from itertools import repeat, tee
from operator import itemgetter

import numpy as np

from .oracles import block_len

CSV_COLUMNS = ("t", "i_t", "L_next", "f_gt_xt", "f_gt_xnext", "f_gt_yt", "f_full", "elapsed_s")


@dataclass
class RunTrace:
    algorithm: str
    eps: float
    T: int
    x0: np.ndarray
    L0: float | None = None
    seed: int | None = None
    order_kind: str | None = None
    problem_meta: dict = field(default_factory=dict)
    extra_meta: dict = field(default_factory=dict)

    t: list = field(default_factory=list)
    i_t: list = field(default_factory=list)
    L_next: list = field(default_factory=list)
    f_gt_xt: list = field(default_factory=list)
    f_gt_xnext: list = field(default_factory=list)
    f_gt_yt: list = field(default_factory=list)
    f_full: list = field(default_factory=list)
    elapsed_s: list = field(default_factory=list)

    # in-memory extras (absent after CSV parsing)
    component: list = field(default_factory=list)
    x_next: list = field(default_factory=list)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).copy()

    def add_row(self, t: int, i_t: int, L_next: float, f_gt_xt: float, f_gt_xnext: float,
                f_gt_yt: float, f_full: float, elapsed_s: float, component: int | None = None,
                x_next: np.ndarray | None = None) -> None:
        """Append one row as given, unconverted; x_next is stored, not copied,
        so the caller must not change it afterwards."""
        self.t.append(t)
        self.i_t.append(i_t)
        self.L_next.append(L_next)
        self.f_gt_xt.append(f_gt_xt)
        self.f_gt_xnext.append(f_gt_xnext)
        self.f_gt_yt.append(f_gt_yt)
        self.f_full.append(f_full)
        self.elapsed_s.append(elapsed_s)
        if component is not None:
            self.component.append(component)
        if x_next is not None:
            self.x_next.append(x_next)

    @property
    def n_rows(self) -> int:
        return len(self.t)

    def fill_f_full(self, values) -> None:
        """Set f_full[t] = f(x_t) for every row, x_0 = x0, x_t = x_next[t-1].

        values maps a (k, p) stack of points to their k objective values
        (CompositeProblem.values); the iterates are stacked a block at a
        time, each block within BLOCK_BYTES.  Lasso with 2p < n evaluates a
        block around its last point from the cached Gram matrix A'A, p^2 per
        point rather than np.
        """
        points = [self.x0, *self.x_next][: self.n_rows]
        if len(points) != self.n_rows:
            raise ValueError("trace lacks the stored iterates f_full needs")
        # at most 256 iterates a block: wide enough for efficient matrix
        # products, small enough to leave the budget to values' temporaries
        step = min(256, block_len(8 * len(self.x0)))
        f_full = []
        for s in range(0, len(points), step):
            f_full.extend(values(np.stack(points[s:s + step])).tolist())
        self.f_full = f_full

    def check_finite(self) -> None:
        """Raise if any recorded scalar is NaN or infinite."""
        for name in ("L_next", "f_gt_xt", "f_gt_xnext", "f_gt_yt", "f_full", "elapsed_s"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.size and not np.isfinite(vals).all():
                raise ValueError(f"trace column {name} contains non-finite values")


def write_trace_csv(trace: RunTrace, path) -> None:
    """Serialize the trace with metadata header lines; deterministic output."""
    trace.check_finite()
    meta = {
        "algorithm": trace.algorithm,
        "eps": trace.eps,
        "T": trace.T,
        "L0": trace.L0,
        "seed": trace.seed,
        "order": trace.order_kind,
        "problem": trace.problem_meta,
        "x0": [float(v) for v in np.asarray(trace.x0, dtype=float)],
        "extra": trace.extra_meta,
    }
    lines = [f"# {key}={json.dumps(value, sort_keys=True)}" for key, value in meta.items()]
    lines.append(",".join(CSV_COLUMNS))
    floats = {name: map(repr, map(float, getattr(trace, name))) for name in CSV_COLUMNS[2:]}
    if all(trace.L_next):  # a value formatted once, 0.0 and -0.0 being one key
        floats["L_next"] = map({v: repr(float(v)) for v in set(trace.L_next)}.__getitem__,
                               trace.L_next)
    if trace.f_gt_yt == trace.f_gt_xnext and all(trace.f_gt_xnext):
        # equal floats have equal text, unless they are 0.0 and -0.0
        floats["f_gt_xnext"], floats["f_gt_yt"] = tee(floats["f_gt_xnext"])
    columns = (map(str, trace.t), map(str, trace.i_t), *floats.values())
    lines.extend(map(",".join, zip(*columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_metadata(meta: dict, line: str, lineno: int) -> None:
    key, sep, value = line[1:].strip().partition("=")
    if not sep:
        raise ValueError(f"line {lineno}: malformed metadata line {line!r}")
    try:
        meta[key.strip()] = json.loads(value)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"line {lineno}: metadata value for {key.strip()!r} is not JSON"
        ) from exc


_KINDS = (int, int) + (float,) * (len(CSV_COLUMNS) - 2)


def _columns(rows: list, lineno: int, meta: dict) -> list:
    """The column lists of the split data lines rows, rows[0] being file
    line lineno, each converted by one map.  Only when that fails are the
    lines read one at a time: blank lines are skipped and '#' lines read
    into meta, as the format allows among the rows, and a line of the wrong
    width or with a non-numeric field raises ValueError naming its file
    line."""
    if set(map(len, rows)) <= {len(_KINDS)}:
        try:
            return [list(map(kind, map(itemgetter(j), rows))) for j, kind in enumerate(_KINDS)]
        except ValueError:
            pass
    kept = []
    for lineno, parts in enumerate(rows, start=lineno):
        line = ",".join(parts).strip()
        if line.startswith("#"):
            _read_metadata(meta, line, lineno)
        elif line:
            parts = line.split(",")
            if len(parts) != len(_KINDS):
                raise ValueError(f"line {lineno}: expected {len(_KINDS)} fields, got {len(parts)}")
            try:
                kept.append([kind(text) for kind, text in zip(_KINDS, parts)])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-numeric field") from exc
    return [list(column) for column in zip(*kept)]


def parse_trace_csv(path) -> RunTrace:
    """Parse a trace CSV written by write_trace_csv.

    Raises ValueError naming the offending line for schema violations.
    """
    meta: dict = {}
    rows = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                _read_metadata(meta, line, lineno)
            elif line:
                if tuple(line.split(",")) != CSV_COLUMNS:
                    raise ValueError(f"line {lineno}: unexpected column header {line!r}")
                # each data line split once; int and float skip the trailing newline
                rows = list(map(str.split, fh, repeat(",")))
                break
    if rows is None:
        raise ValueError(f"{path}: no column header found")
    columns = _columns(rows, lineno + 1, meta)
    required = ("algorithm", "eps", "T", "x0")
    for key in required:
        if key not in meta:
            raise ValueError(f"{path}: metadata key {key!r} missing")
    return RunTrace(
        algorithm=meta["algorithm"],
        eps=float(meta["eps"]),
        T=int(meta["T"]),
        x0=meta["x0"],
        L0=None if meta.get("L0") is None else float(meta["L0"]),
        seed=None if meta.get("seed") is None else int(meta["seed"]),
        order_kind=meta.get("order"),
        problem_meta=meta.get("problem") or {},
        extra_meta=meta.get("extra") or {},
        **dict(zip(CSV_COLUMNS, columns)),
    )
