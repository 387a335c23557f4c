"""Run traces: per-round scalars plus enough metadata to replay checks.

The CSV serialization is one schema: `# key=json-value` header lines, the
first `# schema=1`, then the fixed column header

    t,i_t,L_next,f_gt_xt,f_gt_xnext,f_gt_yt,f_full,elapsed_s

and one line a row.  The parser refuses another schema or none, a missing
header key, an algorithm other than oupgm, oudgm, sug and batch, a
header value of another JSON type (a problem or extra that is not an
object, an x0 that is not a list of finite numbers), an eps or L0 that is
not positive and finite, and a line among the rows that is not a row,
naming it.
Floats are written with shortest round-trip formatting, so writing and
re-parsing a trace reproduces it exactly; every float field is finite.
In memory each column is one numpy array (int64 for t and i_t, float64
otherwise) sized to the rows the run writes, which add_row fills in place.
Files are written and parsed a block of rows at a time, so neither holds
more than a block of text beside the arrays.  The writer formats a block
by column, one map a column, and a repeated value once: L_next through a
memo, and f_gt_yt, when it equals f_gt_xnext, through f_gt_xnext's text.
The parser sizes the columns by counting the file's newlines in C, and
converts each block with one call of numpy's C text reader (np.loadtxt).
A block the reader refuses, warns about or returns short, or with a
character the writer never writes, is read again line by line with int()
and float(), which give the same values and name the offending line.

f_full is the full objective f(x_t) at the iterate round t starts from.
The solvers compute it after the rounds, in one batched call over the
stored iterates (RunTrace.fill_f_full), so elapsed_s is solver-only wall
time: it excludes that diagnostic.  elapsed_s is a whole number of
nanoseconds of time.perf_counter_ns, in seconds.

In-memory traces additionally record the visited component index, which
the regret ledger reads in place of regenerating the order, and the
post-round iterate, row t + 1 of a (rows + 1, p) array led by x0, which
the f_full pass reads; those extras are not part of the CSV schema.
"""

import json
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, tee

import numpy as np

from .oracles import block_len

SCHEMA = 1
ALGORITHMS = ("oupgm", "oudgm", "sug", "batch")
CSV_COLUMNS = ("t", "i_t", "L_next", "f_gt_xt", "f_gt_xnext", "f_gt_yt", "f_full", "elapsed_s")
_KINDS = (int, int) + (float,) * (len(CSV_COLUMNS) - 2)  # also the column dtypes
# a block of rows as numpy's C reader converts it, and every character the
# writer puts in a row
_ROW_DTYPE = np.dtype([(name, "i8" if kind is int else "f8")
                       for name, kind in zip(CSV_COLUMNS, _KINDS)])
_ROW_CHARS = b"0123456789.e+-,\n"


# JSON type -> its name in messages
JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
              list: "list of finite numbers", dict: "object"}
# header key after algorithm -> its JSON type; L0, seed and order may be null
_HEADER_TYPES = {"eps": float, "T": int, "L0": float, "seed": int, "order": str,
                 "problem": dict, "x0": list, "extra": dict}


def of_json_type(value, json_type) -> bool:
    """Whether a JSON value is of json_type, a key of JSON_NAMES: for int a
    JSON integer, for float any JSON number, neither a bool; for list a
    list of finite numbers; else an instance of it."""
    if json_type is list:
        return isinstance(value, list) and all(
            of_json_type(v, float) and abs(v) <= sys.float_info.max for v in value)
    if isinstance(value, bool):
        return json_type is bool
    return isinstance(value, (int, float) if json_type is float else json_type)


def block_rows() -> int:
    """Rows of a trace or bound curve written or parsed at a time: a block
    of trace text, about 16 characters a field, fills one BLOCK_BYTES."""
    return block_len(16 * len(CSV_COLUMNS))


@dataclass
class RunTrace:
    """Made without columns, a trace has `rows` rows (T + 1 unless given)
    for add_row to fill, n_rows of them so far, and the in-memory extras
    component and x_next; made with them, as the parser does, no extras."""

    algorithm: str
    eps: float
    T: int
    x0: np.ndarray
    L0: float | None = None
    seed: int | None = None
    order_kind: str | None = None
    problem_meta: dict = field(default_factory=dict)
    extra_meta: dict = field(default_factory=dict)
    rows: int | None = None

    t: np.ndarray | None = None
    i_t: np.ndarray | None = None
    L_next: np.ndarray | None = None
    f_gt_xt: np.ndarray | None = None
    f_gt_xnext: np.ndarray | None = None
    f_gt_yt: np.ndarray | None = None
    f_full: np.ndarray | None = None
    elapsed_s: np.ndarray | None = None

    def __post_init__(self):
        if self.t is None:
            self.rows = self.T + 1 if self.rows is None else self.rows
            for name, kind in zip(CSV_COLUMNS, _KINDS):
                setattr(self, name, np.empty(self.rows, kind))
            self.n_rows, extras = 0, self.rows
        else:
            self.rows = self.n_rows = len(self.t)
            extras = 0
        self.component = np.empty(extras, int)
        # x0 and x_next are views of the iterate array x_0 = x0, x_1, ...
        self.iterates = np.empty((extras + 1, *np.shape(self.x0)))
        self.iterates[0] = self.x0
        self.x0, self.x_next = self.iterates[0], self.iterates[1:]

    def add_row(self, t: int, i_t: int, L_next: float, f_gt_xt: float, f_gt_xnext: float,
                f_gt_yt: float, f_full: float, elapsed_s: float, component: int | None = None,
                x_next: np.ndarray | None = None) -> None:
        """Write the next row in place, x_next copied into the iterate array.

        A trace keeps component and x_next for every row or for none: the
        first row without one empties that array.
        """
        k = self.n_rows
        self.t[k] = t
        self.i_t[k] = i_t
        self.L_next[k] = L_next
        self.f_gt_xt[k] = f_gt_xt
        self.f_gt_xnext[k] = f_gt_xnext
        self.f_gt_yt[k] = f_gt_yt
        self.f_full[k] = f_full
        self.elapsed_s[k] = elapsed_s
        if component is not None:
            self.component[k] = component
        elif len(self.component):
            self.component = self.component[:0].copy()
        if x_next is not None:
            self.x_next[k] = x_next
        elif len(self.x_next):
            self.iterates = self.iterates[:1].copy()
            self.x0, self.x_next = self.iterates[0], self.iterates[1:]
        self.n_rows = k + 1

    def fill_f_full(self, values) -> None:
        """Set f_full[t] = f(x_t) for every row, x_0 = x0, x_t = x_next[t-1],
        by one call of values (CompositeProblem.values, which blocks the
        points itself) on a view of the iterate array."""
        n = self.n_rows
        if len(self.x_next) < n - 1:
            raise ValueError("trace lacks the stored iterates f_full needs")
        self.f_full[:n] = values(self.iterates[:n])

    def check_finite(self) -> None:
        """Raise if any recorded scalar is NaN or infinite."""
        for name in CSV_COLUMNS[2:]:
            if not np.isfinite(getattr(self, name)[:self.n_rows]).all():
                raise ValueError(f"trace column {name} contains non-finite values")


def write_trace_csv(trace: RunTrace, path) -> None:
    """Serialize the trace with metadata header lines, a block of rows at a
    time; deterministic output."""
    trace.check_finite()
    meta = {
        "schema": SCHEMA,
        "algorithm": trace.algorithm,
        "eps": trace.eps,
        "T": trace.T,
        "L0": trace.L0,
        "seed": trace.seed,
        "order": trace.order_kind,
        "problem": trace.problem_meta,
        "x0": trace.x0.tolist(),
        "extra": trace.extra_meta,
    }
    n = trace.n_rows
    # a value formatted once, 0.0 and -0.0 being one key
    memo = {} if trace.L_next[:n].all() else None
    # equal floats have equal text, unless they are 0.0 and -0.0
    shared = (trace.f_gt_xnext[:n].all()
              and np.array_equal(trace.f_gt_yt[:n], trace.f_gt_xnext[:n]))
    step = block_rows()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={json.dumps(value, sort_keys=True)}\n"
                      for key, value in meta.items())
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for s in range(0, n, step):
            block = slice(s, min(s + step, n))
            floats = {name: getattr(trace, name)[block].tolist() for name in CSV_COLUMNS[2:]}
            texts = {name: map(repr, values) for name, values in floats.items()}
            if memo is not None:
                memo.update((v, repr(v)) for v in set(floats["L_next"]).difference(memo))
                texts["L_next"] = map(memo.__getitem__, floats["L_next"])
            if shared:
                texts["f_gt_xnext"], texts["f_gt_yt"] = tee(texts["f_gt_xnext"])
            columns = (map(str, trace.t[block].tolist()), map(str, trace.i_t[block].tolist()),
                       *texts.values())
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _read_block(lines: list, lineno: int, columns: list, n: int) -> int:
    """Convert the data lines, lines[0] being file line lineno, into the
    column arrays from row n on; returns the row count after them.

    numpy's C reader converts the block in one call.  On the characters the
    writer writes it accepts a subset of what int() and float() accept, with
    the same values; beyond them it also skips blank lines and strips
    whitespace that int() and float() refuse.  So a block with any other
    character, or that the reader refuses, warns about or returns short, is
    read by _read_lines, whose errors name the file line.  A non-finite
    field raises ValueError naming its line and column."""
    k = len(lines)
    try:
        if "".join(lines).encode("ascii").translate(None, _ROW_CHARS):
            raise ValueError("a character the writer does not write")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 1.26 parses 3.0 as an int with a warning
            block = np.loadtxt(lines, _ROW_DTYPE, comments=None, delimiter=",", ndmin=1)
        if len(block) != k:
            raise ValueError("a blank line")
        for name, column in zip(CSV_COLUMNS, columns):
            column[n:n + k] = block[name]
    except (ValueError, OverflowError, Warning):  # UnicodeEncodeError is a ValueError
        _read_lines(lines, lineno, columns, n)
    for name, column in zip(CSV_COLUMNS[2:], columns[2:]):
        bad = np.flatnonzero(~np.isfinite(column[n:n + k]))
        if bad.size:
            raise ValueError(f"line {lineno + bad[0]}: non-finite value in column {name}")
    return n + k


def _read_lines(lines: list, lineno: int, columns: list, n: int) -> None:
    """Convert the data lines into the column arrays from row n on, one line
    at a time by int() and float(); raise ValueError naming the file line of
    the first of the wrong width (a blank or '#' line among them) or with a
    non-numeric field."""
    for line, text in enumerate(lines, start=lineno):
        parts = text.split(",")  # int and float skip the trailing newline
        if len(parts) != len(_KINDS):
            raise ValueError(f"line {line}: expected {len(_KINDS)} fields, got {len(parts)}")
        try:
            for column, kind, field in zip(columns, _KINDS, parts):
                column[n + line - lineno] = kind(field)
        except (ValueError, OverflowError) as exc:  # int64 overflows too
            raise ValueError(f"line {line}: non-numeric field") from exc


def parse_trace_csv(path) -> RunTrace:
    """Parse a trace CSV written by write_trace_csv, a block of lines at a
    time.

    Raises ValueError naming the schema found if it is not SCHEMA, a missing
    header key, an unknown algorithm, a header value of another JSON type
    (_HEADER_TYPES) or an eps or L0 that is not positive and finite, or the
    offending line of any other violation.
    """
    with open(path, "rb") as fh:
        # sizes the columns: each line ends in \n, \r or both, the last
        # maybe in neither, so this bounds the lines read below
        lines = 1 + sum(chunk.count(b"\n") + (b"\r" in chunk and chunk.count(b"\r"))
                        for chunk in iter(partial(fh.read, block_len(1)), b""))
    meta: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if not sep:
                    raise ValueError(f"line {lineno}: malformed metadata line {line!r}")
                try:
                    meta[key.strip()] = json.loads(value)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"line {lineno}: metadata value for {key.strip()!r} is not JSON"
                    ) from exc
            elif line:
                if tuple(line.split(",")) != CSV_COLUMNS:
                    raise ValueError(f"line {lineno}: unexpected column header {line!r}")
                break
        else:
            raise ValueError(f"{path}: no column header found")
        schema = meta.get("schema")
        if schema != SCHEMA:
            found = f"schema={json.dumps(schema)}" if "schema" in meta else "no schema line"
            raise ValueError(f"{path}: trace has {found}; this version reads schema={SCHEMA}")
        for key in ("algorithm", *_HEADER_TYPES):
            if key not in meta:
                raise ValueError(f"{path}: metadata key {key!r} missing")
        if meta["algorithm"] not in ALGORITHMS:
            raise ValueError(f"{path}: unknown algorithm {json.dumps(meta['algorithm'])}; "
                             f"this version reads {', '.join(ALGORITHMS)}")
        for key, json_type in _HEADER_TYPES.items():
            value = meta[key]
            if value is None and key in ("L0", "seed", "order"):
                continue
            if not of_json_type(value, json_type):
                raise ValueError(f"{path}: metadata {key!r} is not a JSON "
                                 f"{JSON_NAMES[json_type]}: {json.dumps(value)}")
            # JSON reads 1e400 as inf and NaN as nan; float() refuses 10**400
            if json_type is float and not 0 < value <= sys.float_info.max:
                what = "positive" if abs(value) <= sys.float_info.max else "finite"
                raise ValueError(f"{path}: metadata {key!r} is not a {what} number: "
                                 f"{json.dumps(value)}")
        columns = [np.empty(lines - lineno, kind) for kind in _KINDS]
        n, step = 0, block_rows()
        while block := list(islice(fh, step)):
            n = _read_block(block, lineno + 1, columns, n)
            lineno += len(block)
            del block  # before the next block is read
    return RunTrace(
        algorithm=meta["algorithm"],
        eps=float(meta["eps"]),
        T=meta["T"],
        x0=meta["x0"],
        L0=None if meta["L0"] is None else float(meta["L0"]),
        seed=meta["seed"],
        order_kind=meta["order"],
        problem_meta=meta["problem"],
        extra_meta=meta["extra"],
        **{name: column[:n] for name, column in zip(CSV_COLUMNS, columns)},
    )
