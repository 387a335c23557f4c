"""Run traces: per-round scalars plus enough metadata to replay checks.

The CSV serialization carries `# key=json-value` header lines followed by
the fixed column schema

    t,i_t,L_next,f_gt_xt,f_gt_xnext,f_gt_yt,f_full,elapsed_s

Floats are written with shortest round-trip formatting, so writing and
re-parsing a trace reproduces it exactly.

f_full is the full objective f(x_t) at the iterate round t starts from.
The solvers compute it after the rounds, in one blocked batch pass over
the stored iterates (RunTrace.fill_f_full), so elapsed_s is solver-only
wall time: it excludes that diagnostic.

In-memory traces additionally record the visited component index, the
post-round iterate, and (dual method only) the model minimum, which the
prefix-bound checks need; those extras are not part of the CSV schema.
"""

import json
from dataclasses import dataclass, field

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
    phi_star: list = field(default_factory=list)

    @classmethod
    def start(cls, algorithm, eps, T, x0, L0=None, trace_meta=None) -> "RunTrace":
        """An empty trace; trace_meta may carry the "problem" descriptor, the
        "seed", the "order" kind and "extra" metadata."""
        meta = trace_meta or {}
        return cls(
            algorithm=algorithm,
            eps=eps,
            T=T,
            x0=np.asarray(x0, dtype=float).copy(),
            L0=L0,
            seed=meta.get("seed"),
            order_kind=meta.get("order"),
            problem_meta=meta.get("problem", {}),
            extra_meta=dict(meta.get("extra", {})),
        )

    def add_row(
        self,
        t: int,
        i_t: int,
        L_next: float,
        f_gt_xt: float,
        f_gt_xnext: float,
        f_gt_yt: float,
        f_full: float,
        elapsed_s: float,
        component: int | None = None,
        x_next: np.ndarray | None = None,
        phi_star: float | None = None,
    ) -> None:
        self.t.append(int(t))
        self.i_t.append(int(i_t))
        self.L_next.append(float(L_next))
        self.f_gt_xt.append(float(f_gt_xt))
        self.f_gt_xnext.append(float(f_gt_xnext))
        self.f_gt_yt.append(float(f_gt_yt))
        self.f_full.append(float(f_full))
        self.elapsed_s.append(float(elapsed_s))
        if component is not None:
            self.component.append(int(component))
        if x_next is not None:
            self.x_next.append(np.asarray(x_next, dtype=float).copy())
        if phi_star is not None:
            self.phi_star.append(float(phi_star))

    @property
    def n_rows(self) -> int:
        return len(self.t)

    def fill_f_full(self, values) -> None:
        """Set f_full[t] = f(x_t) for every row, x_0 = x0, x_t = x_next[t-1].

        values maps a (k, p) stack of points to their k objective values
        (CompositeProblem.values); the iterates are stacked a block at a
        time, so no temporary outgrows BLOCK_BYTES.
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


def _fmt(value: float) -> str:
    return repr(float(value))


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
    lines = []
    for key, value in meta.items():
        lines.append(f"# {key}={json.dumps(value, sort_keys=True)}")
    lines.append(",".join(CSV_COLUMNS))
    for k in range(trace.n_rows):
        row = (
            str(trace.t[k]),
            str(trace.i_t[k]),
            _fmt(trace.L_next[k]),
            _fmt(trace.f_gt_xt[k]),
            _fmt(trace.f_gt_xnext[k]),
            _fmt(trace.f_gt_yt[k]),
            _fmt(trace.f_full[k]),
            _fmt(trace.elapsed_s[k]),
        )
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_trace_csv(path) -> RunTrace:
    """Parse a trace CSV written by write_trace_csv.

    Raises ValueError naming the offending line for schema violations.
    """
    meta: dict = {}
    rows: list[list[str]] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, sep, value = body.partition("=")
                if not sep:
                    raise ValueError(f"line {lineno}: malformed metadata line {line!r}")
                try:
                    meta[key.strip()] = json.loads(value)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"line {lineno}: metadata value for {key.strip()!r} is not JSON"
                    ) from exc
                continue
            if not header_seen:
                if tuple(line.split(",")) != CSV_COLUMNS:
                    raise ValueError(
                        f"line {lineno}: unexpected column header {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(
                    f"line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(parts)}"
                )
            rows.append(parts)
    if not header_seen:
        raise ValueError(f"{path}: no column header found")
    required = ("algorithm", "eps", "T", "x0")
    for key in required:
        if key not in meta:
            raise ValueError(f"{path}: metadata key {key!r} missing")
    trace = RunTrace(
        algorithm=meta["algorithm"],
        eps=float(meta["eps"]),
        T=int(meta["T"]),
        x0=np.asarray(meta["x0"], dtype=float),
        L0=None if meta.get("L0") is None else float(meta["L0"]),
        seed=None if meta.get("seed") is None else int(meta["seed"]),
        order_kind=meta.get("order"),
        problem_meta=meta.get("problem") or {},
        extra_meta=meta.get("extra") or {},
    )
    for lineidx, parts in enumerate(rows):
        try:
            trace.t.append(int(parts[0]))
            trace.i_t.append(int(parts[1]))
            for name, text in zip(CSV_COLUMNS[2:], parts[2:]):
                getattr(trace, name).append(float(text))
        except ValueError as exc:
            raise ValueError(f"data row {lineidx + 1}: non-numeric field") from exc
    return trace
