"""Output checks made apart from the program.

Each check reads what a `unigrad run` call wrote (trace.csv, report.json)
and recomputes a claim from the independent reference of refsolve.py and
from inputs regenerated here.  A check raises CheckFailed, or any other
error, when the claim does not hold.  Nothing here imports unigrad.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Relative slack of every inequality, as in the theorem checks it restates.
SLACK = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Trace:
    meta: dict
    cols: dict

    @property
    def rows(self) -> int:
        return len(self.cols["t"])


def read_trace(path) -> Trace:
    """Metadata lines "# key=json", a header, then numeric rows; columns are
    picked by header name."""
    meta, body, header = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = json.loads(value)
            elif header is None:
                header = line.strip().split(",")
            elif line.strip():
                body.append(line)
    _require(header is not None, f"{path}: no column header")
    data = np.loadtxt(body, delimiter=",", ndmin=2) if body else np.zeros((0, len(header)))
    _require(data.shape[1] == len(header), f"{path}: ragged rows")
    return Trace(meta, {name: data[:, j] for j, name in enumerate(header)})


def read_report(out: Path) -> dict:
    with open(out / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def component_order(kind: str, n: int, T: int, seed: int) -> np.ndarray:
    """The visit order a run with this --order and --seed must use."""
    if kind == "sequential":
        return np.arange(T + 1)
    return np.random.default_rng(seed).integers(0, n, size=T + 1)


def gamma(Mv: float, v: float, eps: float) -> float:
    return (1.0 / eps) ** ((1.0 - v) / (1.0 + v)) * Mv ** (2.0 / (1.0 + v))


def _close(a: float, b: float, extra: float = 0.0) -> bool:
    return abs(a - b) <= SLACK * (1.0 + abs(b)) + extra


# ---------------------------------------------------------------------------
# The checks.  run is a workloads.Run, ref the refsolve solution of its problem.


def check_trace(tr: Trace, run, descriptor: dict, ref: dict) -> None:
    """Shape, metadata, finiteness, and f(x0) in the first f_full cell."""
    rows = run.T + 1 if run.algorithm in ("oupgm", "oudgm") else run.T
    if run.algorithm == "batch":
        _require(1 <= tr.rows <= run.T, f"batch trace has {tr.rows} rows")
    else:
        _require(tr.rows == rows, f"trace has {tr.rows} rows, expected {rows}")
    _require(np.array_equal(tr.cols["t"], np.arange(tr.rows)), "t column is not 0..rows-1")
    for name, col in tr.cols.items():
        _require(bool(np.isfinite(col).all()), f"column {name} is not finite")
    _require(tr.meta.get("algorithm") == run.algorithm, "algorithm metadata differs")
    _require(float(tr.meta.get("eps")) == run.eps, "eps metadata differs")
    problem = tr.meta.get("problem") or {}
    for key, value in descriptor.items():
        _require(problem.get(key) == value, f"descriptor field {key} differs")
    _require(_close(float(tr.cols["f_full"][0]), ref["f_x0"]), "f_full[0] is not f(x0)")


def check_f_star(report: dict, ref: dict) -> None:
    """The program's reference value agrees with the certified one."""
    f = float(report["f_star"])
    _require(_close(f, ref["f_star"], ref["cert"]),
             f"f_star {f!r} vs independent {ref['f_star']!r} (cert {ref['cert']:.1e})")


def _r0(tr: Trace, ref: dict) -> float:
    d = np.asarray(tr.meta["x0"], dtype=float) - np.asarray(ref["x_star"])
    return 0.5 * float(d @ d)


def check_online_bound(tr: Trace, run, ref: dict) -> None:
    """Thm1 (oupgm), thm2 (oudgm) or the fixed-step regret corollary, from
    the trace columns, the regenerated visit order and the independent x*."""
    order = component_order(run.order, ref["n"], run.T, run.seed)
    f_star_rows = np.asarray(ref["comp_star"])[order] + ref["h_star"]
    inv_L = 1.0 / tr.cols["L_next"]
    S = float(inv_L.sum())
    r0 = _r0(tr, ref)
    if run.fixed:
        rhs = 0.5 * run.eps * (run.T + 1) + 2.0 * r0 * gamma(ref["Mv"], ref["v"], run.eps)
        played = tr.cols["f_gt_xnext"] if run.algorithm == "oupgm" else tr.cols["f_gt_xt"]
        lhs = float((played - f_star_rows).sum())
    elif run.algorithm == "oupgm":
        rhs = 0.5 * run.eps * S + 2.0 * r0
        lhs = float((inv_L * (tr.cols["f_gt_xnext"] - f_star_rows)).sum())
    else:
        rhs = 0.25 * run.eps * S + r0
        lhs = float((0.5 * inv_L * (tr.cols["f_gt_yt"] - f_star_rows)).sum())
    _require(lhs <= rhs + SLACK * (1.0 + abs(rhs)), f"regret bound: lhs {lhs!r} > rhs {rhs!r}")


def check_modulus_cap(tr: Trace, run, ref: dict) -> None:
    """L_next <= gamma(M_v, v, eps) on every row."""
    cap = gamma(ref["Mv"], ref["v"], run.eps) * (1.0 + 1e-12)
    worst = float(tr.cols["L_next"].max())
    _require(worst <= cap, f"L_next {worst!r} above gamma {cap!r}")


def check_trial_identity(tr: Trace) -> None:
    """sum_t (i_t + 1) == 2 (T + 1) + log2(L_{T+1} / L0), exactly."""
    L0 = float(tr.meta["L0"])
    mantissa, exponent = math.frexp(float(tr.cols["L_next"][-1]) / L0)
    _require(mantissa == 0.5, "L_{T+1} / L0 is not a power of two")
    trials = int(tr.cols["i_t"].sum()) + tr.rows
    expected = 2 * tr.rows + (exponent - 1)
    _require(trials == expected, f"{trials} trials, identity gives {expected}")


def sug_bound(k: np.ndarray, M, mu_h, n, eps, dist0_sq) -> np.ndarray:
    rho = (M / mu_h) / n + 1.0 - 1.0 / n
    geo = (1.0 - rho ** (k - 1)) / (1.0 - rho)
    return M * rho ** (k - 1) * dist0_sq + (3.0 * eps / (4.0 * n * mu_h)) * geo + 0.75 * eps


def check_sug_bound(tr: Trace, report: dict, run, ref: dict) -> None:
    """Every iterate gap f(x^k) - f* and the final one stay under the bound."""
    n, mu_h = ref["n"], ref["mu_h"]
    _require(mu_h > 0 and (run.M / mu_h) / n + 1.0 - 1.0 / n < 1.0, "rho >= 1: bound vacuous")
    f_lo = ref["f_star"] - ref["cert"]
    dist0_sq = 2.0 * _r0(tr, ref)
    k = np.arange(1, tr.rows + 1, dtype=float)
    bound = sug_bound(k, run.M, mu_h, n, run.eps, dist0_sq)
    final = float(report["final_gap"]) + float(report["f_star"])
    gaps = np.append(tr.cols["f_full"][1:], final) - f_lo
    tol = SLACK * (1.0 + np.abs(bound))
    worst = int(np.argmax(gaps - bound - tol))
    _require(bool((gaps <= bound + tol).all()),
             f"gap {gaps[worst]!r} above bound {bound[worst]!r} at k={worst + 1}")
    _require(bool((gaps >= -SLACK * (1.0 + abs(f_lo))).all()), "gap below zero")


def check_batch_gap(tr: Trace, run, ref: dict) -> None:
    """The batch solver's last iterate is within the stated tolerance of f*."""
    gap = float(tr.cols["f_gt_xnext"][-1]) - ref["f_star"]
    _require(abs(gap) <= run.tol * (1.0 + abs(ref["f_star"])) + ref["cert"],
             f"batch final gap {gap!r} above tolerance {run.tol!r}")


def check_verdict(stdout: str) -> None:
    """check-bounds printed a report whose verdict is ok."""
    _require(json.loads(stdout).get("ok") is True, "check-bounds verdict is not ok")


def checks_for(run) -> list:
    """Names of the output checks a run gets, in order."""
    names = ["trace", "f_star", "verdict"]
    if run.algorithm in ("oupgm", "oudgm"):
        names += ["bound", "cap"] + (["trials"] if run.adaptive else [])
    elif run.algorithm == "sug":
        names.append("bound")
    else:
        names.append("gap")
    return names


def run_check(name: str, run, out: Path, descriptor: dict, ref: dict, check_stdout: str,
              tr: Trace) -> None:
    if name == "trace":
        check_trace(tr, run, descriptor, ref)
    elif name == "f_star":
        check_f_star(read_report(out), ref)
    elif name == "verdict":
        check_verdict(check_stdout)
    elif name == "bound" and run.algorithm == "sug":
        check_sug_bound(tr, read_report(out), run, ref)
    elif name == "bound":
        check_online_bound(tr, run, ref)
    elif name == "cap":
        check_modulus_cap(tr, run, ref)
    elif name == "trials":
        check_trial_identity(tr)
    elif name == "gap":
        check_batch_gap(tr, run, ref)
    else:
        raise ValueError(f"unknown check {name!r}")
