"""Experiment harness: reference solutions, regret evaluation, artifacts.

A run produces three artifacts in the output directory:

    trace.csv   per-round scalars plus replay metadata (schema in trace.py)
    report.json the verdict: `checked` names the bound judged, `ok` says
                whether it holds; for oupgm and oudgm also the judged
                bound's two sides and slack at T and its smallest margin
                over the prefixes
    bounds.csv  plotting curve: for oupgm and oudgm "k,lhs,bound", the two
                sides at prefix k of the bound the run is judged by (thm1,
                thm2 or the fixed-step corollary); else "k,gap,bound", the
                objective gap f(x^k) - f* and, for sug, its bound at k

Both `run` and `check-bounds` judge a trace with the one function verify,
which reads only the trace, its metadata and the reference, so a saved
trace re-verifies everything the live run verified.  The solvers record
only what they alone know; after the run, run_experiment stamps the trace
with the problem descriptor, the seed, the order kind (none for batch) and
its own `extra` keys.  The trace's `extra` metadata carries what the bounds
need beyond the columns, and check-bounds refuses a trace that lacks a key
its run writes (EXTRA_KEYS):

    tol       residual tolerance of the reference solve (every run)
    x_star    the reference minimizer, floats written to round-trip (every run)
    reference_gap, reference_iterations, reference_residual
              the reference's certificate, step count and last residual
    fixed_step  oupgm and oudgm: whether the run took fixed steps (solver)
    Mv, v     fixed-step runs: the Holder modulus and degree used (solver)
    data_sha256  lasso-csv: the data file's sha256 at run time
    M         sug: the surrogate modulus (solver)
    dist0_sq  sug: the ||x0 - x*||^2 the run used (--dist0 or the reference's)
    f_final   sug: the objective at the final iterate, the last point judged

Reference minimizers always come from the one batch proximal-gradient
solve, run to a fixed-point residual tolerance, so every reported gap
shares one ground truth.  A lasso with 2p < n steps on its quadratic, A'A
built once and shared with the f_full pass; any other problem on its data.
The solve's point has its f computed from the data, in the pass that
certifies it (problem.certify: gap >= f(x*) - f*), so f* lies in
[f - gap, f].
`--algorithm batch` solves nothing more: its trace is the reference solve's
own steps, stopped at T.  check-bounds solves nothing either: it rebuilds
the reference from the stored x_star, re-certifying it on the rebuilt data,
and solves again, at the stored tol, only when the certificate comes out
non-finite or larger than the stored one; it refuses a lasso-csv file
whose sha256 is not the run's.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .bregman import gamma
from .oracles import CompositeProblem, check_nonnegative
from .problems import (
    LassoInstance,
    lasso_problem,
    load_samples,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from .sug import SugConfig, sug_bounds, sug_iteration_estimate, sug_rho, sug_run
from .trace import ALGORITHMS, RunTrace, block_rows, parse_trace_csv, write_trace_csv
from .udgm import udgm_fixed_step_run, udgm_run
from .upgm import upgm_fixed_step_run, upgm_run

SLACK_SCALE = 1e-9

# Fixed-point residual tolerance of the reference solve unless a run sets its own.
REFERENCE_TOL = 1e-10


class ReferenceSolverError(RuntimeError):
    """Reference solve did not reach the residual tolerance, or the smooth
    average turned NaN or infinite."""


@dataclass(frozen=True)
class ReferenceSolution:
    """The minimizer x and objective f the solve reached after `iterations`
    steps, with its last fixed-point residual and the certificate gap >=
    f - f*.  steps holds one record (doublings, M, f(x_k), f(x_{k+1}),
    elapsed_s) per step, which `--algorithm batch` writes out as its trace
    rows; a reference rebuilt from a trace has none."""

    x: np.ndarray
    f: float
    iterations: int
    residual: float
    gap: float
    steps: list


def reference_solution(
    problem: CompositeProblem,
    tol: float = REFERENCE_TOL,
    max_iters: int = 1_000_000,
) -> ReferenceSolution:
    """Batch proximal gradient with backtracking on the smooth average.

    Iterates from the origin until the fixed-point residual ||x_next - x||
    drops to tol.  Each step doubles its modulus from the previous step's
    (1 before the first) until the descent test holds; the accepted trial's
    smooth value serves the next iterate, so each trial costs one prox and
    one smooth value, and recording a step one h value.  A problem whose
    smooth average is a quadratic (x'Gx - 2c'x + const) / n it offers
    (quadratic_fn: lasso with 2p < n) steps on G: the gradient is
    (2/n)(G x - c) and a trial's smooth value is value + grad'd + d'G d / n
    along the step d, O(p^2) a trial.  Any other problem evaluates its
    smooth average and gradient, O(np) each.  The point it stops at takes
    its smooth value from the data whichever steps led there, in the one
    pass that certifies it (problem.certify).
    Raises ReferenceSolverError if the cap is hit first, or at once when
    the smooth average is NaN or infinite.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    regularizer = problem.regularizer
    start = time.perf_counter_ns()
    x = np.zeros(problem.dimension)
    value = _finite_smooth_value(problem.mean_smooth_value(x), 0)
    quadratic = None if problem.quadratic_fn is None else problem.quadratic_fn()
    n = problem.n_components
    f_x = value + regularizer.value(x)
    M = 1.0
    steps = []
    residual = math.inf
    for it in range(1, max_iters + 1):
        if quadratic is None:
            grad = problem.mean_smooth_grad(x)
        else:
            G, c = quadratic
            grad = (2.0 / n) * (G @ x - c)
        for doublings in range(300):
            x_next = regularizer.prox(x - grad / M, 1.0 / M)
            diff = x_next - x
            linear = value + float(grad.dot(diff))
            quad = linear + 0.5 * M * float(diff.dot(diff))
            value_next = _finite_smooth_value(
                problem.mean_smooth_value(x_next) if quadratic is None
                else linear + float(diff.dot(G @ diff)) / n, it)
            if value_next <= quad + 1e-15 * (1.0 + abs(quad)):
                break
            M *= 2.0
        else:
            raise ReferenceSolverError("backtracking stalled; objective misbehaves")
        # M is never halved between steps: halving lets float cancellation in
        # the descent test drag M below the curvature near the optimum, where
        # the iterates then limit-cycle above any tight tolerance
        residual = float(np.linalg.norm(diff))
        if residual <= tol:
            value_next, gap = problem.certify(x_next)
            value_next = _finite_smooth_value(value_next, it)
        f_next = value_next + regularizer.value(x_next)
        steps.append((doublings, M, f_x, f_next, (time.perf_counter_ns() - start) / 1e9))
        if residual <= tol:
            return ReferenceSolution(
                x=x_next, f=f_next, iterations=it, residual=residual, gap=gap, steps=steps,
            )
        x, value, f_x = x_next, value_next, f_next
    raise ReferenceSolverError(
        f"no convergence to residual {tol:.1e} within {max_iters} iterations "
        f"(last residual {residual:.3e})"
    )


def _finite_smooth_value(value: float, it: int) -> float:
    if not math.isfinite(value):
        kind = "NaN" if math.isnan(value) else "infinite"
        raise ReferenceSolverError(
            f"smooth average is {kind} ({value}) at reference iteration {it}"
        )
    return value


def sample_order(kind: str, n: int, T: int, seed: int | None) -> np.ndarray:
    """Component visit order of length T + 1.

    sequential requires n >= T + 1; cyclic wraps modulo n; random draws
    uniformly with the given seed (required).
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind == "sequential":
        if n < T + 1:
            raise ValueError(
                f"sequential order needs n >= T + 1 (got n={n}, T={T})"
            )
        return np.arange(T + 1)
    if kind == "cyclic":
        return np.arange(T + 1) % n
    if kind == "random":
        if seed is None:
            raise ValueError("random order requires a seed")
        return np.random.default_rng(seed).integers(0, n, size=T + 1)
    raise ValueError(f"unknown order kind: {kind!r}")


def _trace_components(trace: RunTrace, problem: CompositeProblem) -> np.ndarray:
    comps = (trace.component if len(trace.component) == trace.n_rows
             else sample_order(trace.order_kind, problem.n_components, trace.T, trace.seed))
    if comps.size and (comps.min() < 0 or comps.max() >= problem.n_components):
        raise ValueError("trace references components the problem does not have")
    return comps


def _fixed_step_modulus(trace: RunTrace) -> float:
    """gamma(M_v, v, eps) of a fixed-step run, from its trace."""
    extra = trace.extra_meta
    return gamma(float(extra["Mv"]), float(extra["v"]), trace.eps)


# The regret bounds of the online methods, each one inequality at every
# prefix k = 0..T at a comparator x:
#     sum_{t<=k} w_t (F_t - f_{i_t}(x)) <= 0.5 eps sum_{t<=k} w_t + 2 c r0(x)
# bound -> (the trace column of F_t, w_t of L_{t+1}, c of the trace).  thm1
# reads the accepted iterates x_{t+1}; thm2, as the paper states it, the
# accepted descent points y_t, since the dual iterates need not converge
# when v = 0 and the weights stay order one.  The fixed-step corollaries read
# the points the primal method steps to and the dual method plays.
REGRET_BOUNDS = {
    "thm1": ("f_gt_xnext", lambda L: 1.0 / L, lambda trace: 1.0),
    "thm2": ("f_gt_yt", lambda L: 0.5 / L, lambda trace: 0.5),
    "oupgm corollary": ("f_gt_xnext", np.ones_like, _fixed_step_modulus),
    "oudgm corollary": ("f_gt_xt", np.ones_like, _fixed_step_modulus),
}


def evaluate_regret(trace: RunTrace, problem: CompositeProblem, x: np.ndarray,
                    bound: str) -> tuple[float, np.ndarray, np.ndarray]:
    """(r0, lhs, rhs) of a REGRET_BOUNDS bound at the comparator x: r0 =
    dist(x0, x), and lhs[k], rhs[k] the two sides at prefix k = 0..T.

    f_{i_t}(x) comes from one values call over the rows; eps is the trace's.
    """
    if trace.n_rows != trace.T + 1:
        raise ValueError(
            f"trace incomplete: {trace.n_rows} rows for T = {trace.T}"
        )
    column, weight, c = REGRET_BOUNDS[bound]
    x = np.asarray(x, dtype=float)
    f_x_rows = problem.components.values(_trace_components(trace, problem), x)
    f_x_rows += problem.regularizer.value(x)
    w = weight(trace.L_next)
    r0 = problem.geometry.bregman(trace.x0, x)
    lhs = np.cumsum(w * (getattr(trace, column) - f_x_rows))
    rhs = 0.5 * trace.eps * np.cumsum(w) + 2.0 * c(trace) * r0
    return r0, lhs, rhs


# ---------------------------------------------------------------------------
# Problem descriptors (serialized into trace metadata, rebuilt by check-bounds)


def _descriptor_field(desc: dict, key: str, kind, default=None):
    """desc[key] converted by kind, or default when the key is absent and a
    default is given; ValueError naming the field when it is missing or
    kind refuses it."""
    if key not in desc:
        if default is None:
            raise ValueError(f"{desc['kind']} problem descriptor lacks the field {key!r}")
        return default
    try:
        return kind(desc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"problem descriptor field {key!r} is {desc[key]!r}, not of type {kind.__name__}"
        ) from exc


def problem_from_descriptor(desc: dict) -> CompositeProblem:
    """Rebuild a problem from its trace-metadata descriptor; a field its
    kind needs that is missing or of the wrong type raises ValueError
    naming it."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("problem descriptor must be a dict with a 'kind' key")
    kind = desc["kind"]
    if kind == "synth-lasso":
        inst = synth_lasso(
            p=_descriptor_field(desc, "p", int),
            n=_descriptor_field(desc, "n", int),
            sparsity=_descriptor_field(desc, "sparsity", int),
            noise=_descriptor_field(desc, "noise", float),
            seed=_descriptor_field(desc, "seed", int),
            l1_weight=_descriptor_field(desc, "mu", float, 0.0),
            ridge_weight=_descriptor_field(desc, "ridge", float, 0.0),
        )
        return lasso_problem(inst)
    if kind == "lasso-csv":
        l1_weight = _descriptor_field(desc, "mu", float, 0.0)
        ridge_weight = _descriptor_field(desc, "ridge", float, 0.0)
        # before reading a data file of any size
        check_nonnegative("l1_weight (--mu)", l1_weight)
        check_nonnegative("ridge_weight (--ridge)", ridge_weight)
        inst = load_samples(_descriptor_field(desc, "path", str))
        inst = LassoInstance(A=inst.A, b=inst.b, l1_weight=l1_weight,
                             ridge_weight=ridge_weight)
        return lasso_problem(inst)
    if kind == "steiner":
        inst = synth_steiner(p=_descriptor_field(desc, "p", int),
                             m=_descriptor_field(desc, "m", int),
                             seed=_descriptor_field(desc, "seed", int))
        return steiner_problem(inst)
    raise ValueError(f"unknown problem kind: {kind!r}")


# ---------------------------------------------------------------------------
# Experiment runner


@dataclass
class RunConfig:
    """Validated configuration for one experiment run."""

    algorithm: str
    problem: dict
    out: str
    eps: float | str = 1e-2
    T: int = 1000
    L0: float = 1.0
    M: float | None = None
    order: str = "random"
    seed: int = 0
    fixed_step: bool = False
    holder_modulus: float | None = None
    holder_degree: float | None = None
    tol: float = REFERENCE_TOL
    dist0_sq: float | None = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be {'|'.join(ALGORITHMS)}, got {self.algorithm!r}")
        if isinstance(self.eps, str) and self.eps != "auto":
            raise ValueError(f"eps must be a positive float or 'auto', got {self.eps!r}")
        if self.T < 0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.order not in ("sequential", "cyclic", "random"):
            raise ValueError(f"order must be sequential|cyclic|random, got {self.order!r}")
        if self.algorithm == "sug" and self.M is None:
            raise ValueError("M must be a positive float for the sug algorithm")
        for name, value in (
            ("eps", None if isinstance(self.eps, str) else self.eps),
            ("L0", self.L0),
            ("M", self.M),
            ("tol", self.tol),
            ("holder_modulus (--Mv)", self.holder_modulus),
            ("dist0", self.dist0_sq),
        ):
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.holder_degree is not None and not 0 <= self.holder_degree <= 1:
            raise ValueError(
                f"holder_degree (--v) must lie in [0, 1], got {self.holder_degree}"
            )


def resolve_eps(cfg: RunConfig, problem: CompositeProblem) -> float:
    """eps 'auto' means T^(-(1+v)/2) with the stream's Holder degree."""
    if cfg.eps != "auto":
        return float(cfg.eps)
    v = cfg.holder_degree
    if v is None:
        v, _ = problem.holder_constants()
    if cfg.T < 1:
        raise ValueError("eps 'auto' needs T >= 1")
    return float(cfg.T) ** (-(1.0 + v) / 2.0)


# The `extra` keys a run writes and check_bounds requires: those of every run,
# then of an online run, a sug run, a fixed-step run (the solvers write these)
# and a lasso-csv run.
EXTRA_KEYS = {
    "every": ("tol", "x_star", "reference_gap", "reference_iterations", "reference_residual"),
    "oupgm": ("fixed_step",),
    "oudgm": ("fixed_step",),
    "sug": ("M", "dist0_sq", "f_final"),
    "fixed_step": ("Mv", "v"),
    "lasso-csv": ("data_sha256",),
}


def run_experiment(cfg: RunConfig) -> dict:
    """Run one experiment and write trace.csv, report.json, bounds.csv.

    Returns {"trace": ..., "report": ..., "bounds": ...} artifact paths.
    """
    cfg.validate()
    problem = problem_from_descriptor(cfg.problem)
    eps = resolve_eps(cfg, problem)
    x0 = np.zeros(problem.dimension)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    reference = reference_solution(problem, tol=cfg.tol)
    extra = {
        "tol": cfg.tol,
        "x_star": reference.x.tolist(),
        "reference_gap": reference.gap,
        "reference_iterations": reference.iterations,
        "reference_residual": reference.residual,
    }
    if cfg.problem["kind"] == "lasso-csv":
        extra["data_sha256"] = _sha256(cfg.problem["path"])

    if cfg.algorithm in ("oupgm", "oudgm"):
        order = sample_order(cfg.order, problem.n_components, cfg.T, cfg.seed)
        if cfg.fixed_step:
            run = upgm_fixed_step_run if cfg.algorithm == "oupgm" else udgm_fixed_step_run
            _, trace = run(problem, order, x0, eps, cfg.T, cfg.holder_modulus,
                           cfg.holder_degree)
        else:
            run = upgm_run if cfg.algorithm == "oupgm" else udgm_run
            _, trace = run(problem, order, x0, cfg.L0, eps, cfg.T)
    elif cfg.algorithm == "sug":
        dist0_sq = cfg.dist0_sq
        if dist0_sq is None:
            dist0_sq = float(np.sum((reference.x - x0) ** 2))
        extra["dist0_sq"] = dist0_sq
        sug_cfg = SugConfig(
            M=float(cfg.M),  # type: ignore[arg-type]
            eps=eps,
            seed=cfg.seed,
            max_iters=max(cfg.T, 1),
        )
        x_out, trace = sug_run(problem, x0, sug_cfg)
        extra["f_final"] = problem.value(x_out)
    else:  # batch: the reference solve's own steps, stopped at T
        steps = reference.steps[: max(cfg.T, 1)]
        trace = RunTrace("batch", eps, max(cfg.T, 1), x0, rows=len(steps))
        for k, (doublings, M, f_x, f_next, elapsed) in enumerate(steps):
            trace.add_row(k, doublings, M, f_x, f_next, f_next, f_x, elapsed)
    trace.problem_meta = cfg.problem
    trace.seed = cfg.seed
    trace.order_kind = None if cfg.algorithm == "batch" else cfg.order
    trace.extra_meta.update(extra)

    report, curve = verify(trace, problem, reference)
    paths = {
        "trace": out / "trace.csv",
        "report": out / "report.json",
        "bounds": out / "bounds.csv",
    }
    write_trace_csv(trace, paths["trace"])
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_bound_curve(paths["bounds"], curve)
    return {k: str(v) for k, v in paths.items()}


def verify(trace: RunTrace, problem: CompositeProblem, reference: ReferenceSolution):
    """Judge a trace against the bound of its algorithm; (report, curve).

    Reads only the trace, its metadata and the reference, so a live run and
    check-bounds on its saved trace build the same report.  The report ends
    in the verdict: `checked` names the bound judged and `ok` is False only
    when it fails.  An online run is judged by its REGRET_BOUNDS bound at x*
    at every prefix k.  curve holds the bounds.csv header name of the middle
    column and the columns: a range, an array, and an array or None when no
    bound applies.  Online they are (k, lhs, rhs) of the judged bound; else
    (k, gap, bound), the gaps measured from the reference's f, though the
    sug verdict measures them from the certified lower bound f - gap on f*,
    so a reference that stopped short of f* cannot pass a run.
    """
    f_star = reference.f
    extra = trace.extra_meta
    first, name, gaps, bounds = 0, "gap", trace.f_full - f_star, None
    if trace.algorithm in ("oupgm", "oudgm"):
        fixed = bool(extra["fixed_step"])
        bound = (f"{trace.algorithm} corollary" if fixed
                 else {"oupgm": "thm1", "oudgm": "thm2"}[trace.algorithm])
        r0, lhs, rhs = evaluate_regret(trace, problem, reference.x, bound)
        slack = SLACK_SCALE * (1.0 + np.abs(rhs))
        ok = bool(np.all(lhs <= rhs + slack))
        report = {
            "algorithm": trace.algorithm,
            "eps": trace.eps,
            "T": trace.T,
            "problem": trace.problem_meta,
            "order": trace.order_kind,
            "seed": trace.seed,
            "f_star": f_star,
            "fixed_step": fixed,
            "r0": r0,
            "lhs": float(lhs[-1]),
            "rhs": float(rhs[-1]),
            "slack": float(slack[-1]),
            "min_prefix_margin": float(np.min(rhs - lhs)),
            "checked": "fixed-step regret corollary" if fixed else bound,
        }
        if fixed:
            report["fixed_step_modulus"] = _fixed_step_modulus(trace)
        name, gaps, bounds = "lhs", lhs, rhs
    elif trace.algorithm == "sug":
        mu_h = problem.regularizer.strong_convexity
        n = problem.n_components
        M = float(extra["M"])
        dist0_sq = extra["dist0_sq"]
        report = {
            "algorithm": "sug",
            "eps": trace.eps,
            "M": M,
            "mu_h": mu_h,
            "n": n,
            "seed": trace.seed,
            "problem": trace.problem_meta,
            "dist0_sq": dist0_sq,
            "f_star": f_star,
            "iterations": trace.n_rows,
            "final_gap": extra["f_final"] - f_star,
        }
        values = np.append(trace.f_full, extra["f_final"])
        rho = sug_rho(M, mu_h, n) if mu_h > 0 else None
        active = rho is not None and rho < 1.0
        first, gaps, ok = 1, values[1:] - f_star, True
        if active:
            b = bounds = sug_bounds(range(1, len(values)), M, mu_h, n, trace.eps, dist0_sq)
            f_low = f_star - reference.gap
            ok = bool(np.all(values[1:] - f_low <= b + SLACK_SCALE * (1.0 + np.abs(b))))
        report.update(
            rho=rho,
            bound_vacuous=not active,
            bound_satisfied=ok if active else None,
            iteration_estimate=(
                sug_iteration_estimate(M, mu_h, n, trace.eps, dist0_sq) if active else None
            ),
            checked="sug bound curve" if active else "none (bound vacuous)",
        )
    elif trace.algorithm == "batch":  # no theorem bound applies
        report = {
            "algorithm": trace.algorithm,
            "eps": trace.eps,
            "iterations": trace.n_rows,
            "f_star": f_star,
            "final_gap": float(trace.f_gt_xnext[-1]) - f_star,
            "checked": "none",
        }
        ok = True
    else:
        raise ValueError(f"unknown algorithm {trace.algorithm!r}")
    report["reference"] = {
        "f": reference.f,
        "gap": reference.gap,
        "iterations": reference.iterations,
        "residual": reference.residual,
    }
    report["ok"] = bool(ok)
    return report, (name, range(first, first + len(gaps)), gaps, bounds)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_bound_curve(path, curve) -> None:
    """Write verify's curve, the columns (k, <name>, bound), by column, a
    block of rows at a time; with no bounds, or where a bound is not
    finite, the field is empty."""
    name, ks, gaps, bounds = curve
    gaps = np.asarray(gaps, dtype=float)
    if not np.isfinite(gaps).all():
        raise ValueError(f"bound curve contains a non-finite {name}")
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
    step = block_rows()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"k,{name},bound\n")
        for s in range(0, len(gaps), step):
            block = slice(s, s + step)
            texts = repeat("") if bounds is None else (
                repr(b) if math.isfinite(b) else "" for b in bounds[block].tolist())
            columns = (map(str, ks[block]), map(repr, gaps[block].tolist()), texts)
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


# ---------------------------------------------------------------------------
# Bound re-checking from a serialized trace


def check_bounds(trace_path) -> tuple[dict, bool]:
    """Rebuild the problem from trace metadata and verify the trace.

    A trace that lacks an `extra` key its run writes (EXTRA_KEYS) raises
    ValueError naming the key.  The reference is the run's: x* as the trace
    stores it, with f = f(x*) and the certificate recomputed on the rebuilt
    problem, so both judge against the same f*.  A trace whose x* the
    rebuilt problem certifies worse than the run did is judged against a
    new solve at the tol the run recorded.  A lasso-csv file whose sha256
    is not the run's raises ValueError naming it.  Returns the report verify
    builds, as in the run's report.json, and its verdict `ok`.
    """
    trace = parse_trace_csv(trace_path)
    if not trace.problem_meta:
        raise ValueError(f"{trace_path}: trace has no problem descriptor metadata")
    extra = trace.extra_meta
    kind = trace.problem_meta.get("kind")
    for run in ("every", trace.algorithm, "fixed_step" if extra.get("fixed_step") else None, kind):
        for key in EXTRA_KEYS.get(run, ()):
            if key not in extra:
                raise ValueError(f"{trace_path}: extra metadata key {key!r} missing")
    if kind == "lasso-csv":
        path = _descriptor_field(trace.problem_meta, "path", str)
        if _sha256(path) != extra["data_sha256"]:
            raise ValueError(f"{path}: data file changed since the run wrote {trace_path}")
    problem = problem_from_descriptor(trace.problem_meta)
    x = np.asarray(extra["x_star"], dtype=float)
    smooth, gap = problem.certify(x)
    if math.isfinite(gap) and gap <= extra["reference_gap"]:
        reference = ReferenceSolution(
            x=x, f=smooth + problem.regularizer.value(x),
            iterations=extra["reference_iterations"],
            residual=extra["reference_residual"], gap=gap, steps=[],
        )
    else:
        reference = reference_solution(problem, tol=float(extra["tol"]))
    report, _ = verify(trace, problem, reference)
    return report, report["ok"]
