"""Experiment harness: reference solutions, regret evaluation, artifacts.

A run produces three artifacts in the output directory:

    trace.csv   per-round scalars plus replay metadata (schema in trace.py)
    report.json theorem left/right-hand sides, slacks, satisfaction flags,
                and the verdict: `checked` names the bound judged, `ok`
                says whether it holds
    bounds.csv  plotting curve "k,gap,bound": objective gap f(x^k) - f*
                and the applicable theorem bound at prefix k

Both `run` and `check-bounds` judge a trace with the one function verify,
which reads only the trace, its metadata and the reference, so a saved
trace re-verifies everything the live run verified.  The trace's `extra`
metadata carries what the bounds need beyond the columns:

    tol       residual tolerance of the reference solve (every run)
    fixed_step, Mv, v
              fixed-step runs: the Holder modulus and degree used
    M         sug: the surrogate modulus
    dist0_sq  sug: the ||x0 - x*||^2 the run used (--dist0 or the reference's)
    f_final   sug: the objective at the final iterate

Reference minimizers always come from the batch proximal-gradient solver
run to a fixed-point residual tolerance, so every reported gap shares one
ground truth; `--algorithm batch` runs the same solver.
"""

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bregman import gamma
from .oracles import CompositeProblem
from .problems import (
    LassoInstance,
    lasso_problem,
    load_samples,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from .sug import SugConfig, sug_bound, sug_iteration_estimate, sug_rho, sug_run
from .trace import RunTrace, parse_trace_csv, write_trace_csv
from .udgm import udgm_fixed_step_run, udgm_run
from .upgm import upgm_fixed_step_run, upgm_run

SLACK_SCALE = 1e-9


class ReferenceSolverError(RuntimeError):
    """Reference solve did not reach the residual tolerance."""


def _prox_grad_steps(problem: CompositeProblem, x0: np.ndarray, L0: float):
    """Backtracking proximal-gradient steps on the smooth average, unending.

    Yields (x, x_next, M, doublings, g_x, g_next) per step: x_next was
    accepted at modulus M after `doublings` doublings from the previous
    step's modulus, and g_x, g_next are the smooth average at x and x_next.
    The accepted trial's smooth value is reused at the next iterate, so
    each trial costs one mean_smooth_value call.
    """
    regularizer = problem.regularizer
    x = np.asarray(x0, dtype=float).copy()
    value = problem.mean_smooth_value(x)
    L = L0
    while True:
        grad = problem.mean_smooth_grad(x)
        M = L
        for doublings in range(300):
            x_next = regularizer.prox(x - grad / M, 1.0 / M)
            diff = x_next - x
            quad = value + float(grad @ diff) + 0.5 * M * float(diff @ diff)
            value_next = problem.mean_smooth_value(x_next)
            if value_next <= quad + 1e-15 * (1.0 + abs(quad)):
                break
            M *= 2.0
        else:
            raise ReferenceSolverError("backtracking stalled; objective misbehaves")
        yield x, x_next, M, doublings, value, value_next
        x, value = x_next, value_next
        # monotone modulus: halving between iterations lets float cancellation
        # in the descent test drag M below the curvature near the optimum,
        # where the iterates then limit-cycle above any tight tolerance
        L = M


@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    f: float
    iterations: int
    residual: float


def reference_solution(
    problem: CompositeProblem,
    tol: float = 1e-10,
    max_iters: int = 1_000_000,
    L0: float = 1.0,
) -> ReferenceSolution:
    """Batch proximal gradient with backtracking on the smooth average.

    Iterates from the origin until the fixed-point residual ||x_next - x||
    drops to tol.
    Raises ReferenceSolverError if the cap is hit first.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    residual = math.inf
    steps = _prox_grad_steps(problem, np.zeros(problem.dimension), L0)
    for it, (x, x_next, _, _, _, g_next) in zip(range(1, max_iters + 1), steps):
        residual = float(np.linalg.norm(x_next - x))
        if residual <= tol:
            f = g_next + problem.regularizer.value(x_next)
            return ReferenceSolution(x=x_next, f=f, iterations=it, residual=residual)
    raise ReferenceSolverError(
        f"no convergence to residual {tol:.1e} within {max_iters} iterations "
        f"(last residual {residual:.3e})"
    )


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


@dataclass(frozen=True)
class RegretReport:
    """Theorem ledger for one online run."""

    algorithm: str
    eps: float
    T: int
    S_T: float
    r0: float
    regret_as_defined: float
    regret_shifted: float
    weighted_lhs_thm1: float
    rhs_thm1: float
    thm1_slack: float
    thm1_satisfied: bool
    weighted_lhs_thm2: float
    rhs_thm2: float
    thm2_slack: float
    thm2_satisfied: bool
    weighted_lhs_thm2_iterates: float


def _trace_components(trace: RunTrace, problem: CompositeProblem) -> np.ndarray:
    if len(trace.component) == trace.n_rows:
        comps = np.asarray(trace.component, dtype=int)
    elif trace.order_kind is not None:
        comps = sample_order(
            trace.order_kind, problem.n_components, trace.T, trace.seed
        )
    else:
        raise ValueError("trace lacks both a component list and order metadata")
    if comps.size and (comps.min() < 0 or comps.max() >= problem.n_components):
        raise ValueError("trace references components the problem does not have")
    return comps


def evaluate_regret(
    trace: RunTrace,
    problem: CompositeProblem,
    x_star: np.ndarray,
) -> RegretReport:
    """Compute both regret readings and both aggregate theorem checks.

    The prime-method bound is evaluated at the accepted iterates x_{t+1}
    (f_gt_xnext).  The dual-method bound is evaluated at the accepted
    descent points y_t (f_gt_yt): the model aggregation argument controls
    the weighted objective at those points, not at the raw dual iterates,
    which need not converge when the smooth parts are nonsmooth (v = 0)
    and the weights stay order one.  The weighted sum at the raw iterates
    is still reported (weighted_lhs_thm2_iterates) for diagnostics.

    Every reading uses the trace's own eps; satisfaction allows the slack
    SLACK_SCALE * (1 + |RHS|).
    """
    if trace.n_rows != trace.T + 1:
        raise ValueError(
            f"trace incomplete: {trace.n_rows} rows for T = {trace.T}"
        )
    eps = trace.eps
    x_star = np.asarray(x_star, dtype=float)
    comps = _trace_components(trace, problem)
    h_star = problem.regularizer.value(x_star)
    f_star_rows = np.array(
        [problem.components[int(c)].value(x_star) + h_star for c in comps]
    )
    f_xt = np.asarray(trace.f_gt_xt, dtype=float)
    f_xnext = np.asarray(trace.f_gt_xnext, dtype=float)
    f_yt = np.asarray(trace.f_gt_yt, dtype=float)
    L_next = np.asarray(trace.L_next, dtype=float)
    inv_L = 1.0 / L_next
    S_T = float(inv_L.sum())
    r0 = problem.geometry.bregman(np.asarray(trace.x0, dtype=float), x_star)
    lhs1 = float((inv_L * (f_xnext - f_star_rows)).sum())
    rhs1 = 0.5 * eps * S_T + 2.0 * r0
    lhs2 = float((0.5 * inv_L * (f_yt - f_star_rows)).sum())
    lhs2_iter = float((0.5 * inv_L * (f_xt - f_star_rows)).sum())
    rhs2 = 0.25 * eps * S_T + r0
    slack1 = SLACK_SCALE * (1.0 + abs(rhs1))
    slack2 = SLACK_SCALE * (1.0 + abs(rhs2))
    return RegretReport(
        algorithm=trace.algorithm,
        eps=eps,
        T=trace.T,
        S_T=S_T,
        r0=r0,
        regret_as_defined=float((f_xt - f_star_rows).sum()),
        regret_shifted=float((f_xnext - f_star_rows).sum()),
        weighted_lhs_thm1=lhs1,
        rhs_thm1=rhs1,
        thm1_slack=slack1,
        thm1_satisfied=bool(lhs1 <= rhs1 + slack1),
        weighted_lhs_thm2=lhs2,
        rhs_thm2=rhs2,
        thm2_slack=slack2,
        thm2_satisfied=bool(lhs2 <= rhs2 + slack2),
        weighted_lhs_thm2_iterates=lhs2_iter,
    )


# ---------------------------------------------------------------------------
# Problem descriptors (serialized into trace metadata, rebuilt by check-bounds)


def problem_from_descriptor(desc: dict) -> CompositeProblem:
    """Rebuild a problem from its trace-metadata descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("problem descriptor must be a dict with a 'kind' key")
    kind = desc["kind"]
    if kind == "synth-lasso":
        inst = synth_lasso(
            p=int(desc["p"]),
            n=int(desc["n"]),
            sparsity=int(desc["sparsity"]),
            noise=float(desc["noise"]),
            seed=int(desc["seed"]),
            l1_weight=float(desc.get("mu", 0.0)),
            ridge_weight=float(desc.get("ridge", 0.0)),
        )
        return lasso_problem(inst)
    if kind == "lasso-csv":
        inst = load_samples(desc["path"])
        inst = LassoInstance(
            A=inst.A,
            b=inst.b,
            l1_weight=float(desc.get("mu", 0.0)),
            ridge_weight=float(desc.get("ridge", 0.0)),
        )
        return lasso_problem(inst)
    if kind == "steiner":
        inst = synth_steiner(p=int(desc["p"]), m=int(desc["m"]), seed=int(desc["seed"]))
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
    tol: float = 1e-10
    dist0_sq: float | None = None

    def validate(self) -> None:
        if self.algorithm not in ("oupgm", "oudgm", "sug", "batch"):
            raise ValueError(f"algorithm must be oupgm|oudgm|sug|batch, got {self.algorithm!r}")
        if isinstance(self.eps, str) and self.eps != "auto":
            raise ValueError(f"eps must be a positive float or 'auto', got {self.eps!r}")
        if isinstance(self.eps, (int, float)) and self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.T < 0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if self.L0 <= 0:
            raise ValueError(f"L0 must be positive, got {self.L0}")
        if self.order not in ("sequential", "cyclic", "random"):
            raise ValueError(f"order must be sequential|cyclic|random, got {self.order!r}")
        if self.algorithm == "sug":
            if self.M is None or self.M <= 0:
                raise ValueError("M must be a positive float for the sug algorithm")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.dist0_sq is not None and not 0 < self.dist0_sq < math.inf:
            raise ValueError(f"dist0 must be positive and finite, got {self.dist0_sq}")


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
    extra = {"tol": cfg.tol}
    trace_meta = {
        "problem": cfg.problem,
        "seed": cfg.seed,
        "order": cfg.order,
        "extra": extra,
    }
    reference = reference_solution(problem, tol=cfg.tol)

    if cfg.algorithm in ("oupgm", "oudgm"):
        order = sample_order(cfg.order, problem.n_components, cfg.T, cfg.seed)
        if cfg.fixed_step:
            run = upgm_fixed_step_run if cfg.algorithm == "oupgm" else udgm_fixed_step_run
            _, trace = run(problem, order, x0, eps, cfg.T, cfg.holder_modulus,
                           cfg.holder_degree, trace_meta)
        else:
            run = upgm_run if cfg.algorithm == "oupgm" else udgm_run
            _, trace = run(problem, order, x0, cfg.L0, eps, cfg.T, trace_meta)
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
        x_out, trace = sug_run(problem, x0, sug_cfg, trace_meta)
        trace.extra_meta["f_final"] = problem.value(x_out)
    else:  # batch: the reference's solver, stopped quietly at T iterations
        trace = RunTrace(
            algorithm="batch", eps=eps, T=max(cfg.T, 1), x0=x0, seed=cfg.seed,
            problem_meta=cfg.problem, extra_meta=extra,
        )
        h = problem.regularizer.value
        start = time.perf_counter()
        steps = _prox_grad_steps(problem, x0, 1.0)
        for k, (x, x_next, M, doublings, g_x, g_next) in zip(range(trace.T), steps):
            f_x = g_x + h(x)
            f_next = g_next + h(x_next)
            trace.add_row(
                k, doublings, M, f_x, f_next, f_next, f_x, time.perf_counter() - start
            )
            if float(np.linalg.norm(x_next - x)) <= cfg.tol:
                break

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
    when it fails.  curve holds the bounds.csv rows (k, gap, bound or None).
    """
    f_star = reference.f
    extra = trace.extra_meta
    gaps = np.asarray(trace.f_full) - f_star
    if trace.algorithm in ("oupgm", "oudgm"):
        rep = evaluate_regret(trace, problem, reference.x)
        fixed = bool(extra.get("fixed_step", False))
        report = {
            **asdict(rep),
            "problem": trace.problem_meta,
            "fixed_step": fixed,
            "order": trace.order_kind,
            "seed": trace.seed,
            "f_star": f_star,
        }
        primal = trace.algorithm == "oupgm"
        if fixed:
            # Fixed-step runs are governed by the regret corollary; the trace
            # has no line-search descent points to feed the aggregate bound.
            step = gamma(float(extra["Mv"]), float(extra["v"]), trace.eps)
            rhs = 0.5 * trace.eps * (trace.T + 1) + 2.0 * rep.r0 * step
            lhs = rep.regret_shifted if primal else rep.regret_as_defined
            ok = bool(lhs <= rhs + SLACK_SCALE * (1.0 + abs(rhs)))
            report.update(
                fixed_step_modulus=step, corollary_lhs=lhs, corollary_rhs=rhs,
                corollary_satisfied=ok, checked="fixed-step regret corollary",
            )
        else:
            ok = rep.thm1_satisfied if primal else rep.thm2_satisfied
            report["checked"] = "thm1" if primal else "thm2"
        # prefix k of thm1 (oupgm) or thm2 (oudgm)
        weights = np.cumsum(1.0 / np.asarray(trace.L_next, dtype=float))
        if primal:
            rhs_prefix = 0.5 * trace.eps * weights + 2.0 * rep.r0
        else:
            rhs_prefix = 0.25 * trace.eps * weights + rep.r0
        curve = [(k, gaps[k], rhs_prefix[k]) for k in range(trace.n_rows)]
    elif trace.algorithm == "sug":
        mu_h = problem.regularizer.strong_convexity
        n = problem.n_components
        M = float(extra["M"])
        dist0_sq = extra.get("dist0_sq")
        if dist0_sq is None:  # traces written before the run recorded it
            dist0_sq = float(np.sum((reference.x - trace.x0) ** 2))
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
        }
        gaps = list(gaps)
        if "f_final" in extra:  # older traces judge the rows only
            report["final_gap"] = extra["f_final"] - f_star
            gaps.append(report["final_gap"])
        rho = sug_rho(M, mu_h, n) if mu_h > 0 else None
        active = rho is not None and rho < 1.0
        curve = [
            (k, gaps[k], sug_bound(k, M, mu_h, n, trace.eps, dist0_sq) if active else None)
            for k in range(1, len(gaps))
        ]
        ok = not active or all(
            gap <= bound + SLACK_SCALE * (1.0 + abs(bound))
            for _, gap, bound in curve
        )
        report.update(
            rho=rho,
            bound_vacuous=not active,
            bound_satisfied=ok if active else None,
            iteration_estimate=(
                sug_iteration_estimate(M, mu_h, n, trace.eps, dist0_sq) if active else None
            ),
            checked="sug bound curve" if active else "none (bound vacuous)",
        )
    else:  # batch: no theorem bound applies
        report = {
            "algorithm": trace.algorithm,
            "eps": trace.eps,
            "iterations": trace.n_rows,
            "f_star": f_star,
            "final_gap": trace.f_gt_xnext[-1] - f_star,
            "reference_iterations": reference.iterations,
            "reference_residual": reference.residual,
            "checked": "none",
        }
        ok = True
        curve = [(k, gaps[k], None) for k in range(trace.n_rows)]
    report["ok"] = bool(ok)
    return report, curve


def _write_bound_curve(path, rows) -> None:
    lines = ["k,gap,bound"]
    for k, gap, bound in rows:
        if not math.isfinite(gap):
            raise ValueError("bound curve contains a non-finite gap")
        bound_text = ""
        if bound is not None and math.isfinite(bound):
            bound_text = repr(float(bound))
        lines.append(f"{k},{repr(float(gap))},{bound_text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Bound re-checking from a serialized trace


def check_bounds(trace_path) -> tuple[dict, bool]:
    """Rebuild the problem from trace metadata and verify the trace.

    The reference is solved at the tol the run recorded (1e-10 for traces
    without one), so both judge against the same f*.  Returns the report
    verify builds, as in the run's report.json, and its verdict `ok`.
    """
    trace = parse_trace_csv(trace_path)
    if not trace.problem_meta:
        raise ValueError(f"{trace_path}: trace has no problem descriptor metadata")
    problem = problem_from_descriptor(trace.problem_meta)
    tol = float(trace.extra_meta.get("tol", 1e-10))
    report, _ = verify(trace, problem, reference_solution(problem, tol=tol))
    return report, report["ok"]
