"""Experiment harness: reference solutions, regret evaluation, artifacts.

A run produces three artifacts in the output directory:

    trace.csv   per-round scalars plus replay metadata (schema in trace.py)
    report.json theorem left/right-hand sides, slacks, satisfaction flags
    bounds.csv  plotting curve "k,gap,bound": objective gap f(x^k) - f*
                and the applicable theorem bound at prefix k

Reference minimizers always come from the batch proximal-gradient solver
run to a fixed-point residual tolerance, so every reported gap shares one
ground truth.
"""

import json
import math
import time
from dataclasses import dataclass
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

DEFAULT_SLACK_SCALE = 1e-9


class ReferenceSolverError(RuntimeError):
    """Reference solve did not reach the residual tolerance."""


@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    f: float
    iterations: int
    residual: float


def reference_solution(
    problem: CompositeProblem,
    tol: float = 1e-10,
    x0: np.ndarray | None = None,
    max_iters: int = 1_000_000,
    L0: float = 1.0,
) -> ReferenceSolution:
    """Batch proximal gradient with backtracking on the smooth average.

    Iterates until the fixed-point residual ||x_next - x|| drops to tol.
    Raises ReferenceSolverError if the cap is hit first.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.zeros(problem.dimension) if x0 is None else np.asarray(x0, dtype=float).copy()
    regularizer = problem.regularizer
    L = L0
    residual = math.inf
    for it in range(1, max_iters + 1):
        value = problem.mean_smooth_value(x)
        grad = problem.mean_smooth_grad(x)
        M = L
        for _ in range(300):
            x_next = regularizer.prox(x - grad / M, 1.0 / M)
            diff = x_next - x
            quad = value + float(grad @ diff) + 0.5 * M * float(diff @ diff)
            if problem.mean_smooth_value(x_next) <= quad + 1e-15 * (1.0 + abs(quad)):
                break
            M *= 2.0
        else:
            raise ReferenceSolverError("backtracking stalled; objective misbehaves")
        residual = float(np.linalg.norm(x_next - x))
        x = x_next
        # monotone modulus: halving between iterations lets float cancellation
        # in the descent test drag M below the curvature near the optimum,
        # where the iterates then limit-cycle above any tight tolerance
        L = M
        if residual <= tol:
            return ReferenceSolution(
                x=x, f=problem.value(x), iterations=it, residual=residual
            )
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

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "eps": self.eps,
            "T": self.T,
            "S_T": self.S_T,
            "r0": self.r0,
            "regret_as_defined": self.regret_as_defined,
            "regret_shifted": self.regret_shifted,
            "weighted_lhs_thm1": self.weighted_lhs_thm1,
            "rhs_thm1": self.rhs_thm1,
            "thm1_slack": self.thm1_slack,
            "thm1_satisfied": self.thm1_satisfied,
            "weighted_lhs_thm2": self.weighted_lhs_thm2,
            "rhs_thm2": self.rhs_thm2,
            "thm2_slack": self.thm2_slack,
            "thm2_satisfied": self.thm2_satisfied,
            "weighted_lhs_thm2_iterates": self.weighted_lhs_thm2_iterates,
        }


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
    eps: float | None = None,
    slack_scale: float = DEFAULT_SLACK_SCALE,
) -> RegretReport:
    """Compute both regret readings and both aggregate theorem checks.

    The prime-method bound is evaluated at the accepted iterates x_{t+1}
    (f_gt_xnext).  The dual-method bound is evaluated at the accepted
    descent points y_t (f_gt_yt): the model aggregation argument controls
    the weighted objective at those points, not at the raw dual iterates,
    which need not converge when the smooth parts are nonsmooth (v = 0)
    and the weights stay order one.  The weighted sum at the raw iterates
    is still reported (weighted_lhs_thm2_iterates) for diagnostics.

    Satisfaction uses the slack slack_scale * (1 + |RHS|).
    """
    if trace.n_rows != trace.T + 1:
        raise ValueError(
            f"trace incomplete: {trace.n_rows} rows for T = {trace.T}"
        )
    eps = trace.eps if eps is None else float(eps)
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
    slack1 = slack_scale * (1.0 + abs(rhs1))
    slack2 = slack_scale * (1.0 + abs(rhs2))
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
    stop_threshold: float | None = None
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


def _batch_run(problem, x0, tol, max_iters, eps, trace_meta) -> tuple[np.ndarray, RunTrace]:
    """Batch proximal gradient recorded as a trace (for --algorithm batch)."""
    trace = RunTrace(
        algorithm="batch",
        eps=eps,
        T=max_iters,
        x0=np.asarray(x0, dtype=float).copy(),
        L0=None,
        seed=trace_meta.get("seed"),
        order_kind=None,
        problem_meta=trace_meta.get("problem", {}),
        extra_meta={"tol": tol},
    )
    regularizer = problem.regularizer
    x = np.asarray(x0, dtype=float).copy()
    L = 1.0
    start = time.perf_counter()
    for k in range(max_iters):
        value = problem.mean_smooth_value(x)
        grad = problem.mean_smooth_grad(x)
        f_x = value + regularizer.value(x)
        M = L
        doublings = 0
        for _ in range(300):
            x_next = regularizer.prox(x - grad / M, 1.0 / M)
            diff = x_next - x
            quad = value + float(grad @ diff) + 0.5 * M * float(diff @ diff)
            if problem.mean_smooth_value(x_next) <= quad + 1e-15 * (1.0 + abs(quad)):
                break
            M *= 2.0
            doublings += 1
        else:
            raise ReferenceSolverError("backtracking stalled; objective misbehaves")
        f_next = problem.value(x_next)
        residual = float(np.linalg.norm(x_next - x))
        trace.add_row(
            k, doublings, M, f_x, f_next, f_next, f_x,
            time.perf_counter() - start, x_next=x_next,
        )
        x = x_next
        L = M
        if residual <= tol:
            break
    return x, trace


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
    trace_meta = {
        "problem": cfg.problem,
        "seed": cfg.seed,
        "order": cfg.order,
        "extra": {"tol": cfg.tol},
    }
    reference = reference_solution(problem, tol=cfg.tol)

    if cfg.algorithm in ("oupgm", "oudgm"):
        order = sample_order(cfg.order, problem.n_components, cfg.T, cfg.seed)
        runners = {
            ("oupgm", False): lambda: upgm_run(
                problem, order, x0, cfg.L0, eps, cfg.T, trace_meta
            ),
            ("oupgm", True): lambda: upgm_fixed_step_run(
                problem, order, x0, eps, cfg.T,
                cfg.holder_modulus, cfg.holder_degree, trace_meta,
            ),
            ("oudgm", False): lambda: udgm_run(
                problem, order, x0, cfg.L0, eps, cfg.T, trace_meta
            ),
            ("oudgm", True): lambda: udgm_fixed_step_run(
                problem, order, x0, eps, cfg.T,
                cfg.holder_modulus, cfg.holder_degree, trace_meta,
            ),
        }
        x_out, trace = runners[(cfg.algorithm, cfg.fixed_step)]()
        report = _online_report(cfg, problem, trace, reference, eps)
        curve = _online_bound_curve(trace, problem, reference, eps)
    elif cfg.algorithm == "sug":
        dist0_sq = cfg.dist0_sq
        if dist0_sq is None:
            dist0_sq = float(np.sum((reference.x - x0) ** 2))
        sug_cfg = SugConfig(
            M=float(cfg.M),  # type: ignore[arg-type]
            eps=eps,
            seed=cfg.seed,
            max_iters=max(cfg.T, 1),
            stop_threshold=cfg.stop_threshold,
            dist0_sq=dist0_sq,
        )
        x_out, trace = sug_run(problem, x0, sug_cfg, trace_meta)
        report = _sug_report(cfg, problem, trace, reference, eps, dist0_sq, x_out)
        curve = _sug_bound_curve(trace, problem, reference, eps, dist0_sq, x_out, cfg)
    else:  # batch
        x_out, trace = _batch_run(
            problem, x0, cfg.tol, max(cfg.T, 1), eps, trace_meta
        )
        gap = problem.value(x_out) - reference.f
        report = {
            "algorithm": "batch",
            "eps": eps,
            "iterations": trace.n_rows,
            "f_star": reference.f,
            "final_gap": gap,
            "reference_iterations": reference.iterations,
            "reference_residual": reference.residual,
        }
        curve = [
            (k, trace.f_full[k] - reference.f, None) for k in range(trace.n_rows)
        ]

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


def _online_report(cfg, problem, trace, reference, eps) -> dict:
    rep = evaluate_regret(trace, problem, reference.x, eps)
    report = rep.to_dict()
    report.update(
        {
            "problem": cfg.problem,
            "fixed_step": cfg.fixed_step,
            "order": cfg.order,
            "seed": cfg.seed,
            "f_star": reference.f,
        }
    )
    if cfg.fixed_step:
        v = cfg.holder_degree
        Mv = cfg.holder_modulus
        if v is None or Mv is None:
            pv, pM = problem.holder_constants()
            v = pv if v is None else v
            Mv = pM if Mv is None else Mv
        step = gamma(Mv, v, eps)
        corollary_rhs = 0.5 * eps * (trace.T + 1) + 2.0 * rep.r0 * step
        lhs = rep.regret_shifted if cfg.algorithm == "oupgm" else rep.regret_as_defined
        slack = DEFAULT_SLACK_SCALE * (1.0 + abs(corollary_rhs))
        report.update(
            {
                "fixed_step_modulus": step,
                "corollary_lhs": lhs,
                "corollary_rhs": corollary_rhs,
                "corollary_satisfied": bool(lhs <= corollary_rhs + slack),
            }
        )
    return report


def _online_bound_curve(trace, problem, reference, eps):
    inv_L = 1.0 / np.asarray(trace.L_next, dtype=float)
    r0 = problem.geometry.bregman(np.asarray(trace.x0, dtype=float), reference.x)
    if trace.algorithm == "oupgm":
        rhs_prefix = 0.5 * eps * np.cumsum(inv_L) + 2.0 * r0
    else:
        rhs_prefix = 0.25 * eps * np.cumsum(inv_L) + r0
    gaps = np.asarray(trace.f_full) - reference.f
    return [(k, float(gaps[k]), float(rhs_prefix[k])) for k in range(trace.n_rows)]


def _sug_report(cfg, problem, trace, reference, eps, dist0_sq, x_final) -> dict:
    mu_h = problem.regularizer.strong_convexity
    n = problem.n_components
    report: dict = {
        "algorithm": "sug",
        "eps": eps,
        "M": float(cfg.M),
        "mu_h": mu_h,
        "n": n,
        "seed": cfg.seed,
        "problem": cfg.problem,
        "dist0_sq": dist0_sq,
        "f_star": reference.f,
        "iterations": trace.n_rows,
        "final_gap": problem.value(x_final) - reference.f,
    }
    if mu_h <= 0:
        report.update({"rho": None, "bound_vacuous": True, "bound_satisfied": None,
                       "iteration_estimate": None})
        return report
    rho = sug_rho(cfg.M, mu_h, n)
    vacuous = rho >= 1.0
    report["rho"] = rho
    report["bound_vacuous"] = vacuous
    if vacuous:
        report["bound_satisfied"] = None
        report["iteration_estimate"] = None
        return report
    gaps = list(np.asarray(trace.f_full) - reference.f)
    gaps.append(problem.value(x_final) - reference.f)
    satisfied = True
    for k in range(1, len(gaps)):
        bound = sug_bound(k, cfg.M, mu_h, n, eps, dist0_sq)
        if gaps[k] > bound + DEFAULT_SLACK_SCALE * (1.0 + abs(bound)):
            satisfied = False
            break
    report["bound_satisfied"] = satisfied
    report["iteration_estimate"] = sug_iteration_estimate(cfg.M, mu_h, n, eps, dist0_sq)
    return report


def _sug_bound_curve(trace, problem, reference, eps, dist0_sq, x_final, cfg):
    mu_h = problem.regularizer.strong_convexity
    n = problem.n_components
    gaps = list(np.asarray(trace.f_full) - reference.f)
    gaps.append(problem.value(x_final) - reference.f)
    curve = []
    usable = mu_h > 0 and sug_rho(cfg.M, mu_h, n) < 1.0
    for k in range(1, len(gaps)):
        bound = sug_bound(k, cfg.M, mu_h, n, eps, dist0_sq) if usable else None
        curve.append((k, float(gaps[k]), bound))
    return curve


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
    """Rebuild the problem from trace metadata and re-run the bound checks.

    The reference is solved at the tol the run recorded (1e-10 for traces
    without one), so both judge against the same f*.  Returns (report, ok);
    ok is True when every applicable bound holds.
    """
    trace = parse_trace_csv(trace_path)
    if not trace.problem_meta:
        raise ValueError(f"{trace_path}: trace has no problem descriptor metadata")
    problem = problem_from_descriptor(trace.problem_meta)
    tol = float(trace.extra_meta.get("tol", 1e-10))
    reference = reference_solution(problem, tol=tol)
    if trace.algorithm in ("oupgm", "oudgm"):
        rep = evaluate_regret(trace, problem, reference.x)
        report = rep.to_dict()
        report["f_star"] = reference.f
        if trace.extra_meta.get("fixed_step"):
            # Fixed-step runs are governed by the regret corollary; the trace
            # has no line-search descent points to feed the aggregate bound.
            v = float(trace.extra_meta["v"])
            Mv = float(trace.extra_meta["Mv"])
            step = gamma(Mv, v, trace.eps)
            rhs = 0.5 * trace.eps * (trace.T + 1) + 2.0 * rep.r0 * step
            lhs = (
                rep.regret_shifted
                if trace.algorithm == "oupgm"
                else rep.regret_as_defined
            )
            slack = DEFAULT_SLACK_SCALE * (1.0 + abs(rhs))
            ok = bool(lhs <= rhs + slack)
            report.update(
                {
                    "checked": "fixed-step regret corollary",
                    "corollary_lhs": lhs,
                    "corollary_rhs": rhs,
                    "ok": ok,
                }
            )
            return report, ok
        if trace.algorithm == "oupgm":
            ok = rep.thm1_satisfied
        else:
            ok = rep.thm2_satisfied
        report["checked"] = "thm1" if trace.algorithm == "oupgm" else "thm2"
        report["ok"] = ok
        return report, ok
    if trace.algorithm == "sug":
        mu_h = problem.regularizer.strong_convexity
        n = problem.n_components
        M = float(trace.extra_meta.get("M", 0.0))
        report = {
            "algorithm": "sug",
            "eps": trace.eps,
            "M": M,
            "mu_h": mu_h,
            "f_star": reference.f,
        }
        if mu_h <= 0 or M <= 0 or sug_rho(M, mu_h, n) >= 1.0:
            report["checked"] = "none (bound vacuous)"
            report["ok"] = True
            return report, True
        x0 = np.asarray(trace.x0, dtype=float)
        dist0_sq = float(np.sum((reference.x - x0) ** 2))
        gaps = np.asarray(trace.f_full) - reference.f
        ok = True
        for k in range(1, trace.n_rows):
            bound = sug_bound(k, M, mu_h, n, trace.eps, dist0_sq)
            if gaps[k] > bound + DEFAULT_SLACK_SCALE * (1.0 + abs(bound)):
                ok = False
                break
        report["checked"] = "sug bound curve"
        report["ok"] = ok
        return report, ok
    # batch: nothing to check beyond finite values
    report = {"algorithm": trace.algorithm, "checked": "none", "ok": True}
    return report, True
