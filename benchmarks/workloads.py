"""Workloads: the inputs made from a seed and the CLI calls of each round.

A round is a list of `unigrad run` calls, each followed by `unigrad
check-bounds` on the trace it wrote.  A workload's rounds cycle through a
fixed list; every round has the same calls up to the data they get.  Every
input is a pure function of the benchmark seed and the round's place in the
cycle, so two runs with one seed do identical work.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

T_ONLINE = 2000
BATTERY_SEEDS_PER_ROUND = 2
# The reference solve on the large stream takes about 10 or about 37
# iterations depending on the data seed, so its rounds walk through seeds
# and each method gets its own.
LARGE_DATA_SEEDS = 8
REFERENCE_TOL = 1e-10

# Full sizes, and the tiny ones the self-test uses to run every workload
# (and every check) in a few seconds.
SIZES = {
    "full": {
        "T": T_ONLINE,
        "large_p": 200, "large_n": 20000, "large_sparsity": 20,
        "sug_n": 1000, "sug_p": 20, "sug_T": 20000, "sug_scale": 300.0,
        "warmup_T": 200,
    },
    "tiny": {
        "T": 60,
        "large_p": 10, "large_n": 300, "large_sparsity": 3,
        "sug_n": 40, "sug_p": 4, "sug_T": 600, "sug_scale": 30.0,
        "warmup_T": 20,
    },
}


@dataclass(frozen=True)
class Problem:
    """A problem as the CLI is told about it and as the trace records it."""

    key: str
    flags: tuple
    descriptor: dict


@dataclass(frozen=True)
class Run:
    """One `unigrad run` call of a round."""

    label: str
    problem: str
    algorithm: str
    eps: float
    T: int
    seed: int
    order: str = "random"
    fixed: bool = False
    M: float | None = None
    tol: float = REFERENCE_TOL

    @property
    def adaptive(self) -> bool:
        return self.algorithm in ("oupgm", "oudgm") and not self.fixed

    def argv(self, problem: Problem, out: Path) -> list:
        argv = [
            "run", "--algorithm", self.algorithm, *problem.flags,
            "--eps", repr(self.eps), "--T", str(self.T),
            "--seed", str(self.seed), "--order", self.order,
            "--tol", repr(self.tol), "--out", str(out),
        ]
        if self.fixed:
            argv.append("--fixed-step")
        if self.M is not None:
            argv += ["--M", repr(self.M)]
        return argv


@dataclass
class Workload:
    name: str
    problems: dict
    cycle: list  # round r runs cycle[r % len(cycle)], a list of Run
    warmup: Run
    files: dict = field(default_factory=dict)  # path -> text, written once

    def runs(self, r: int) -> list:
        return self.cycle[r % len(self.cycle)]

    def write_inputs(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="utf-8")


def _synth_lasso(key, p, n, sparsity, seed, mu, ridge=0.0, noise=0.1) -> Problem:
    flags = ("--problem", "synth-lasso", "--p", str(p), "--n", str(n),
             "--sparsity", str(sparsity), "--noise", repr(noise),
             "--mu", repr(mu), "--ridge", repr(ridge))
    desc = {"kind": "synth-lasso", "p": p, "n": n, "sparsity": sparsity,
            "noise": noise, "seed": seed, "mu": mu, "ridge": ridge}
    return Problem(key, flags, desc)


def _steiner(key, p, m, seed) -> Problem:
    flags = ("--problem", "steiner", "--p", str(p), "--m", str(m))
    return Problem(key, flags, {"kind": "steiner", "p": p, "m": m, "seed": seed})


def online_battery(seed: int, size: str, workdir: Path) -> Workload:
    """The acceptance battery's shape: v = 1 lasso streams visited in order,
    v = 0 Steiner streams drawn at random, both eps, both methods, line
    search and fixed step."""
    z = SIZES[size]
    T = z["T"]
    problems, runs = {}, []
    for s in range(seed * BATTERY_SEEDS_PER_ROUND, (seed + 1) * BATTERY_SEEDS_PER_ROUND):
        fams = (
            (_synth_lasso(f"lasso-s{s}", 20, T + 1, 5, s, 0.1), "sequential"),
            (_steiner(f"steiner-s{s}", 5, 50, s), "random"),
        )
        for prob, order in fams:
            problems[prob.key] = prob
            for eps in (1e-1, 1e-2):
                for alg in ("oupgm", "oudgm"):
                    for fixed in (False, True):
                        mode = "fixed" if fixed else "adaptive"
                        runs.append(Run(f"{prob.key}-{alg}-{mode}-eps{eps:g}",
                                        prob.key, alg, eps, T, s, order, fixed))
    first = runs[0]
    warmup = Run("warmup", first.problem, "oupgm", 1e-2, z["warmup_T"], first.seed,
                 "sequential")
    return Workload("online-battery", problems, [runs], warmup)


def online_large(seed: int, size: str, workdir: Path) -> Workload:
    """A wide lasso stream drawn at random: the O(np) full-objective
    diagnostic of every round and the reference solve dominate.  Round r
    runs oupgm on data seed base + 2k and oudgm on base + 2k + 1, with
    base = seed * LARGE_DATA_SEEDS and k = r mod LARGE_DATA_SEEDS / 2."""
    z = SIZES[size]
    problems, runs = {}, []
    base = seed * LARGE_DATA_SEEDS
    for s in range(base, base + LARGE_DATA_SEEDS):
        prob = _synth_lasso(f"lasso-large-s{s}", z["large_p"], z["large_n"],
                            z["large_sparsity"], s, 0.1)
        problems[prob.key] = prob
        alg = ("oupgm", "oudgm")[(s - base) % 2]
        runs.append(Run(f"{prob.key}-{alg}-adaptive-eps0.01", prob.key, alg, 1e-2, z["T"], s))
    cycle = [runs[k:k + 2] for k in range(0, len(runs), 2)]
    first = cycle[0][0]
    warmup = Run("warmup", first.problem, "oupgm", 1e-2, z["warmup_T"] // 4, first.seed)
    return Workload("online-large", problems, cycle, warmup)


def sug_csv_data(seed: int, n: int, p: int, scale: float):
    """Elastic-net stream: rows with ||a_t||^2 near 1, a ground truth of norm
    about scale * sqrt(p) so that x* lies far from x0 = 0, and the
    surrogate modulus M and ridge weight that make rho < 1.

    Returns (A, b, M, ridge)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, p)) / np.sqrt(p)
    x_true = scale * rng.normal(size=p)
    b = A @ x_true + rng.normal(size=n)
    M = float(np.ceil(2.0 * float((A * A).sum(axis=1).max())))
    ridge = 2.0 * M + 4.0  # mu_h - M > 3 keeps the iteration estimate defined
    return A, b, M, ridge


def sug_csv(seed: int, size: str, workdir: Path) -> Workload:
    """A strongly convex elastic net read from CSV: a long sug run, then the
    batch solver, no line search anywhere."""
    z = SIZES[size]
    A, b, M, ridge = sug_csv_data(seed, z["sug_n"], z["sug_p"], z["sug_scale"])
    path = (workdir / "samples.csv").resolve()
    lines = ["# b,a_1,...,a_p"]
    lines += [",".join(repr(float(v)) for v in (b[t], *A[t])) for t in range(len(b))]
    mu = 0.1
    flags = ("--problem", "lasso-csv", "--data", str(path),
             "--mu", repr(mu), "--ridge", repr(ridge))
    prob = Problem("csv", flags, {"kind": "lasso-csv", "path": str(path),
                                  "mu": mu, "ridge": ridge})
    runs = [
        Run("csv-sug", prob.key, "sug", 1e-2, z["sug_T"], seed, M=M),
        Run("csv-batch", prob.key, "batch", 1e-2, 10000, seed),
    ]
    warmup = Run("warmup", prob.key, "sug", 1e-2, z["sug_T"] // 40, seed, M=M)
    return Workload("sug-csv", {prob.key: prob}, [runs], warmup,
                    files={path: "\n".join(lines) + "\n"})


WORKLOADS = {
    "online-battery": online_battery,
    "online-large": online_large,
    "sug-csv": sug_csv,
}
