"""Independent reference solutions, written with numpy alone.

Nothing here imports unigrad.  Each problem is rebuilt from its trace
descriptor (the synthetic generators are re-implemented from their
documented recipe, CSV files are read with numpy) and solved:

* lasso and elastic net by proximal gradient with the fixed step 1/L on
  the Gram form, certified by the strong-convexity bound
  f(x) - f* <= ||g||^2 / (2 mu) with g the minimal-norm subgradient;
* Steiner (geometric median) by Weiszfeld's iteration, certified by
  f(x) - f* <= ||g|| * max_i ||x - c_i||, since x* lies in the hull of the
  centers.

Run as a script it reads {key: descriptor} from a JSON file and writes
{key: solution} to another, so the large regenerated data never lives in
the process whose peak memory the benchmark reports:

    python3 benchmarks/refsolve.py problems.json solutions.json
"""

import json
import sys

import numpy as np

CERT_REL = 1e-14
MAX_ITERS = 200000


def synth_lasso_data(p, n, sparsity, noise, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, p))
    x_true = np.zeros(p)
    if sparsity > 0:
        support = rng.choice(p, size=sparsity, replace=False)
        x_true[support] = rng.normal(size=sparsity)
    b = A @ x_true + noise * rng.normal(size=n)
    return A, b


def steiner_centers(p, m, seed):
    return np.random.default_rng(seed).normal(size=(m, p))


def csv_data(path):
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return data[:, 1:], data[:, 0]


def _soft(z, tau):
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def elastic_net_value(A, b, l1, ridge, x):
    r = A @ x - b
    return float(r @ r) / len(b) + l1 * float(np.abs(x).sum()) + 0.5 * ridge * float(x @ x)


def solve_elastic_net(A, b, l1, ridge):
    """min (1/n)||Ax - b||^2 + l1 ||x||_1 + (ridge/2)||x||^2.

    Returns (x, f, cert) with f - cert <= f* <= f."""
    n = len(b)
    G = A.T @ A / n
    c = A.T @ b / n
    eig = np.linalg.eigvalsh(G)
    L = 2.0 * eig[-1] + ridge
    mu = 2.0 * eig[0] + ridge
    if mu <= 0:
        raise ValueError("objective is not strongly convex; no certificate")
    x = np.zeros(A.shape[1])
    for _ in range(MAX_ITERS):
        x = _soft(x - (2.0 * (G @ x - c) + ridge * x) / L, l1 / L)
        grad = 2.0 * (G @ x - c) + ridge * x
        g = np.where(x != 0, grad + l1 * np.sign(x),
                     np.sign(grad) * np.maximum(np.abs(grad) - l1, 0.0))
        f = elastic_net_value(A, b, l1, ridge, x)
        cert = float(g @ g) / (2.0 * mu)
        if cert <= CERT_REL * (1.0 + abs(f)):
            return x, f, cert
    raise RuntimeError(f"elastic net: certificate {cert:.3e} not reached")


def steiner_value(C, x):
    return float(np.linalg.norm(C - x, axis=1).mean())


def _steiner_min_subgradient(C, x):
    d = x - C
    norms = np.linalg.norm(d, axis=1)
    at = norms == 0
    g = (d[~at] / norms[~at, None]).sum(axis=0) / len(C)
    if at.any():  # each coincident center adds the unit ball / m
        gn = float(np.linalg.norm(g))
        radius = at.sum() / len(C)
        g = g * max(0.0, gn - radius) / gn if gn > 0 else g
    return g


def solve_steiner(C):
    """Weiszfeld from the centroid.  Returns (x, f, cert)."""
    x = C.mean(axis=0)
    best = None
    for _ in range(MAX_ITERS):
        norms = np.linalg.norm(C - x, axis=1)
        if (norms == 0).any():
            x_next = x  # at a center: the certificate decides optimality
        else:
            w = 1.0 / norms
            x_next = (w[:, None] * C).sum(axis=0) / w.sum()
        g = _steiner_min_subgradient(C, x_next)
        f = steiner_value(C, x_next)
        cert = float(np.linalg.norm(g)) * float(np.linalg.norm(C - x_next, axis=1).max())
        if best is None or cert < best[2]:
            best = (x_next, f, cert)
        if cert <= CERT_REL * (1.0 + abs(f)) or np.array_equal(x_next, x):
            break
        x = x_next
    return best


def solve(desc: dict) -> dict:
    """Solution of one descriptor with what the checks need."""
    kind = desc["kind"]
    if kind == "steiner":
        C = steiner_centers(desc["p"], desc["m"], desc["seed"])
        x, f, cert = solve_steiner(C)
        comp_star = np.linalg.norm(C - x, axis=1)
        return {"x_star": x.tolist(), "f_star": f, "cert": cert, "h_star": 0.0,
                "comp_star": comp_star.tolist(), "v": 0.0, "Mv": 2.0,
                "n": len(C), "f_x0": steiner_value(C, np.zeros(C.shape[1])),
                "mu_h": 0.0}
    if kind == "synth-lasso":
        A, b = synth_lasso_data(desc["p"], desc["n"], desc["sparsity"], desc["noise"],
                                desc["seed"])
    elif kind == "lasso-csv":
        A, b = csv_data(desc["path"])
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    l1, ridge = float(desc.get("mu", 0.0)), float(desc.get("ridge", 0.0))
    x, f, cert = solve_elastic_net(A, b, l1, ridge)
    comp_star = (A @ x - b) ** 2
    return {"x_star": x.tolist(), "f_star": f, "cert": cert,
            "h_star": l1 * float(np.abs(x).sum()) + 0.5 * ridge * float(x @ x),
            "comp_star": comp_star.tolist(), "v": 1.0,
            "Mv": float(2.0 * (A * A).sum(axis=1).max()), "n": len(b),
            "f_x0": elastic_net_value(A, b, l1, ridge, np.zeros(A.shape[1])),
            "mu_h": ridge}


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: refsolve.py PROBLEMS_JSON SOLUTIONS_JSON", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        problems = json.load(fh)
    solutions = {key: solve(desc) for key, desc in problems.items()}
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(solutions, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
