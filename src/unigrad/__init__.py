"""Universal gradient methods for composite convex problems.

Online primal (upgm) and dual (udgm) variants with modulus line search,
a stochastic surrogate method (sug) with linear convergence under strong
regularizer convexity, and an experiment harness that verifies the
aggregate regret and convergence bounds on recorded traces.  Import the
names from their submodules, e.g. `from unigrad.upgm import upgm_run`.
"""

__version__ = "0.1.0"
