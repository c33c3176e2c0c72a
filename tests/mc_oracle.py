"""The Monte-Carlo risk oracles as they were before their draws were cut to
one pass per cell and made one block at a time.

Kept as a test oracle: ``pragcomm.bayes_risk.mc_ce``, ``mc_l1_gaussian``
and ``mc_l1_laplace`` must return the same float as these functions from
the same generator state.  They draw all n samples in one call, sample
through ``Generator.choice``, take ``|x|`` into a new array and average it
with ``mean``, which is the plain reading of each estimator; the package
draws and sums one block at a time in numpy's own pairwise order.
"""

from __future__ import annotations

import numpy as np

from pragcomm.infotheory import JointTable, marginal


def mc_l1_gaussian(sigma: float, n: int, rng: np.random.Generator) -> float:
    """Sampled E|N(0, sigma^2)|."""
    return float(np.abs(rng.normal(0.0, sigma, size=n)).mean()) if sigma > 0 else 0.0


def mc_l1_laplace(b: float, n: int, rng: np.random.Generator) -> float:
    """Sampled E|Laplace(0, b)|."""
    return float(np.abs(rng.laplace(0.0, b, size=n)).mean())


def mc_ce(
    t: JointTable, target: str, given: list[str], n: int, rng: np.random.Generator
) -> float:
    """Sampled cross entropy of the exact posterior predictor, in nats."""
    m = marginal(t, [target] + list(given))
    flat = m.pmf.ravel()
    draws = rng.choice(flat.size, size=n, p=flat)
    tgt_dim = m.index(target)
    cond = m.pmf / np.maximum(m.pmf.sum(axis=tgt_dim, keepdims=True), 1e-300)
    return float(-np.log(cond.ravel()[draws]).mean())
