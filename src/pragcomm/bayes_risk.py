"""Bayes-risk and task-distortion calculators for the supported loss families.

Risks are computed in nats internally (conversion to bits happens only at
presentation).  Closed forms:

* cross entropy: the risk of the exact posterior predictor is the
  conditional entropy of the target;
* L1 under a Gaussian N(mu, sigma^2): sqrt(2/pi) * sigma;
* L1 under a Laplace(mu, b): b, equivalently (1/2) * exp(H - 1) with the
  differential entropy H = log(2b) + 1;
* composite detection risk: summed classification entropies plus weighted
  regression terms.

Monte-Carlo counterparts (``mc_*``) are the independent oracles the closed
forms are verified against.  They draw exactly what the naive forms in
``tests/mc_oracle.py`` draw (the same samples, the same float), only with
fewer passes and one block of draws held at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .infotheory import JointTable, _entropies_nats, conditional_entropy, marginal

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

REGRESSION_KEYS = ("loc", "size", "ori")


@dataclass(frozen=True)
class RiskParams:
    """The weights of the composite detection risk."""

    lambdas: tuple[float, float, float] = (1.0, 1.0, 1.0)  # loc, size, ori weights
    n_obj_mean: float = 0.0

    def __post_init__(self):
        if len(self.lambdas) != 3 or any(
            not math.isfinite(l) or l < 0 for l in self.lambdas
        ):
            raise ValueError("lambdas must be three finite nonnegative weights")
        if not math.isfinite(self.n_obj_mean) or self.n_obj_mean < 0:
            raise ValueError("n_obj_mean must be finite and >= 0")

    def lam(self, key: str) -> float:
        return self.lambdas[REGRESSION_KEYS.index(key)]


@dataclass(frozen=True)
class CellPosterior:
    """Per-cell posterior summary: class pmf plus regression-noise scales."""

    class_pmf: np.ndarray
    reg_sigma: dict = field(default_factory=dict)  # per-key Gaussian sigma

    def __post_init__(self):
        pmf = np.asarray(self.class_pmf, dtype=np.float64)
        if not (np.all(pmf >= 0) and abs(float(pmf.sum()) - 1.0) <= 1e-9):  # NaN fails
            raise ValueError("class_pmf must be a pmf (nonnegative, sum 1 within 1e-9)")
        for sigma in self.reg_sigma.values():
            _check_sigma(sigma)
        object.__setattr__(self, "class_pmf", pmf)

    def class_entropy_nats(self) -> float:
        return float(_entropies_nats(self.class_pmf[None])[0])


def bayes_risk_ce(posterior_table: JointTable, target: str, given: list[str]) -> float:
    """Cross-entropy Bayes risk: the conditional entropy H(target | given) in nats."""
    return conditional_entropy(posterior_table, target, list(given), "nats")


def _check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")


def _check_scale(b: float) -> None:
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"Laplace scale must be finite and > 0, got {b}")


def _check_draws(n: int) -> None:
    if not n >= 1:
        raise ValueError(f"need at least 1 draw, got {n}")


def bayes_risk_l1_gaussian(sigma: float) -> float:
    """Minimum expected |Y - f(X)| when Y | X ~ N(mu, sigma^2)."""
    _check_sigma(sigma)
    return SQRT_2_OVER_PI * sigma


def bayes_risk_l1_laplace(b: float) -> float:
    """Minimum expected |Y - f(X)| when Y | X ~ Laplace(mu, b)."""
    _check_scale(b)
    return float(b)


def laplace_risk_from_entropy(h_nats: float) -> float:
    """The same Laplace L1 risk written through the differential entropy H.

    With H = log(2b) + 1 this equals b, so the two routes must agree.
    """
    return 0.5 * math.exp(h_nats - 1.0)


def bayes_risk_centerpoint(cells: list[CellPosterior], params: RiskParams) -> float:
    """Composite detection risk over a list of cells, in nats.

    Classification entropies are summed over cells; the regression part uses
    one sigma per key (the mean across cells) scaled by the expected object
    count, so a homogeneous map reduces to the single-sigma closed form.
    """
    total = sum(c.class_entropy_nats() for c in cells)
    if params.n_obj_mean > 0 and cells:
        reg = 0.0
        for key in REGRESSION_KEYS:
            missing = [i for i, c in enumerate(cells) if key not in c.reg_sigma]
            if missing:
                raise KeyError(
                    f"regression key {key!r} missing from cells {missing[:5]}"
                )
            sigma = float(np.mean([c.reg_sigma[key] for c in cells]))
            reg += params.lam(key) * sigma
        total += params.n_obj_mean * SQRT_2_OVER_PI * reg
    return float(total)


def pragmatic_distortion(
    table_with_z: JointTable, task: str, params: RiskParams = RiskParams()
) -> float:
    """Increase in Bayes risk from predicting with the message Z instead of
    the raw source X_s, conditioned on the receiver's own X_r.  Nats.

    For ``task="segmentation"`` this is H(Y | Z, X_r) - H(Y | X_s, X_r).
    For ``task="detection"`` each regression key k (a further table axis)
    adds (lambda_k / 2) * (exp(H(k | Z, X_r) - 1) - exp(H(k | X_s, X_r) - 1)).
    A stacked table gives one distortion per table.
    """
    if task not in ("segmentation", "detection"):
        raise ValueError(f"unknown task {task!r}")
    d = (
        conditional_entropy(table_with_z, "Y", ["Z", "X_r"], "nats")
        - conditional_entropy(table_with_z, "Y", ["X_s", "X_r"], "nats")
    )
    if task == "detection":
        # libm's exp per value: numpy's vector exp can differ in the last bit
        exp = np.vectorize(math.exp, otypes=[float])
        for key in REGRESSION_KEYS:
            h_z = conditional_entropy(table_with_z, key, ["Z", "X_r"], "nats")
            h_x = conditional_entropy(table_with_z, key, ["X_s", "X_r"], "nats")
            d += 0.5 * params.lam(key) * (exp(h_z - 1.0) - exp(h_x - 1.0))
    return d if table_with_z.stacked else float(d)


# --- Monte-Carlo oracles ---------------------------------------------------

# Draws are made at most _DRAW_BLOCK at a time, so a block stays in cache and
# no buffer grows with the number of draws; _pairwise_sum needs at least 128.
_DRAW_BLOCK = 1 << 16


def _pairwise_sum(n: int, block) -> np.float64:
    """``np.add.reduce`` of the n values that ``block(m)`` yields m at a
    time, in stream order, without holding them all.

    numpy sums a float64 array pairwise (Higham 1993): a segment longer than
    its 128-value block splits at ``n // 2 - (n // 2) % 8``, left half then
    right half.  Splitting the same way down to segments of at most
    _DRAW_BLOCK and reducing each leaf builds the same tree, so the sum is
    the one the whole array would give, bit for bit.
    """
    if n <= _DRAW_BLOCK:
        return np.add.reduce(block(n))
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(half, block) + _pairwise_sum(n - half, block)


def mc_l1_gaussian(sigma: float, n: int, rng: np.random.Generator) -> float:
    """Sampled E|N(0, sigma^2)|; oracle for bayes_risk_l1_gaussian."""
    _check_sigma(sigma)
    _check_draws(n)
    if sigma == 0:
        return 0.0

    def block(m):
        # rng.normal(0, sigma) draws 0 + sigma * z from these z, so scaling
        # them in place gives its values up to the sign of a zero, which abs
        # drops
        x = rng.standard_normal(m)
        x *= sigma
        return np.abs(x, out=x)

    return float(_pairwise_sum(n, block) / n)


def mc_l1_laplace(b: float, n: int, rng: np.random.Generator) -> float:
    """Sampled E|Laplace(0, b)|; oracle for bayes_risk_l1_laplace."""
    _check_scale(b)
    _check_draws(n)

    def block(m):
        x = rng.laplace(0.0, b, size=m)
        return np.abs(x, out=x)

    return float(_pairwise_sum(n, block) / n)


def mc_ce(
    t: JointTable, target: str, given: list[str], n: int, rng: np.random.Generator
) -> float:
    """Sampled cross entropy of the exact posterior predictor, in nats.

    Draws (target, given) jointly, then scores -log p(target | given); the
    average converges to the conditional entropy.  A draw is the cell
    ``Generator.choice(cells, p=pmf)`` picks from the same uniform: the
    number of cdf entries at or below it, counted in one pass per cell.
    """
    _check_draws(n)
    m = marginal(t, [target] + list(given))
    flat = m.pmf.ravel()
    cdf = flat.cumsum()
    cdf /= cdf[-1]
    tgt_dim = m.index(target)
    cond = (m.pmf / np.maximum(m.pmf.sum(axis=tgt_dim, keepdims=True), 1e-300)).ravel()
    # a cell of probability zero is never drawn: its log is left at 0
    log_cond = np.zeros(flat.size)
    drawn = cond > 0
    log_cond[drawn] = np.log(cond[drawn])
    index = np.min_scalar_type(flat.size - 1)
    # every block is made in the same three buffers: allocating them anew
    # per block cost about 3400 page faults and 4 ms per 10^6 draws
    width = min(n, _DRAW_BLOCK)
    u_buf, draws_buf, above_buf = np.empty(width), np.empty(width, index), np.empty(width, bool)

    def block(size):
        u, draws, above = u_buf[:size], draws_buf[:size], above_buf[:size]
        rng.random(out=u)
        draws.fill(0)
        for c in cdf[:-1]:
            draws += np.greater_equal(u, c, out=above)
        # each draw's log-probability is gathered into its own uniform
        return np.take(log_cond, draws, out=u, mode="clip")

    return float(-(_pairwise_sum(n, block) / n))
