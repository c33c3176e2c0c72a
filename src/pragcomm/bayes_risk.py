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

Monte-Carlo counterparts (``mc_*``) are kept deliberately naive; they are the
independent oracles the closed forms are verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .infotheory import JointTable, _entropies_nats, conditional_entropy, marginal

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

REGRESSION_KEYS = ("loc", "size", "ori")
LOSS_FAMILIES = ("cross_entropy", "l1_gaussian", "l1_laplace", "centerpoint")


@dataclass(frozen=True)
class RiskParams:
    """Loss family plus the weights of the composite detection risk."""

    loss_family: str = "cross_entropy"
    lambdas: tuple[float, float, float] = (1.0, 1.0, 1.0)  # loc, size, ori weights
    n_obj_mean: float = 0.0

    def __post_init__(self):
        if self.loss_family not in LOSS_FAMILIES:
            raise ValueError(f"unknown loss family {self.loss_family!r}")
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
    reg_entropy: dict = field(default_factory=dict)  # per-key entropy, nats
    reg_sigma: dict = field(default_factory=dict)  # per-key Gaussian sigma
    reg_b: dict = field(default_factory=dict)  # per-key Laplace scale

    def __post_init__(self):
        pmf = np.asarray(self.class_pmf, dtype=np.float64)
        if not (np.all(pmf >= 0) and abs(float(pmf.sum()) - 1.0) <= 1e-9):  # NaN fails
            raise ValueError("class_pmf must be a pmf (nonnegative, sum 1 within 1e-9)")
        if any(v < 0 for v in self.reg_sigma.values()):
            raise ValueError("reg_sigma entries must be nonnegative")
        if any(v <= 0 for v in self.reg_b.values()):
            raise ValueError("reg_b entries must be positive")
        object.__setattr__(self, "class_pmf", pmf)

    def class_entropy_nats(self) -> float:
        return float(_entropies_nats(self.class_pmf[None])[0])


def bayes_risk_ce(posterior_table: JointTable, target: str, given: list[str]) -> float:
    """Cross-entropy Bayes risk: the conditional entropy H(target | given) in nats."""
    return conditional_entropy(posterior_table, target, list(given), "nats").value


def bayes_risk_l1_gaussian(sigma: float) -> float:
    """Minimum expected |Y - f(X)| when Y | X ~ N(mu, sigma^2)."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return SQRT_2_OVER_PI * sigma


def bayes_risk_l1_laplace(b: float) -> float:
    """Minimum expected |Y - f(X)| when Y | X ~ Laplace(mu, b)."""
    if b <= 0:
        raise ValueError(f"Laplace scale must be > 0, got {b}")
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
    if params.loss_family != "centerpoint":
        raise ValueError("params.loss_family must be 'centerpoint'")
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
    table_with_z: JointTable, task: str, params: RiskParams | None = None
) -> float:
    """Increase in Bayes risk from predicting with the message Z instead of
    the raw source X_s, conditioned on the receiver's own X_r.  Nats.

    For ``task="segmentation"`` this is H(Y | Z, X_r) - H(Y | X_s, X_r).
    For ``task="detection"`` each regression key k (a further table axis)
    adds (lambda_k / 2) * (exp(H(k | Z, X_r) - 1) - exp(H(k | X_s, X_r) - 1)).
    """
    if task not in ("segmentation", "detection"):
        raise ValueError(f"unknown task {task!r}")
    d = (
        conditional_entropy(table_with_z, "Y", ["Z", "X_r"], "nats").value
        - conditional_entropy(table_with_z, "Y", ["X_s", "X_r"], "nats").value
    )
    if task == "detection":
        if params is None:
            params = RiskParams(loss_family="centerpoint")
        for key in REGRESSION_KEYS:
            h_z = conditional_entropy(table_with_z, key, ["Z", "X_r"], "nats").value
            h_x = conditional_entropy(table_with_z, key, ["X_s", "X_r"], "nats").value
            d += 0.5 * params.lam(key) * (math.exp(h_z - 1.0) - math.exp(h_x - 1.0))
    return float(d)


# --- Monte-Carlo oracles ---------------------------------------------------


def mc_l1_gaussian(sigma: float, n: int, rng: np.random.Generator) -> float:
    """Sampled E|N(0, sigma^2)|; oracle for bayes_risk_l1_gaussian."""
    return float(np.abs(rng.normal(0.0, sigma, size=n)).mean()) if sigma > 0 else 0.0


def mc_l1_laplace(b: float, n: int, rng: np.random.Generator) -> float:
    """Sampled E|Laplace(0, b)|; oracle for bayes_risk_l1_laplace."""
    return float(np.abs(rng.laplace(0.0, b, size=n)).mean())


def mc_ce(
    t: JointTable, target: str, given: list[str], n: int, rng: np.random.Generator
) -> float:
    """Sampled cross entropy of the exact posterior predictor, in nats.

    Draws (target, given) jointly, then scores -log p(target | given); the
    average converges to the conditional entropy.
    """
    m = marginal(t, [target] + list(given))
    flat = m.pmf.ravel()
    draws = rng.choice(flat.size, size=n, p=flat)
    idx = np.unravel_index(draws, m.pmf.shape)
    tgt_dim = m.index(target)
    cond = m.pmf / np.maximum(m.pmf.sum(axis=tgt_dim, keepdims=True), 1e-300)
    return float(-np.log(cond[idx]).mean())
