"""GAN-style mutual-information discriminator over feature pairs.

A small fully connected net T(s, r) is trained to separate co-located
feature pairs (samples of the joint distribution) from randomly recombined
pairs (samples of the product of marginals).  At the optimum the sigmoid of
the score equals p_joint / (p_joint + p_marginal), i.e. the raw score
approaches the pointwise log-density ratio, which makes it a per-cell
redundancy measure: high score = the receiver likely already has this.

Two scalar summaries are exposed:

* ``mi_lower_bound`` -- the shifted GAN objective (a Jensen-Shannon-style
  score that is 0 at independence and capped at 2 ln 2); a diagnostic, not
  an unbiased mutual-information estimate.
* ``mi_score`` -- the mean raw score over joint pairs; since the optimal
  score is the log-density ratio, this estimates the mutual information
  itself and is the value compared against the exact plug-in oracle.

Everything is plain numpy with explicit full-batch gradient descent so the
gradients can be checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_LN2 = 2.0 * math.log(2.0)


@dataclass
class Discriminator:
    """Fully connected scorer: input 2c -> hidden layers (ReLU) -> scalar."""

    weights: list  # list of (W, b) pairs, W as (out, in)

    @property
    def in_dim(self) -> int:
        return self.weights[0][0].shape[1]

    def copy(self) -> "Discriminator":
        return Discriminator([(w.copy(), b.copy()) for w, b in self.weights])


@dataclass
class PairBatch:
    """Co-located pairs (joint samples) plus recombined pairs (marginals).

    Each row carries a weight: the number of samples it stands for (ones by
    default).  Every average over a side is weighted, so a batch with
    repeated rows and its distinct rows weighted by their counts give the
    same loss, gradients and scores.
    """

    joint_pairs: np.ndarray  # (n_j, 2c)
    marginal_pairs: np.ndarray  # (n_m, 2c)
    joint_weights: np.ndarray | None = None  # (n_j,) positive, default ones
    marginal_weights: np.ndarray | None = None  # (n_m,) positive, default ones

    def __post_init__(self):
        self.joint_pairs = np.asarray(self.joint_pairs, dtype=np.float64)
        self.marginal_pairs = np.asarray(self.marginal_pairs, dtype=np.float64)
        if len(self.joint_pairs) == 0 or len(self.marginal_pairs) == 0:
            raise ValueError("both joint and marginal pairs must be nonempty")
        self.joint_weights = _check_weights(
            self.joint_weights, len(self.joint_pairs), "joint"
        )
        self.marginal_weights = _check_weights(
            self.marginal_weights, len(self.marginal_pairs), "marginal"
        )


def _check_weights(weights, n: int, side: str) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"{side}_weights must have shape ({n},), got {weights.shape}")
    # a NaN fails the comparison; an infinite entry or sum fails isfinite
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not (np.all(weights > 0) and np.isfinite(total)):
        raise ValueError(f"{side}_weights must be finite and positive")
    return weights


def _distinct_rows(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, counts = np.unique(pairs, axis=0, return_counts=True)
    return rows, counts.astype(np.float64)


def make_batch(
    s: np.ndarray, r: np.ndarray, rng: np.random.Generator
) -> PairBatch:
    """Joint pairs by position, marginal pairs by shuffling r within the batch.

    Each side is stored as its distinct rows weighted by their counts, which
    leaves every weighted average unchanged; the only random draw is the one
    permutation of r.
    """
    s = np.asarray(s, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if s.shape != r.shape:
        raise ValueError("s and r must align")
    perm = rng.permutation(len(r))
    joint, joint_w = _distinct_rows(np.concatenate([s, r], axis=1))
    marginal, marginal_w = _distinct_rows(np.concatenate([s, r[perm]], axis=1))
    return PairBatch(joint, marginal, joint_w, marginal_w)


def init_discriminator(
    pair_dim: int, hidden: int = 64, n_hidden: int = 2, seed: int = 0
) -> Discriminator:
    """He-initialized net with ``n_hidden`` ReLU layers of width ``hidden``."""
    rng = np.random.default_rng(seed)
    dims = [pair_dim] + [hidden] * n_hidden + [1]
    weights = []
    for din, dout in zip(dims, dims[1:]):
        w = rng.normal(scale=math.sqrt(2.0 / din), size=(dout, din))
        weights.append((w, np.zeros(dout)))
    return Discriminator(weights)


def _forward(d: Discriminator, x: np.ndarray):
    """Returns (scores, activation stack for backprop)."""
    acts = [np.asarray(x, dtype=np.float64)]
    pre = []
    a = acts[0]
    for i, (w, b) in enumerate(d.weights):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(d.weights) - 1 else z
        acts.append(a)
    return acts[-1][:, 0], (acts, pre)


def score(d: Discriminator, x: np.ndarray) -> np.ndarray:
    """Raw discriminator outputs for rows of x."""
    return _forward(d, x)[0]


def _backward(d: Discriminator, cache, dscore: np.ndarray):
    acts, pre = cache
    grads = [None] * len(d.weights)
    delta = dscore[:, None]
    for i in range(len(d.weights) - 1, -1, -1):
        w, _ = d.weights[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w) * (pre[i - 1] > 0)
    return grads


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _loss_terms(d: Discriminator, batch: PairBatch):
    """Weighted loss, its gradient w.r.t. each score, and the forward cache.

    Joint and marginal rows go through one stacked forward pass.
    """
    n_j = len(batch.joint_pairs)
    t, cache = _forward(d, np.concatenate([batch.joint_pairs, batch.marginal_pairs]))
    tj, tm = t[:n_j], t[n_j:]
    pj = batch.joint_weights / batch.joint_weights.sum()
    pm = batch.marginal_weights / batch.marginal_weights.sum()
    loss = float(pj @ _softplus(-tj) + pm @ _softplus(tm))
    dscore = np.concatenate([-pj * _sigmoid(-tj), pm * _sigmoid(tm)])
    return loss, dscore, cache


def loss_and_grads(d: Discriminator, batch: PairBatch):
    """Binary discrimination loss and its parameter gradients.

    loss = -sum_j p_j log sigmoid(T_j) - sum_m p_m log(1 - sigmoid(T_m)),
    where p are each side's weights normalized to sum to one (plain means
    for unit weights); at T = 0 everywhere this equals 2 ln 2.  One
    backward pass over the stacked rows gives the gradients.
    """
    loss, dscore, cache = _loss_terms(d, batch)
    return loss, _backward(d, cache, dscore)


def train_step(
    d: Discriminator, batch: PairBatch, lr: float
) -> tuple[Discriminator, float]:
    """One full-batch gradient step; returns the loss before the step."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    loss, grads = loss_and_grads(d, batch)
    new_weights = []
    for (w, b), (gw, gb) in zip(d.weights, grads):
        nw = w - lr * gw
        nb = b - lr * gb
        if not (np.all(np.isfinite(nw)) and np.all(np.isfinite(nb))):
            raise RuntimeError(
                f"non-finite parameters after update (layer {len(new_weights)}, "
                f"lr={lr}, loss={loss}); lower the learning rate"
            )
        new_weights.append((nw, nb))
    return Discriminator(new_weights), loss


def train(
    d: Discriminator, batch: PairBatch, steps: int, lr: float
) -> tuple[Discriminator, list[float]]:
    losses = []
    for _ in range(steps):
        d, loss = train_step(d, batch, lr)
        losses.append(loss)
    return d, losses


def mi_lower_bound(d: Discriminator, batch: PairBatch) -> float:
    """Shifted GAN objective in nats: 0 at independence, at most 2 ln 2.

    This is twice the Jensen-Shannon divergence between the joint and the
    product of marginals at the optimal scorer; a lower-bound-style score,
    not an unbiased mutual-information estimate.
    """
    return float(TWO_LN2 - _loss_terms(d, batch)[0])


def mi_score(d: Discriminator, batch: PairBatch) -> float:
    """Weighted mean raw score over joint pairs, in nats.

    The optimal scorer is the pointwise log-density ratio when joint and
    marginal batches are weighted equally, so this average estimates the
    mutual information directly.
    """
    w = batch.joint_weights
    return float(w @ score(d, batch.joint_pairs) / w.sum())


def redundancy_map(
    d: Discriminator, abstract: np.ndarray, local: np.ndarray
) -> np.ndarray:
    """Per-cell raw score T(abstract[u, v], local[u, v]); higher = more redundant."""
    abstract = np.asarray(abstract, dtype=np.float64)
    local = np.asarray(local, dtype=np.float64)
    if abstract.shape != local.shape:
        raise ValueError(f"grid shapes differ: {abstract.shape} vs {local.shape}")
    h, w, c = abstract.shape
    pairs = np.concatenate(
        [abstract.reshape(h * w, c), local.reshape(h * w, c)], axis=1
    )
    return score(d, pairs).reshape(h, w)


def select_mask(rmap: np.ndarray, tau_mi: float) -> np.ndarray:
    """Redundancy-less selection: keep cells scoring strictly below tau_mi."""
    return np.asarray(rmap) < tau_mi


# --- checkpoint format -----------------------------------------------------


def save_discriminator(d: Discriminator, path: str) -> None:
    lines = [" ".join(str(w.shape[0]) for w, _ in d.weights)]
    lines.append(str(d.in_dim))
    for w, b in d.weights:
        for row in w:
            lines.append(" ".join(format(v, ".17g") for v in row))
        lines.append(" ".join(format(v, ".17g") for v in b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_discriminator(path: str) -> Discriminator:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    outs = [int(x) for x in lines[0].split()]
    in_dim = int(lines[1])
    dims = [in_dim] + outs
    pos = 2
    weights = []
    for din, dout in zip(dims, dims[1:]):
        w = np.array([[float(v) for v in lines[pos + r].split()] for r in range(dout)])
        pos += dout
        b = np.array([float(v) for v in lines[pos].split()])
        pos += 1
        if w.shape != (dout, din) or b.shape != (dout,):
            raise ValueError(f"{path}: layer shape mismatch")
        weights.append((w, b))
    return Discriminator(weights)
