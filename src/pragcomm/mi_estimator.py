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
gradients can be checked against finite differences.  A batch holds one
row per sample.  A step merges both sides into their distinct rows, the
only place rows are deduplicated, and each row carries its share of each
side's samples, zero for a side that lacks it: the same loss and gradient
as the means over the two stacked sides.  ``configs/small.cfg``'s batch
holds 5490 samples per side, merged into 2160 rows per step.  Every pass
computes in the dtype of the net's weights: the rows, the normalized side
weights and every layer buffer are cast to it.  ``init_discriminator``
gives float64, the dtype of the finite-difference checks, of scoring and
of the saved files.  ``pipeline.train_all`` trains a float32 copy: the
steps are almost all of a training run, and a float32 step is faster than
a float64 one, as both the matrix products and the elementwise passes move
half the bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio, vq

TWO_LN2 = 2.0 * math.log(2.0)


@dataclass
class Discriminator:
    """Fully connected scorer: input 2c -> hidden layers (ReLU) -> scalar."""

    weights: list  # list of (W, b) pairs, W as (out, in)

    @property
    def dtype(self) -> np.dtype:
        """The dtype every pass through the net computes in: its weights'."""
        return self.weights[0][0].dtype

    def astype(self, dtype) -> Discriminator:
        return Discriminator([(w.astype(dtype), b.astype(dtype)) for w, b in self.weights])


@dataclass
class PairBatch:
    """Co-located pairs (joint samples) plus recombined pairs (marginals),
    one row per sample."""

    joint_pairs: np.ndarray  # (n_j, 2c)
    marginal_pairs: np.ndarray  # (n_m, 2c)

    def __post_init__(self):
        self.joint_pairs = np.asarray(self.joint_pairs, dtype=np.float64)
        self.marginal_pairs = np.asarray(self.marginal_pairs, dtype=np.float64)
        j, m = self.joint_pairs.shape, self.marginal_pairs.shape
        if not (len(j) == len(m) == 2 and j[1] == m[1]):
            raise ValueError(f"joint and marginal pairs must be 2-D, one width: got {j} and {m}")
        if len(self.joint_pairs) == 0 or len(self.marginal_pairs) == 0:
            raise ValueError("both joint and marginal pairs must be nonempty")


def make_batch(
    s: np.ndarray, r: np.ndarray, rng: np.random.Generator
) -> PairBatch:
    """Joint pairs by position, marginal pairs by shuffling r within the
    batch; the only random draw is the one permutation of r."""
    s = np.asarray(s, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if s.shape != r.shape:
        raise ValueError("s and r must align")
    perm = rng.permutation(len(r))
    return PairBatch(np.concatenate([s, r], axis=1), np.concatenate([s, r[perm]], axis=1))


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


def _forward(d: Discriminator, x: np.ndarray, out=None):
    """Returns (scores, each layer's input for backprop).

    Layer i writes its output into ``out[i]`` (fresh arrays when ``out`` is
    None); hidden layers apply the ReLU in place.
    """
    a = x = np.asarray(x, dtype=d.dtype)
    if out is None:
        out = [np.empty((len(x), w.shape[0]), d.dtype) for w, _ in d.weights]
    for i, ((w, b), z) in enumerate(zip(d.weights, out)):
        np.matmul(a, w.T, out=z)
        np.add(z, b, out=z)
        if i < len(d.weights) - 1:
            np.maximum(z, 0.0, out=z)
        a = z
    return a[:, 0], [x] + out[:-1]


def score(d: Discriminator, x: np.ndarray) -> np.ndarray:
    """Raw discriminator outputs for rows of x."""
    return _forward(d, x)[0]


def _backward(d: Discriminator, acts, dscore: np.ndarray, masks):
    """Parameter gradients; overwrites each hidden activation with its delta.

    The ReLU mask ``act > 0`` equals ``pre > 0``; it is written into the
    bool buffer ``masks[i]`` of hidden layer i.
    """
    grads = [None] * len(d.weights)
    delta = dscore[:, None]
    for i in range(len(d.weights) - 1, -1, -1):
        w, _ = d.weights[i]
        a = acts[i]
        grads[i] = (delta.T @ a, delta.sum(axis=0))
        if i > 0:
            np.greater(a, 0.0, out=masks[i - 1])
            if delta.shape[1] == 1:  # the scalar output layer: an outer product
                np.multiply(delta, w, out=a)
            else:
                np.matmul(delta, w, out=a)
            np.multiply(a, masks[i - 1], out=a)
            delta = a
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


def _side_weights(inverse: np.ndarray, n: int) -> np.ndarray:
    """Each merged row's share of one side's samples; zero on a row the
    side does not hold."""
    return np.bincount(inverse, minlength=n) / len(inverse)


def _workspace(d: Discriminator, batch: PairBatch):
    """What every step on ``batch`` reuses: the distinct rows of both sides,
    each side's weights on them, an output buffer per layer and a ReLU mask
    buffer per hidden layer.  All but the masks are in the net's dtype; the
    side weights are counted and normalized in float64 first.
    """
    rows = np.concatenate([batch.joint_pairs, batch.marginal_pairs], dtype=d.dtype)
    rows, inverse = vq.unique_rows(rows)
    n_j = len(batch.joint_pairs)
    pj = _side_weights(inverse[:n_j], len(rows)).astype(d.dtype)
    pm = _side_weights(inverse[n_j:], len(rows)).astype(d.dtype)
    out = [np.empty((len(rows), w.shape[0]), d.dtype) for w, _ in d.weights]
    masks = [np.empty(z.shape, dtype=bool) for z in out[:-1]]
    return rows, pj, pm, out, masks


def _loss_terms(d: Discriminator, work):
    """The loss, its gradient w.r.t. each score, and the layer inputs."""
    rows, pj, pm, out, _ = work
    t, acts = _forward(d, rows, out)
    loss = float(pj @ _softplus(-t) + pm @ _softplus(t))
    dscore = pm * _sigmoid(t) - pj * _sigmoid(-t)
    return loss, dscore, acts


def loss_and_grads(d: Discriminator, batch: PairBatch, _work=None):
    """Binary discrimination loss and its parameter gradients.

    loss = -sum_j p_j log sigmoid(T_j) - sum_m p_m log(1 - sigmoid(T_m)),
    where p is a row's share of its side's samples, so each sum is a plain
    mean over that side; at T = 0 everywhere this equals 2 ln 2.  Both sums
    run over the distinct rows of both sides, each side's share zero where
    it lacks the row, so one backward pass over those rows gives the
    gradients, which are fresh arrays even when ``_work`` (``train``'s
    workspace) is reused.
    """
    work = _workspace(d, batch) if _work is None else _work
    loss, dscore, acts = _loss_terms(d, work)
    return loss, _backward(d, acts, dscore, work[-1])


def train_step(
    d: Discriminator, batch: PairBatch, lr: float, _work=None
) -> tuple[Discriminator, float]:
    """One full-batch gradient step in the net's dtype; returns the loss
    before the step."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    loss, grads = loss_and_grads(d, batch, _work)
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
    work = _workspace(d, batch)  # allocated once, overwritten by every step
    # a diverging run overflows on its way to the non-finite update that
    # train_step reports as RuntimeError; the warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            d, loss = train_step(d, batch, lr, _work=work)
            losses.append(loss)
    return d, losses


def mi_lower_bound(d: Discriminator, batch: PairBatch) -> float:
    """Shifted GAN objective in nats: 0 at independence, at most 2 ln 2.

    This is twice the Jensen-Shannon divergence between the joint and the
    product of marginals at the optimal scorer; a lower-bound-style score,
    not an unbiased mutual-information estimate.
    """
    return float(TWO_LN2 - _loss_terms(d, _workspace(d, batch))[0])


def mi_score(d: Discriminator, batch: PairBatch) -> float:
    """Mean raw score over joint pairs, in nats.

    The optimal scorer is the pointwise log-density ratio when joint and
    marginal batches are weighted equally, so this average estimates the
    mutual information directly.
    """
    return float(score(d, batch.joint_pairs).mean())


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
    """Write the layers as arrays ``w0 b0 w1 b1 ...`` (W as (out, in))."""
    arrays = {}
    for i, (w, b) in enumerate(d.weights):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    textio.save_arrays(path, arrays)


def load_discriminator(path: str) -> Discriminator:
    arrays = textio.load_arrays(path)
    n_layers = len(arrays) // 2
    if not n_layers or list(arrays) != [f"{p}{i}" for i in range(n_layers) for p in "wb"]:
        raise ValueError(f"{path}: expected arrays w0 b0 w1 b1 ..., found {list(arrays)}")
    weights = [(arrays[f"w{i}"], arrays[f"b{i}"]) for i in range(n_layers)]
    dims = [w.shape[-1] for w, _ in weights] + [1]  # each layer's input, then the score
    for (w, b), din, dout in zip(weights, dims, dims[1:]):
        if w.shape != (dout, din) or b.shape != (dout,):
            raise ValueError(f"{path}: layer shapes do not chain into one output")
    return Discriminator(weights)
