"""The allocating discriminator step, and the stacked-rows maths it replaced.

Kept as test oracles.  ``pragcomm.mi_estimator.train`` must give the same
losses and weights, compared with ``==``, as ``train`` below.  Every layer
allocates fresh pre-activation, activation and delta arrays, and every
step merges the joint and marginal samples again with ``np.unique`` and
counts each side's samples on the merged rows with ``np.add.at``.
``stacked_loss_and_grads`` is the step before the merge: both sides stacked
as they come, each a plain mean over its samples.  Its loss and gradients
equal the merged ones in exact arithmetic.  Both compute in the dtype of
the net's weights, as the package does: the rows and the side weights are
cast to it.  They share the ``Discriminator`` and ``PairBatch`` types and
the softplus and sigmoid helpers with the package.
"""

from __future__ import annotations

import numpy as np

from pragcomm.mi_estimator import Discriminator, PairBatch, _sigmoid, _softplus


def _forward(d: Discriminator, x: np.ndarray):
    acts = [np.asarray(x, dtype=d.weights[0][0].dtype)]
    pre = []
    a = acts[0]
    for i, (w, b) in enumerate(d.weights):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(d.weights) - 1 else z
        acts.append(a)
    return acts[-1][:, 0], (acts, pre)


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


def merged_rows(batch: PairBatch, dtype):
    """The distinct rows of both sides in the net's dtype, and each row's
    share of each side's samples, zero where the side lacks the row."""
    stacked = np.concatenate([batch.joint_pairs, batch.marginal_pairs]).astype(dtype)
    rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n_j = len(batch.joint_pairs)
    sides = []
    for idx in (inverse[:n_j], inverse[n_j:]):
        p = np.zeros(len(rows))
        np.add.at(p, idx, 1.0)
        sides.append((p / len(idx)).astype(dtype))
    return rows, *sides


def loss_and_grads(d: Discriminator, batch: PairBatch):
    rows, pj, pm = merged_rows(batch, d.weights[0][0].dtype)
    t, cache = _forward(d, rows)
    loss = float(pj @ _softplus(-t) + pm @ _softplus(t))
    dscore = pm * _sigmoid(t) - pj * _sigmoid(-t)
    return loss, _backward(d, cache, dscore)


def stacked_loss_and_grads(d: Discriminator, batch: PairBatch):
    n_j = len(batch.joint_pairs)
    t, cache = _forward(d, np.concatenate([batch.joint_pairs, batch.marginal_pairs]))
    tj, tm = t[:n_j], t[n_j:]
    pj = np.full(n_j, 1 / n_j, dtype=t.dtype)
    pm = np.full(len(tm), 1 / len(tm), dtype=t.dtype)
    loss = float(pj @ _softplus(-tj) + pm @ _softplus(tm))
    dscore = np.concatenate([-pj * _sigmoid(-tj), pm * _sigmoid(tm)])
    return loss, _backward(d, cache, dscore)


def train_step(
    d: Discriminator, batch: PairBatch, lr: float
) -> tuple[Discriminator, float]:
    loss, grads = loss_and_grads(d, batch)
    new_weights = []
    for (w, b), (gw, gb) in zip(d.weights, grads):
        nw = w - lr * gw
        nb = b - lr * gb
        if not (np.all(np.isfinite(nw)) and np.all(np.isfinite(nb))):
            raise RuntimeError("non-finite parameters after update")
        new_weights.append((nw, nb))
    return Discriminator(new_weights), loss


def train(
    d: Discriminator, batch: PairBatch, steps: int, lr: float
) -> tuple[Discriminator, list[float]]:
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            d, loss = train_step(d, batch, lr)
            losses.append(loss)
    return d, losses
