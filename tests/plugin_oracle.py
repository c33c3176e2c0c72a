"""The exact plug-in target of a discriminator's pair batch.

The discriminator's optimal score is the pointwise log-density ratio
log p(s, r) / (p(s) p(r)), and its mean over the joint side is the mutual
information.  On a batch both are exact to compute, because the joint
side is a finite set of samples: p(s, r) is the share of the samples
equal to a row, and p(s) and p(r) are the shares of the samples with its
abstract half or its receiver half.
"""

from __future__ import annotations

import numpy as np

from pragcomm.mi_estimator import PairBatch


def _group_sums(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per row, the total of ``p`` over the rows equal to it."""
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return np.bincount(inverse, weights=p)[inverse]


def plugin_target(batch: PairBatch) -> tuple[float, np.ndarray]:
    """Plug-in I(S; R) in nats and the PMI of each joint row.

    S is the first half of a joint row and R the second; every sample has
    the same share.
    """
    rows = batch.joint_pairs
    c = rows.shape[1] // 2
    p = np.full(len(rows), 1 / len(rows))
    p_sr, p_s, p_r = (_group_sums(x, p) for x in (rows, rows[:, :c], rows[:, c:]))
    pmi = np.log(p_sr) - np.log(p_s) - np.log(p_r)
    return float(p @ pmi), pmi
