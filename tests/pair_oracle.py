"""The discriminator's pair batch as ``train_all`` built it before its stages.

Kept as a test oracle: drawing one threshold per scene with a scalar
``rng.choice`` and then calling ``pragcomm.pipeline.pair_batch`` must give
the same draws, the same ``PairBatch`` bit for bit and the same final
``rng`` state as ``pair_batch`` below.  That is the nested per-(world, pair)
loop with its two list accumulators, its two ``np.concatenate`` calls and
its separate emptiness test.
"""

from __future__ import annotations

import itertools

import numpy as np

from pragcomm import mi_estimator as mie


def pair_batch(cb, base_idx, feats, conf, tau_c_choices, rng):
    """Returns the batch and the per-scene threshold draws."""
    n_agents = conf.shape[1]
    joint_s, joint_r, tau_draws = [], [], []
    for wi in range(len(conf)):
        for s, r in itertools.permutations(range(n_agents), 2):
            tau_draws.append(float(rng.choice(tau_c_choices)))
            # conf, not the deployment gate: the gate drops criterion 7 to 13/20 seeds
            sel = conf[wi, s] > tau_draws[-1]
            joint_s.append(cb.base.embeddings[base_idx[wi, s][sel]])
            joint_r.append(feats[wi, r][sel])
    s_arr = np.concatenate(joint_s, axis=0)
    r_arr = np.concatenate(joint_r, axis=0)
    if len(s_arr) == 0:
        raise ValueError(
            "no training cell's confidence exceeds its [train] tau_c_choices "
            "draw; lower those thresholds or raise [world] density"
        )
    return mie.make_batch(s_arr, r_arr, rng), tau_draws
