"""Train the pairwise discriminator and read mutual information off it.

Pairs drawn co-located (joint) versus randomly recombined (marginals) give
the discriminator a density ratio to learn; its mean raw score over joint
pairs estimates the mutual information, checked against the exact plug-in
value from the empirical table.
"""

import numpy as np

from pragcomm.infotheory import mutual_information, plugin_from_samples
from pragcomm.mi_estimator import (
    init_discriminator,
    make_batch,
    mi_lower_bound,
    mi_score,
    select_mask,
    train,
)


def one_hot(symbols, k=4):
    out = np.zeros((len(symbols), k))
    out[np.arange(len(symbols)), symbols] = 1.0
    return out


rng = np.random.default_rng(0)
print(f"{'pair distribution':<24} {'plug-in MI':>11} {'score':>8} {'js bound':>9}")
for name, flip_prob in (("identical", 0.0), ("noisy copy", 0.3), ("independent", 0.75)):
    s_sym = rng.integers(4, size=4096)
    flips = rng.uniform(size=4096) < flip_prob
    r_sym = np.where(flips, rng.integers(4, size=4096), s_sym)
    batch = make_batch(one_hot(s_sym), one_hot(r_sym), rng)
    d = init_discriminator(8, hidden=32, seed=1)
    d, _ = train(d, batch, steps=500, lr=0.5)
    plug = mutual_information(
        plugin_from_samples(list(zip(s_sym, r_sym)), [("S", 4), ("R", 4)]), "S", "R", "nats"
    )
    print(
        f"{name:<24} {plug:>11.4f} {mi_score(d, batch):>8.4f} "
        f"{mi_lower_bound(d, batch):>9.4f}"
    )

print()
print("per-cell redundancy masking: scores threshold into a keep/drop mask")
s_sym = rng.integers(4, size=4096)
batch = make_batch(one_hot(s_sym), one_hot(s_sym), rng)
d = init_discriminator(8, hidden=32, seed=2)
d, _ = train(d, batch, steps=500, lr=0.5)

from pragcomm.mi_estimator import redundancy_map

# score every (sender symbol, receiver symbol) combination as a 4x4 grid
abstract = one_hot([a for a in range(4) for _ in range(4)]).reshape(4, 4, 4)
local = one_hot([b for _ in range(4) for b in range(4)]).reshape(4, 4, 4)
rmap = redundancy_map(d, abstract, local)
print("score matrix (rows: sender symbol, cols: receiver symbol):")
print(np.round(rmap, 2))
for tau in (-1.0, 0.0, 1.0, float("inf")):
    kept = select_mask(rmap, tau).sum()
    print(f"  tau = {tau:>5}: transmit {kept:>2} of 16 symbol pairs")
print("matching pairs (the diagonal) score high and get dropped first.")
