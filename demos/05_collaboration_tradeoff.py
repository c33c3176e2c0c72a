"""End-to-end rate-accuracy trade-off on a two-agent world.

One clean and one noisy agent share a scene through the full stack
(quantize, confidence-gate, abstract pre-hand, redundancy-select, entropy
code).  Three variants sweep their thresholds; the resulting curves land in
``demo_out/`` as plot-ready CSVs, and the Pareto points print below.
"""

from pathlib import Path

import numpy as np

from pragcomm import pipeline as pl
from pragcomm import simworld as sw

world_template = sw.WorldConfig(
    h=32,
    w=32,
    n_classes=4,
    n_agents=2,
    fovs=((("rect", 0, 0, 32, 28),), (("rect", 0, 4, 32, 32),)),
    noise=(0.05, 0.25),
    density=0.6,
    rect_min=3,
    rect_max=7,
    seed=0,
)

print("training codebooks, confidence frequencies and the discriminator...")
stack = pl.train_all(
    world_template, pl.TrainConfig(n_base=6, disc_steps=1500, disc_lr=0.5)
)

seeds = tuple(range(1, 9))
inf = float("inf")
variants = {
    "task_entropy+mi": pl.SweepConfig(
        tau_c_grid=(0.3, 0.9),
        tau_mi_grid=(-1.0, 0.0, 0.6, inf),
        seeds=seeds,
    ),
    "task_entropy+confidence_only": pl.SweepConfig(
        tau_c_grid=(0.3, 0.9),
        tau_mi_grid=(0.3, 0.7, 0.9, inf),
        seeds=seeds,
        selector="confidence_only",
    ),
    "fixed+none": pl.SweepConfig(
        tau_c_grid=(0.3, 0.9),
        tau_mi_grid=(inf,),
        seeds=seeds,
        coder="fixed",
        selector="none",
    ),
}

out = Path(__file__).resolve().parent / "demo_out"
out.mkdir(exist_ok=True)

# every variant sweeps the same worlds: prepare them once, as scenes
scenes = pl.scenes(world_template, stack, seeds)
solo = np.mean([pl.solo_iou(scenes[s]) for s in seeds])
full = np.mean([pl.uncompressed_iou(scenes[s]) for s in seeds])
print(f"no-collaboration IoU {solo:.4f}; raw-feature-sharing IoU {full:.4f}")
print(f"(raw sharing would cost 32 bits x {world_template.feature_channels} channels "
      f"x {world_template.h * world_template.w} cells = "
      f"{32 * world_template.feature_channels * world_template.h * world_template.w} bits)")
print()

for name, cfg in variants.items():
    results = pl.sweep_scenes(scenes, cfg)
    rows = pl.summarize(results)
    (out / f"{name.replace('+', '_')}.csv").write_text(pl.summary_csv(rows))
    print(f"{name}: Pareto points (mean over {len(seeds)} seeds)")
    for r in rows:
        if r["pareto"]:
            print(
                f"   {r['mean_total_bits']:>8.0f} bits  IoU {r['mean_iou']:.4f}  "
                f"(tau_c={r['tau_c']}, tau_mi={r['tau_mi']})"
            )
print(f"\ncurve CSVs written to {out}")
