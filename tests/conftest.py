import numpy as np
import pytest

from pragcomm import pipeline as pl
from pragcomm import simworld as sw

# Homogeneous-noise world: both agents equally reliable, moderate overlap.
# Used for the lossless-regime acceptance check.
LOSSLESS_WORLD = sw.WorldConfig(
    h=32,
    w=32,
    n_classes=4,
    n_agents=2,
    fovs=((("rect", 0, 0, 32, 26),), (("rect", 0, 6, 32, 32),)),
    noise=0.05,
    density=0.6,
    rect_min=3,
    rect_max=7,
    seed=0,
)

# Heterogeneous-trust world: a clean and a noisy agent with heavily
# overlapping views, so redundancy-aware selection has real savings to find.
TRADEOFF_WORLD = sw.WorldConfig(
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

ACCEPT_SEEDS = tuple(range(1, 21))


@pytest.fixture(scope="session")
def lossless_stack():
    return pl.train_all(LOSSLESS_WORLD, pl.TrainConfig())


@pytest.fixture(scope="session")
def tradeoff_stack():
    cfg = pl.TrainConfig(n_base=6, disc_steps=2000, disc_lr=0.5)
    return pl.train_all(TRADEOFF_WORLD, cfg)


@pytest.fixture(scope="session")
def tradeoff_sweeps(tradeoff_stack):
    """The three sweeps the trade-off criteria compare, on one set of scenes."""
    inf = float("inf")
    common = dict(tau_c_grid=(0.3, 0.9), seeds=ACCEPT_SEEDS)
    grids = {
        "mi": pl.SweepConfig(
            tau_mi_grid=(-1.0, 0.0, 0.3, 0.6, 1.0, inf),
            coder="task_entropy",
            selector="mi",
            **common,
        ),
        "baseline": pl.SweepConfig(
            tau_mi_grid=(inf,), coder="fixed", selector="none", **common
        ),
        "confidence_only": pl.SweepConfig(
            tau_mi_grid=(0.3, 0.7, 0.9, inf),
            coder="task_entropy",
            selector="confidence_only",
            **common,
        ),
    }
    scenes = pl.scenes(TRADEOFF_WORLD, tradeoff_stack, ACCEPT_SEEDS)
    return {name: pl.sweep_scenes(scenes, cfg) for name, cfg in grids.items()}
