"""Synthetic multi-agent occupancy world with exactly computable posteriors.

Ground truth is a label grid: background plus axis-aligned rectangles of
random class and size, placed uniformly with wrap-around so every cell has
the same (analytically known) class prior.  Each agent observes the cells
inside its field of view through a symmetric noise channel: with probability
``noise`` the true class is replaced by a uniformly random wrong class.

Because the channel and the prior are both known in closed form, the exact
per-cell Bayes posterior is available for any combination of observations,
which turns task scores and risks into checkable quantities rather than
training outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .entropy_coder import SIDE_BITS

UNOBSERVED = -1
MAX_AGENTS = 5


@dataclass(frozen=True)
class WorldConfig:
    h: int = 32
    w: int = 32
    n_classes: int = 4  # including background class 0
    n_agents: int = 2
    fovs: tuple = (("full",), ("full",))  # per-agent tuple of shape specs
    noise: float | tuple = 0.05  # scalar, or one flip probability per agent
    density: float = 0.5  # target fraction of cells covered by objects
    rect_min: int = 3
    rect_max: int = 7
    seed: int = 0

    def __post_init__(self):
        if max(self.h, self.w) >= 1 << SIDE_BITS:
            raise ValueError(
                f"grid {self.h}x{self.w} does not fit the wire format's "
                f"{SIDE_BITS}-bit h and w fields"
            )
        if self.n_classes < 2:
            raise ValueError("need at least background plus one object class")
        if not 2 <= self.n_agents <= MAX_AGENTS:
            raise ValueError(f"n_agents must be between 2 and {MAX_AGENTS}")
        eps = self.noise if isinstance(self.noise, tuple) else (self.noise,)
        if isinstance(self.noise, tuple) and len(self.noise) != self.n_agents:
            raise ValueError("per-agent noise needs one value per agent")
        if any(not 0 <= e < 0.5 for e in eps):
            raise ValueError("noise must be in [0, 0.5)")
        if not 0 <= self.density < 1:
            raise ValueError("density must be in [0, 1)")
        if len(self.fovs) != self.n_agents:
            raise ValueError("one field-of-view spec per agent required")
        if not 1 <= self.rect_min <= self.rect_max <= min(self.h, self.w):
            raise ValueError("rectangle size range does not fit the grid")
        if self.density > 0 and self.rect_min == self.h == self.w == self.rect_max:
            # every rectangle would cover the grid, leaving no background
            raise ValueError(
                f"rect_min = rect_max = {self.h} fills the {self.h}x{self.w} grid"
            )
        for agent, spec in enumerate(self.fovs):
            for shape in spec:
                try:
                    _validate_shape(shape, self.h, self.w)
                except ValueError as exc:
                    raise ValueError(f"fov_{agent}: {exc}") from None

    @property
    def feature_channels(self) -> int:
        return 2 * self.n_classes

    def agent_noise(self, agent: int) -> float:
        return self.noise[agent] if isinstance(self.noise, tuple) else self.noise


def _validate_shape(shape, h, w) -> None:
    kind = shape if isinstance(shape, str) else shape[0]
    if kind == "full":
        return
    if kind == "rect":
        _, r0, c0, r1, c1 = shape
        if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
            raise ValueError(f"rect {shape} outside the {h}x{w} grid")
        return
    if kind == "sector":
        _, cy, cx, radius, a0, a1 = shape
        if not (0 <= cy < h and 0 <= cx < w and radius > 0):
            raise ValueError(f"sector {shape} outside the {h}x{w} grid")
        return
    raise ValueError(f"unknown field-of-view shape {shape!r}")


def fov_mask(cfg: WorldConfig, agent: int) -> np.ndarray:
    """Boolean visibility mask for one agent (union of its shapes)."""
    mask = np.zeros((cfg.h, cfg.w), dtype=bool)
    rows, cols = np.mgrid[0 : cfg.h, 0 : cfg.w]
    for shape in cfg.fovs[agent]:
        kind = shape if isinstance(shape, str) else shape[0]
        if kind == "full":
            mask[:] = True
        elif kind == "rect":
            _, r0, c0, r1, c1 = shape
            mask[r0:r1, c0:c1] = True
        elif kind == "sector":
            _, cy, cx, radius, a0, a1 = shape
            dy, dx = rows - cy, cols - cx
            within = dy * dy + dx * dx <= radius * radius
            ang = np.degrees(np.arctan2(dy, dx)) % 360.0
            lo, hi = a0 % 360.0, a1 % 360.0
            if lo <= hi:
                span = (ang >= lo) & (ang <= hi)
            else:
                span = (ang >= lo) | (ang <= hi)
            mask |= within & span
    return mask


def _n_rectangles(cfg: WorldConfig) -> int:
    if cfg.density <= 0:
        return 0
    mean_area = ((cfg.rect_min + cfg.rect_max) / 2.0) ** 2
    per_rect = mean_area / (cfg.h * cfg.w)
    return max(1, round(math.log(1.0 - cfg.density) / math.log(1.0 - per_rect)))


def class_prior(cfg: WorldConfig) -> np.ndarray:
    """Exact per-cell class prior implied by the wrap-around placement.

    With m rectangles of i.i.d. size placed uniformly on the torus, a cell
    stays background with probability (1 - mean_area / (h w)) ** m, and the
    remaining mass splits evenly over the object classes.
    """
    m = _n_rectangles(cfg)
    mean_area = ((cfg.rect_min + cfg.rect_max) / 2.0) ** 2
    p_bg = (1.0 - mean_area / (cfg.h * cfg.w)) ** m
    prior = np.full(cfg.n_classes, (1.0 - p_bg) / (cfg.n_classes - 1))
    prior[0] = p_bg
    return prior


def channel_matrix(cfg: WorldConfig, agent: int = 0) -> np.ndarray:
    """L[k, y] = p(observed class k | true class y) inside the field of view."""
    return _channel(cfg.n_classes, cfg.agent_noise(agent))


def _channel(k: int, eps: float) -> np.ndarray:
    mat = np.full((k, k), eps / (k - 1))
    np.fill_diagonal(mat, 1.0 - eps)
    return mat


def generate(cfg: WorldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth labels (h, w) and per-agent observations (n_agents, h, w).

    Observed cells carry the (possibly flipped) class; cells outside an
    agent's field of view carry UNOBSERVED.  Deterministic given the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    gt = np.zeros((cfg.h, cfg.w), dtype=np.int64)
    for _ in range(_n_rectangles(cfg)):
        a = int(rng.integers(cfg.rect_min, cfg.rect_max + 1))
        b = int(rng.integers(cfg.rect_min, cfg.rect_max + 1))
        r0 = int(rng.integers(cfg.h))
        c0 = int(rng.integers(cfg.w))
        cls = int(rng.integers(1, cfg.n_classes))
        rows = np.arange(r0, r0 + a) % cfg.h
        cols = np.arange(c0, c0 + b) % cfg.w
        gt[np.ix_(rows, cols)] = cls

    obs = np.full((cfg.n_agents, cfg.h, cfg.w), UNOBSERVED, dtype=np.int64)
    for agent in range(cfg.n_agents):
        mask = fov_mask(cfg, agent)
        eps = cfg.agent_noise(agent)
        seen = gt.copy()
        if eps > 0:
            flips = rng.uniform(size=(cfg.h, cfg.w)) < eps
            # uniformly random wrong class: shift by 1..K-1 modulo K
            shift = rng.integers(1, cfg.n_classes, size=(cfg.h, cfg.w))
            seen = np.where(flips, (gt + shift) % cfg.n_classes, gt)
        obs[agent][mask] = seen[mask]
    return gt, obs


def extract_features(obs: np.ndarray, cfg: WorldConfig) -> np.ndarray:
    """Per-cell features: one-hot of the observed class in the first K
    channels, normalized class histogram of the 8 observed neighbours in the
    next K.  Cells outside the field of view are all-zero.
    """
    k = cfg.n_classes
    feat = np.zeros((*obs.shape, 2 * k))
    observed = obs != UNOBSERVED
    rr, cc = np.nonzero(observed)
    feat[rr, cc, obs[rr, cc]] = 1.0

    # neighbour histograms over the 8-connected observed cells
    counts = _neighbour_sum(feat[..., :k])
    totals = _neighbour_sum(observed)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        feat[..., k:] = np.where(totals > 0, counts / totals, 0.0)
    feat[~observed] = 0.0
    return feat


def posterior_from_obs(obs_list, cfg: WorldConfig, agents=None) -> np.ndarray:
    """Exact fused posterior given one or more observation grids.

    Per cell the agents' likelihoods multiply (observations are independent
    given the label); unobserved cells contribute nothing, so a cell nobody
    sees carries the prior.  ``agents`` names the observing agent per grid
    (defaults to 0, 1, ...) so each grid is inverted through its own channel.
    """
    if isinstance(obs_list, np.ndarray) and obs_list.ndim == 2:
        obs_list = [obs_list]
    if agents is None:
        agents = range(len(obs_list))
    log_prior, log_chans = _log_model(cfg, [cfg.agent_noise(a) for a in agents])
    h, w = obs_list[0].shape
    log_post = np.tile(log_prior, (h, w, 1))
    for obs, log_chan in zip(obs_list, log_chans):
        rr, cc = np.nonzero(obs != UNOBSERVED)
        log_post[rr, cc, :] += log_chan[obs[rr, cc], :]
    return _normalize(log_post)


def posterior_from_features(feat: np.ndarray, cfg: WorldConfig, noise: float) -> np.ndarray:
    """Posterior decoded from (possibly fused or reconstructed) features.

    The first K channels act as soft evidence: a value v on channel k
    contributes the likelihood p(obs=k | y) raised to the power v.  Crisp
    one-hot features reproduce the exact single-observation posterior, and a
    max-fused pair of disagreeing one-hots reproduces the two-observation
    product rule.  Values above 1 (trust-weighted evidence from a more
    reliable source) strengthen the vote; a cap keeps reconstruction noise
    from exploding the exponent.  ``noise`` is the decoding agent's own flip
    probability, which selects the channel model.
    """
    k = cfg.n_classes
    log_prior, (log_chan,) = _log_model(cfg, [noise])
    v = np.clip(feat[..., :k], 0.0, 8.0)
    v = np.where(v > 1e-6, v, 0.0)
    log_post = log_prior[None, None, :] + np.einsum("hwk,ky->hwy", v, log_chan)
    return _normalize(log_post)


def _log_model(cfg: WorldConfig, noises) -> tuple[np.ndarray, list]:
    """The log class prior and, per flip probability in ``noises``, the log
    channel matrix floored at -1e9: a finite floor keeps zero-probability
    evidence well-defined at noise 0.  Both posteriors decode with these."""
    with np.errstate(divide="ignore"):
        log_chans = [np.maximum(np.log(_channel(cfg.n_classes, e)), -1e9) for e in noises]
        return np.log(class_prior(cfg)), log_chans


def _normalize(log_post: np.ndarray) -> np.ndarray:
    """Per-cell probabilities from unnormalized log posteriors (h, w, K)."""
    log_post -= log_post.max(axis=2, keepdims=True)
    post = np.exp(log_post)
    post /= post.sum(axis=2, keepdims=True)
    return post


def confidence(feat: np.ndarray, cfg: WorldConfig, noise: float) -> np.ndarray:
    """Per-cell task confidence: one minus the posterior background mass."""
    return 1.0 - posterior_from_features(feat, cfg, noise)[..., 0]


def fuse(local: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Cell-wise, channel-wise maximum of two feature grids."""
    local = np.asarray(local)
    received = np.asarray(received)
    if local.shape != received.shape:
        raise ValueError(f"shape mismatch {local.shape} vs {received.shape}")
    return np.maximum(local, received)


def _neighbour_sum(x: np.ndarray) -> np.ndarray:
    """Per cell of an (h, w, ...) array, the float sum of its 8 neighbours,
    cells off the grid counting as zero.  The shifts of one zero-padded copy
    are added onto +0.0 in a fixed (dr, dc) order."""
    h, w = x.shape[:2]
    padded = np.zeros((h + 2, w + 2, *x.shape[2:]))
    padded[1 : h + 1, 1 : w + 1] = x
    out = np.zeros(x.shape)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                out += padded[1 - dr : 1 - dr + h, 1 - dc : 1 - dc + w]
    return out


def smooth(sparse: np.ndarray) -> np.ndarray:
    """Propagate sparse cells into empty neighbours.

    Every all-zero cell adjacent (8-connectivity) to nonzero cells receives
    half the mean of those neighbours; nonzero cells pass through unchanged.
    Applied once, not iterated.
    """
    sparse = np.asarray(sparse, dtype=np.float64)
    if sparse.ndim != 3:
        raise ValueError("sparse grid must be (h, w, c)")
    nonzero = np.any(sparse != 0, axis=2)
    # an all-zero cell adds +-0.0 to sums that start at +0.0 and so are never
    # -0.0: summing every neighbour equals summing the nonzero ones, bit for bit
    sums = _neighbour_sum(sparse)
    counts = _neighbour_sum(nonzero)
    out = sparse.copy()
    fill = (~nonzero) & (counts > 0)
    out[fill] = 0.5 * sums[fill] / counts[fill][:, None]
    return out


def score_iou(pred: np.ndarray, gt: np.ndarray, n_classes: int):
    """Per-class intersection-over-union and its mean.

    Classes absent from both prediction and ground truth are excluded from
    the mean and reported as NaN.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth must share a shape")
    per_class = np.full(n_classes, np.nan)
    for cls in range(n_classes):
        p = pred == cls
        g = gt == cls
        union = np.logical_or(p, g).sum()
        if union:
            per_class[cls] = np.logical_and(p, g).sum() / union
    present = ~np.isnan(per_class)
    mean = float(per_class[present].mean()) if present.any() else float("nan")
    return per_class, mean


# --- grid snapshot file ----------------------------------------------------


def save_labels(grid: np.ndarray, path: str) -> None:
    """Write an (h, w) integer grid as the array ``labels``."""
    textio.save_arrays(path, {"labels": grid})


def load_labels(path: str) -> np.ndarray:
    grid = textio.load_arrays(path, ["labels"])["labels"]
    if grid.ndim != 2 or not np.all(grid == np.round(grid)):
        raise ValueError(f"{path}: labels must be an (h, w) grid of integers")
    return grid.astype(np.int64)
