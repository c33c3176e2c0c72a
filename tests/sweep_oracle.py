"""Quantization, feature extraction, smoothing and the two posteriors as
they were before the sweep round stopped repeating work.

Kept as test oracles: ``pragcomm.vq.quantize`` must give the same index
grids, ``pragcomm.vq.reconstruct`` the same reconstruction as ``quantize``
here and, on partial grids, as ``received_grid``, and
``pragcomm.simworld.extract_features``,
``smooth``, ``posterior_from_obs`` and ``posterior_from_features`` the same
arrays, compared byte for byte, as the functions below.  ``quantize`` here
searches every cell, duplicates included; the neighbour loops build their
source and destination slices per shift, and ``smooth`` masks every shifted
copy with ``np.where``.  Each posterior here builds its own log prior and
log channel.
"""

from __future__ import annotations

import numpy as np

from pragcomm.simworld import UNOBSERVED, WorldConfig, _channel, channel_matrix, class_prior
from pragcomm.vq import IndexGrid, LayeredCodebook


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin over squared distance; ties resolve to the lowest index
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def quantize(grid: np.ndarray, cb: LayeredCodebook) -> tuple[IndexGrid, np.ndarray]:
    """Two-layer nearest-neighbour quantization of an (h, w, c) grid.

    Per cell: nearest base row, then nearest residual row to what remains,
    reconstruction = base + residual.  Ties go to the lowest index.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3:
        raise ValueError("grid must be (h, w, c)")
    h, w, c = grid.shape
    if c != cb.base.dim:
        raise ValueError(f"grid channels {c} != codebook dimension {cb.base.dim}")
    flat = grid.reshape(h * w, c)
    base_idx = _nearest(flat, cb.base.embeddings)
    residual = flat - cb.base.embeddings[base_idx]
    res_idx = _nearest(residual, cb.res.embeddings)
    recon = cb.base.embeddings[base_idx] + cb.res.embeddings[res_idx]
    return (
        IndexGrid(base_idx.reshape(h, w), res_idx.reshape(h, w)),
        recon.reshape(h, w, c),
    )


def reconstruct_base(idx: IndexGrid, cb: LayeredCodebook) -> np.ndarray:
    """Base-layer-only reconstruction (the coarse abstract)."""
    h, w = idx.base_idx.shape
    out = np.zeros((h, w, cb.base.dim))
    present = idx.base_idx >= 0
    out[present] = cb.base.embeddings[idx.base_idx[present]]
    return out


def reconstruct_full(idx: IndexGrid, cb: LayeredCodebook) -> np.ndarray:
    """Two-layer reconstruction on the cells present in the index grid."""
    h, w = idx.base_idx.shape
    out = np.zeros((h, w, cb.base.dim))
    present = (idx.base_idx >= 0) & (idx.res_idx >= 0)
    out[present] = (
        cb.base.embeddings[idx.base_idx[present]]
        + cb.res.embeddings[idx.res_idx[present]]
    )
    return out


def received_grid(sent: IndexGrid, cb: LayeredCodebook) -> np.ndarray:
    """The receiver's decode of a transmitted grid: two layers where both
    indices arrived, the abstract's base embedding where only a base index
    did."""
    received = reconstruct_full(sent, cb)
    base_only = (sent.base_idx >= 0) & (sent.res_idx < 0)  # the abstract's cells
    received[base_only] = reconstruct_base(sent, cb)[base_only]
    return received


def extract_features(obs: np.ndarray, cfg: WorldConfig) -> np.ndarray:
    """Per-cell features: one-hot of the observed class in the first K
    channels, normalized class histogram of the 8 observed neighbours in the
    next K.  Cells outside the field of view are all-zero.
    """
    k = cfg.n_classes
    h, w = obs.shape
    feat = np.zeros((h, w, 2 * k))
    observed = obs != UNOBSERVED
    rr, cc = np.nonzero(observed)
    feat[rr, cc, obs[rr, cc]] = 1.0

    # neighbour histograms over the 8-connected observed cells
    counts = np.zeros((h, w, k))
    totals = np.zeros((h, w))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            src_r = slice(max(0, -dr), h - max(0, dr))
            src_c = slice(max(0, -dc), w - max(0, dc))
            dst_r = slice(max(0, dr), h - max(0, -dr))
            dst_c = slice(max(0, dc), w - max(0, -dc))
            nb_obs = obs[src_r, src_c]
            nb_seen = nb_obs != UNOBSERVED
            sub = counts[dst_r, dst_c]
            rr2, cc2 = np.nonzero(nb_seen)
            sub[rr2, cc2, nb_obs[rr2, cc2]] += 1.0
            totals[dst_r, dst_c] += nb_seen
    with np.errstate(invalid="ignore", divide="ignore"):
        hist = np.where(totals[..., None] > 0, counts / totals[..., None], 0.0)
    feat[..., k:] = hist
    feat[~observed] = 0.0
    return feat


def smooth(sparse: np.ndarray) -> np.ndarray:
    """Propagate sparse cells into empty neighbours.

    Every all-zero cell adjacent (8-connectivity) to nonzero cells receives
    half the mean of those neighbours; nonzero cells pass through unchanged.
    Applied once, not iterated.
    """
    sparse = np.asarray(sparse, dtype=np.float64)
    h, w, c = sparse.shape
    nonzero = np.any(sparse != 0, axis=2)
    sums = np.zeros_like(sparse)
    counts = np.zeros((h, w))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            src_r = slice(max(0, -dr), h - max(0, dr))
            src_c = slice(max(0, -dc), w - max(0, dc))
            dst_r = slice(max(0, dr), h - max(0, -dr))
            dst_c = slice(max(0, dc), w - max(0, -dc))
            nz = nonzero[src_r, src_c]
            sums[dst_r, dst_c] += np.where(nz[..., None], sparse[src_r, src_c], 0.0)
            counts[dst_r, dst_c] += nz
    out = sparse.copy()
    fill = (~nonzero) & (counts > 0)
    out[fill] = 0.5 * sums[fill] / counts[fill][:, None]
    return out


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
    prior = class_prior(cfg)
    h, w = obs_list[0].shape
    with np.errstate(divide="ignore"):
        log_post = np.tile(np.log(prior), (h, w, 1))
    for obs, agent in zip(obs_list, agents):
        with np.errstate(divide="ignore"):
            # finite floor keeps zero-probability evidence well-defined at noise 0
            log_chan = np.maximum(np.log(channel_matrix(cfg, agent)), -1e9)
        seen = obs != UNOBSERVED
        rr, cc = np.nonzero(seen)
        log_post[rr, cc, :] += log_chan[obs[rr, cc], :]
    log_post -= log_post.max(axis=2, keepdims=True)
    post = np.exp(log_post)
    post /= post.sum(axis=2, keepdims=True)
    return post


def posterior_from_features(
    feat: np.ndarray, cfg: WorldConfig, noise: float | None = None
) -> np.ndarray:
    """Posterior decoded from (possibly fused or reconstructed) features.

    The first K channels act as soft evidence: a value v on channel k
    contributes the likelihood p(obs=k | y) raised to the power v.  Crisp
    one-hot features reproduce the exact single-observation posterior, and a
    max-fused pair of disagreeing one-hots reproduces the two-observation
    product rule.  Values above 1 (trust-weighted evidence from a more
    reliable source) strengthen the vote; a cap keeps reconstruction noise
    from exploding the exponent.  ``noise`` selects the channel model (the
    decoding agent's own flip probability by default).
    """
    k = cfg.n_classes
    prior = class_prior(cfg)
    chan = _channel(k, cfg.agent_noise(0) if noise is None else noise)
    v = np.clip(feat[..., :k], 0.0, 8.0)
    v = np.where(v > 1e-6, v, 0.0)
    with np.errstate(divide="ignore"):
        log_chan = np.maximum(np.log(chan), -1e9)
        log_post = np.log(prior)[None, None, :] + np.einsum(
            "hwk,ky->hwy", v, log_chan
        )
    log_post -= log_post.max(axis=2, keepdims=True)
    post = np.exp(log_post)
    post /= post.sum(axis=2, keepdims=True)
    return post
