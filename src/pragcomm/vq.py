"""Layered (base + residual) vector quantization with k-means codebooks.

A small base codebook captures coarse content per cell; a larger residual
codebook encodes what the base layer missed.  Training is plain Lloyd
k-means with k-means++ seeding so every run is reproducible and can be
checked against a naive reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Codebook:
    """Embedding table with per-embedding confidence and occupancy tallies."""

    embeddings: np.ndarray  # (n, d)
    conf_freq: np.ndarray  # accumulated task confidence per embedding
    occ_freq: np.ndarray  # accumulated cell counts per embedding

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValueError("embeddings must be a nonempty (n, d) matrix")
        if not np.all(np.isfinite(emb)):
            raise ValueError("embeddings must be finite")
        self.embeddings = emb
        self.conf_freq = np.asarray(self.conf_freq, dtype=np.float64)
        self.occ_freq = np.asarray(self.occ_freq, dtype=np.float64)
        if self.conf_freq.shape != (emb.shape[0],) or self.occ_freq.shape != (
            emb.shape[0],
        ):
            raise ValueError("frequency vectors must have one entry per embedding")
        if np.any(self.conf_freq < 0) or np.any(self.occ_freq < 0):
            raise ValueError("frequencies must be nonnegative")

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def _empty_codebook(embeddings: np.ndarray) -> Codebook:
    n = embeddings.shape[0]
    return Codebook(embeddings, np.zeros(n), np.zeros(n))


@dataclass
class AffineMap:
    """x -> W @ x + b applied row-wise to (N, in_dim) arrays."""

    weight: np.ndarray
    bias: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.weight.T + self.bias

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def identity_map(dim: int) -> AffineMap:
    return AffineMap(np.eye(dim), np.zeros(dim))


def random_orthogonal_maps(dim: int, seed: int) -> tuple[AffineMap, AffineMap]:
    """A random orthogonal projector pair (proj_in, proj_out = its inverse)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return AffineMap(q, np.zeros(dim)), AffineMap(q.T, np.zeros(dim))


@dataclass
class LayeredCodebook:
    base: Codebook
    res: Codebook
    proj_in: AffineMap = None
    proj_out: AffineMap = None

    def __post_init__(self):
        if self.base.dim != self.res.dim:
            raise ValueError("base and residual codebooks must share a dimension")
        if self.res.n < self.base.n:
            raise ValueError("residual codebook must be at least as large as base")
        if self.proj_in is None:
            self.proj_in = identity_map(self.base.dim)
        if self.proj_out is None:
            self.proj_out = identity_map(self.base.dim)
        if self.proj_in.out_dim != self.base.dim or self.proj_out.in_dim != self.base.dim:
            raise ValueError("projection shapes do not bracket the codebook dimension")
        if self.proj_in.in_dim != self.proj_out.out_dim:
            raise ValueError("proj_in and proj_out must be inverses in shape")


@dataclass
class IndexGrid:
    """Per-cell codebook indices; -1 marks cells absent from a partial decode."""

    base_idx: np.ndarray  # (h, w) ints
    res_idx: np.ndarray  # (h, w) ints


def unique_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order, the inverse and the counts.

    Equals ``np.unique(x, axis=0, return_inverse=True, return_counts=True)``
    for a 2-D array, but sorts once with ``np.lexsort`` and compares
    neighbours instead of sorting the rows as structured records.  Values
    compare as numbers, so -0.0 and 0.0 are one value.
    """
    x = np.asarray(x)
    order = np.lexsort(x.T[::-1])
    ordered = x[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return ordered[starts], inverse, np.diff(starts, append=len(x))


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin over squared distance; ties resolve to the lowest index
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def kmeans(
    points: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd k-means with k-means++ seeding.

    Empty clusters are re-seeded from the point farthest from its assigned
    centroid.  Returns (centroids, assignment, per-iteration SSE history).
    Nearest-centroid searches run once per distinct point; seeding, means
    and SSE use every point.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    uniq, inv, _ = unique_rows(points)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = points[rng.integers(n)]
        else:
            centroids[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))

    assign = _nearest(uniq, centroids)[inv]
    history = []
    for _ in range(iters):
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                far = ((points - centroids[assign]) ** 2).sum(axis=1).argmax()
                centroids[c] = points[far]
        new_assign = _nearest(uniq, centroids)[inv]
        sse = float(((points - centroids[new_assign]) ** 2).sum())
        history.append(sse)
        if np.array_equal(new_assign, assign) and len(history) > 1:
            assign = new_assign
            break
        assign = new_assign
    return centroids, assign, history


def train_codebooks(
    features: np.ndarray,
    n_base: int,
    n_res: int,
    iters: int = 25,
    seed: int = 0,
    proj: tuple[AffineMap, AffineMap] | None = None,
) -> LayeredCodebook:
    """Fit base and residual codebooks to a sample of feature vectors.

    The base layer is k-means over the projected features; the residual
    layer is k-means over what the base layer leaves behind.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty (N, c) matrix")
    if not n_base <= n_res <= features.shape[0]:
        raise ValueError(
            f"need n_base <= n_res <= #features, got {n_base}, {n_res}, {features.shape[0]}"
        )
    proj_in, proj_out = proj if proj is not None else (None, None)
    rng = np.random.default_rng(seed)
    x = proj_in(features) if proj_in is not None else features
    base_emb, assign, _ = kmeans(x, n_base, iters, rng)
    residuals = x - base_emb[assign]
    res_emb, _, _ = kmeans(residuals, n_res, iters, rng)
    return LayeredCodebook(
        base=_empty_codebook(base_emb),
        res=_empty_codebook(res_emb),
        proj_in=proj_in,
        proj_out=proj_out,
    )


def quantize(grid: np.ndarray, cb: LayeredCodebook) -> tuple[IndexGrid, np.ndarray]:
    """Two-layer nearest-neighbour quantization of an (h, w, c) grid.

    Per cell: nearest base row, then nearest residual row to what remains,
    reconstruction = proj_out(base + residual).  Ties go to the lowest index.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3:
        raise ValueError("grid must be (h, w, c)")
    h, w, c = grid.shape
    if c != cb.proj_in.in_dim:
        raise ValueError(f"grid channels {c} != projector input {cb.proj_in.in_dim}")
    flat = cb.proj_in(grid.reshape(h * w, c))
    base_idx = _nearest(flat, cb.base.embeddings)
    residual = flat - cb.base.embeddings[base_idx]
    res_idx = _nearest(residual, cb.res.embeddings)
    recon = cb.proj_out(cb.base.embeddings[base_idx] + cb.res.embeddings[res_idx])
    return (
        IndexGrid(base_idx.reshape(h, w), res_idx.reshape(h, w)),
        recon.reshape(h, w, c),
    )


def reconstruct_base(idx: IndexGrid, cb: LayeredCodebook) -> np.ndarray:
    """Base-layer-only reconstruction (the coarse abstract)."""
    h, w = idx.base_idx.shape
    out = np.zeros((h, w, cb.proj_out.out_dim))
    present = idx.base_idx >= 0
    emb = cb.proj_out(cb.base.embeddings[idx.base_idx[present]])
    out[present] = emb
    return out


def reconstruct_full(idx: IndexGrid, cb: LayeredCodebook) -> np.ndarray:
    """Two-layer reconstruction on the cells present in the index grid."""
    h, w = idx.base_idx.shape
    out = np.zeros((h, w, cb.proj_out.out_dim))
    present = (idx.base_idx >= 0) & (idx.res_idx >= 0)
    emb = cb.proj_out(
        cb.base.embeddings[idx.base_idx[present]]
        + cb.res.embeddings[idx.res_idx[present]]
    )
    out[present] = emb
    return out


def accumulate_conf_freq(
    cb: LayeredCodebook, idx: IndexGrid, conf: np.ndarray
) -> LayeredCodebook:
    """Add per-cell confidence mass onto the embeddings the cells map to.

    Mutates and returns ``cb``; callers must serialize concurrent updates
    (single-writer contract).
    """
    conf = np.asarray(conf, dtype=np.float64)
    if conf.shape != idx.base_idx.shape:
        raise ValueError(f"confidence shape {conf.shape} != grid {idx.base_idx.shape}")
    for book, indices in ((cb.base, idx.base_idx), (cb.res, idx.res_idx)):
        flat_idx = indices.ravel()
        np.add.at(book.conf_freq, flat_idx, conf.ravel())
        np.add.at(book.occ_freq, flat_idx, 1.0)
    return cb


# --- codebook file format --------------------------------------------------
#
# Header: "n d n_base n_res", then one row per embedding (base rows first,
# then residual rows), then four frequency lines (base conf, base occ,
# res conf, res occ), then the projector matrices when not identity.
# Decimal serialization uses 17 significant digits so float64 round-trips
# bit-exactly.


def _fmt(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.asarray(values).ravel())


def save_codebook(cb: LayeredCodebook, path: str) -> None:
    n = cb.base.n + cb.res.n
    lines = [f"{n} {cb.base.dim} {cb.base.n} {cb.res.n}"]
    for book in (cb.base, cb.res):
        lines.extend(_fmt(row) for row in book.embeddings)
    for book in (cb.base, cb.res):
        lines.append(_fmt(book.conf_freq))
        lines.append(_fmt(book.occ_freq))
    ident = np.array_equal(cb.proj_in.weight, np.eye(cb.base.dim)) and not np.any(
        cb.proj_in.bias
    )
    lines.append("identity" if ident else "affine")
    if not ident:
        for m in (cb.proj_in, cb.proj_out):
            lines.append(f"{m.out_dim} {m.in_dim}")
            lines.extend(_fmt(row) for row in m.weight)
            lines.append(_fmt(m.bias))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path: str) -> LayeredCodebook:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    n, d, n_base, n_res = (int(x) for x in lines[0].split())
    if n != n_base + n_res:
        raise ValueError(f"{path}: inconsistent header")
    pos = 1

    def take_matrix(rows: int) -> np.ndarray:
        nonlocal pos
        m = np.array([[float(x) for x in lines[pos + r].split()] for r in range(rows)])
        pos += rows
        return m

    def take_vector() -> np.ndarray:
        nonlocal pos
        v = np.array([float(x) for x in lines[pos].split()])
        pos += 1
        return v

    base_emb = take_matrix(n_base)
    res_emb = take_matrix(n_res)
    base = Codebook(base_emb, take_vector(), take_vector())
    res = Codebook(res_emb, take_vector(), take_vector())
    mode = lines[pos]
    pos += 1
    proj_in = proj_out = None
    if mode == "affine":
        maps = []
        for _ in range(2):
            out_dim, in_dim = (int(x) for x in lines[pos].split())
            pos += 1
            w = take_matrix(out_dim)
            b = take_vector()
            maps.append(AffineMap(w, b))
        proj_in, proj_out = maps
    return LayeredCodebook(base=base, res=res, proj_in=proj_in, proj_out=proj_out)
