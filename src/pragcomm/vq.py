"""Layered (base + residual) vector quantization with k-means codebooks.

A small base codebook captures coarse content per cell; a larger residual
codebook encodes what the base layer missed.  Training is plain Lloyd
k-means with k-means++ seeding so every run is reproducible and can be
checked against a naive reference implementation.  Training also tallies,
per embedding, the task confidence and the count of the rows it quantizes.

The per-row kernels (squared distances, the duplicate-row test) work on
whole channel planes, added in index order, never through BLAS (``planes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import planes, textio


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


@dataclass
class LayeredCodebook:
    base: Codebook
    res: Codebook

    def __post_init__(self):
        if self.base.dim != self.res.dim:
            raise ValueError("base and residual codebooks must share a dimension")
        if self.res.n < self.base.n:
            raise ValueError("residual codebook must be at least as large as base")


@dataclass
class IndexGrid:
    """Per-cell codebook indices; -1 marks cells absent from a partial decode."""

    base_idx: np.ndarray  # (h, w) ints
    res_idx: np.ndarray  # (h, w) ints


def unique_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and the inverse.

    Equals ``np.unique(x, axis=0, return_inverse=True)`` for a 2-D array,
    but sorts once with ``np.lexsort`` and compares neighbours instead of
    sorting the rows as structured records.  Values compare as numbers, so
    -0.0 and 0.0 are one value.
    """
    x = np.asarray(x)
    order = np.lexsort(x.T[::-1])
    ordered = x[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = planes.any_last(ordered[1:] != ordered[:-1])
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, summed over one (n, k) plane per channel
    in index order, so an entry's bits do not depend on which other rows or
    centroids are present."""
    # One (channels, rows, centroids) temporary, not a loop over channels:
    # freeing it raises glibc's mmap threshold, so later mid-size arrays
    # reuse heap pages.  A per-channel loop with the same bits took peak RSS
    # about 4 MB lower but cost about 1800 minor page faults per bench sweep pass.
    diffs = np.ascontiguousarray(points.T)[:, :, None] - centroids.T[:, None, :]
    return planes.sum_planes(np.square(diffs, out=diffs))


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin over squared distance; ties resolve to the lowest index
    return _sq_dists(points, centroids).argmin(axis=1)


def kmeans(
    points: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd k-means with k-means++ seeding.

    Empty clusters are re-seeded, in ascending cluster order, from the point
    farthest from its assigned centroid.  Returns (centroids, assignment,
    per-iteration SSE history); the assignment is to the returned centroids.

    Each step does only the work whose result can change.  Distances are
    kept per distinct point, one column per centroid, and a step recomputes
    only the columns of the centroids that moved.  The means come from one
    stable sort of the assignment: each cluster's points are a contiguous
    slice in index order, the rows a mask would select.  Seeding draws from
    every point, and means and SSE sum over every point, so all three
    results equal those of the every-point, every-centroid search bit for
    bit.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    uniq, inv = unique_rows(points)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((uniq - centroids[0]) ** 2).sum(axis=1)  # per distinct point
    for i in range(1, k):
        d2_points = d2[inv]
        total = d2_points.sum()
        if total <= 0:
            centroids[i] = points[rng.integers(n)]
        else:
            centroids[i] = points[rng.choice(n, p=d2_points / total)]
        d2 = np.minimum(d2, ((uniq - centroids[i]) ** 2).sum(axis=1))

    dist = _sq_dists(uniq, centroids)
    assign = dist.argmin(axis=1)[inv]
    history = []
    for _ in range(iters):
        old = centroids.copy()
        # a stable sort is unique, and on small integers numpy radix-sorts
        order = np.argsort(assign.astype(np.min_scalar_type(k)), kind="stable")
        ordered = points[order]
        bounds = np.searchsorted(assign[order], np.arange(k + 1))
        for c in range(k):
            lo, hi = bounds[c], bounds[c + 1]
            if hi > lo:
                centroids[c] = ordered[lo:hi].mean(axis=0)
            else:
                far = ((points - centroids[assign]) ** 2).sum(axis=1).argmax()
                centroids[c] = points[far]
        moved = (centroids != old).any(axis=1)
        dist[:, moved] = _sq_dists(uniq, centroids[moved])
        new_assign = dist.argmin(axis=1)[inv]
        sse = float(((points - centroids[new_assign]) ** 2).sum())
        history.append(sse)
        if np.array_equal(new_assign, assign) and len(history) > 1:
            assign = new_assign
            break
        assign = new_assign
    return centroids, assign, history


def train_codebooks(
    features: np.ndarray,
    conf: np.ndarray,
    n_base: int,
    n_res: int,
    iters: int = 25,
    seed: int = 0,
) -> tuple[LayeredCodebook, np.ndarray, np.ndarray]:
    """Fit base and residual codebooks to a sample of feature vectors.

    The base layer is k-means over the features; the residual layer is
    k-means over what the base layer leaves behind.  Each layer's
    ``conf_freq`` sums ``conf``, one task confidence per feature row, over
    the rows each embedding quantizes, in row order; ``occ_freq`` counts
    those rows.  Also returns each feature row's base and residual index,
    which are the indices ``quantize`` gives that row: both search the
    final embeddings with the same per-row distances.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty (N, c) matrix")
    if np.shape(conf) != features.shape[:1]:
        raise ValueError(f"need one confidence per feature row, got shape {np.shape(conf)}")
    if not n_base <= n_res <= features.shape[0]:
        raise ValueError(
            f"need n_base <= n_res <= #features, got {n_base}, {n_res}, {features.shape[0]}"
        )
    rng = np.random.default_rng(seed)
    base_emb, base_idx, _ = kmeans(features, n_base, iters, rng)
    residuals = features - base_emb[base_idx]
    res_emb, res_idx, _ = kmeans(residuals, n_res, iters, rng)
    books = (
        Codebook(e, np.bincount(i, conf, len(e)), np.bincount(i, minlength=len(e)))
        for e, i in ((base_emb, base_idx), (res_emb, res_idx))
    )
    return LayeredCodebook(*books), base_idx, res_idx


def quantize(grid: np.ndarray, cb: LayeredCodebook) -> IndexGrid:
    """Two-layer nearest-neighbour quantization of an (h, w, c) grid.

    Per cell: nearest base row, then nearest residual row to what remains;
    ``reconstruct`` decodes the indices.  Ties go to the lowest index.  Both
    searches run once per distinct feature row, as in ``kmeans``.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3:
        raise ValueError("grid must be (h, w, c)")
    h, w, c = grid.shape
    if c != cb.base.dim:
        raise ValueError(f"grid channels {c} != codebook dimension {cb.base.dim}")
    uniq, inv = unique_rows(grid.reshape(h * w, c))
    base_uniq = _nearest(uniq, cb.base.embeddings)
    res_uniq = _nearest(uniq - cb.base.embeddings[base_uniq], cb.res.embeddings)
    return IndexGrid(base_uniq[inv].reshape(h, w), res_uniq[inv].reshape(h, w))


def reconstruct(idx: IndexGrid, cb: LayeredCodebook) -> np.ndarray:
    """Decode an index grid, complete or partial: the base embedding on every
    cell with a base index, plus the residual embedding on cells that also
    carry a residual index, and zero elsewhere."""
    base = idx.base_idx >= 0
    both = base & (idx.res_idx >= 0)
    # row n of the extended base table is the zero of a cell without a base index
    emb = np.vstack([cb.base.embeddings, np.zeros(cb.base.dim)])
    out = emb.take(np.where(base, idx.base_idx, cb.base.n), axis=0)
    res = cb.res.embeddings.take(np.where(both, idx.res_idx, 0), axis=0)
    return np.add(out, res, out=out, where=both[..., None])


# --- codebook file ---------------------------------------------------------

_CODEBOOK_ARRAYS = tuple(
    f"{layer}_{part}"
    for layer in ("base", "res")
    for part in ("embeddings", "conf_freq", "occ_freq")
)


def save_codebook(cb: LayeredCodebook, path: str) -> None:
    """Write both layers' embeddings and frequency tallies as an array file."""
    books = (cb.base, cb.res)
    values = [a for b in books for a in (b.embeddings, b.conf_freq, b.occ_freq)]
    textio.save_arrays(path, dict(zip(_CODEBOOK_ARRAYS, values)))


def load_codebook(path: str) -> LayeredCodebook:
    a = list(textio.load_arrays(path, _CODEBOOK_ARRAYS).values())
    try:
        return LayeredCodebook(Codebook(*a[:3]), Codebook(*a[3:]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
