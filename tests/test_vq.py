import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle as oracle
from array_files import (
    assert_corruptions_rejected,
    assert_same_bits,
    float_arrays,
    extra_lines,
)
from pragcomm import textio, vq
from pragcomm.vq import (
    Codebook,
    IndexGrid,
    LayeredCodebook,
    kmeans,
    load_codebook,
    quantize,
    reconstruct,
    save_codebook,
    train_codebooks,
    unique_rows,
)


def naive_lloyd(points, k, iters, rng):
    """Independent reference for kmeans: the weighted-rows algorithm in plain
    loops over Python floats, with no distance cache.

    Equal points merge into one row weighted by their count, and the rows
    go in lexicographic order.  Every sum runs in the order kmeans adds it:
    distances over channels in index order, means and cluster sizes over the
    rows in order, and the SSE terms go to numpy's sum as one array.  Empty
    clusters reseed inside the one pass over the clusters, so the clusters
    before them have already moved.
    """
    tally = {}
    for point in np.asarray(points, dtype=float).tolist():
        key = tuple(x + 0.0 for x in point)  # -0.0 and 0.0 are one value
        tally[key] = tally.get(key, 0) + 1
    rows = sorted(tally)
    w = [float(tally[r]) for r in rows]

    def sq_dist(a, b):
        total = 0.0
        for x, y in zip(a, b):
            total += (x - y) * (x - y)
        return total

    def draw(weights):
        cdf, total = [], 0.0
        for x in weights:
            total += x
            cdf.append(total)
        u = rng.random()
        return next(i for i, c in enumerate(cdf) if c / total > u)

    def nearest(row):
        best, best_d = 0, np.inf
        for c, centroid in enumerate(centroids):
            d = sq_dist(row, centroid)
            if d < best_d:
                best, best_d = c, d
        return best

    centroids = [rows[draw(w)]]
    d2 = [sq_dist(r, centroids[0]) for r in rows]
    for _ in range(1, k):
        p = [wi * di for wi, di in zip(w, d2)]
        centroids.append(rows[draw(p if any(p) else w)])
        d2 = [min(di, sq_dist(r, centroids[-1])) for di, r in zip(d2, rows)]
    assign = [nearest(r) for r in rows]
    history = []
    for _ in range(iters):
        size, sums = [0.0] * k, [[0.0] * len(rows[0]) for _ in range(k)]
        for row, wi, a in zip(rows, w, assign):
            size[a] += wi
            for j, x in enumerate(row):
                sums[a][j] += x * wi
        for c in range(k):
            if size[c] > 0:
                centroids[c] = tuple(s / size[c] for s in sums[c])
            else:
                far = [sq_dist(r, centroids[a]) for r, a in zip(rows, assign)]
                centroids[c] = rows[far.index(max(far))]
        new_assign = [nearest(r) for r in rows]
        terms = [wi * sq_dist(r, centroids[a]) for r, wi, a in zip(rows, w, new_assign)]
        history.append(float(np.sum(terms)))
        converged = new_assign == assign and len(history) > 1
        assign = new_assign
        if converged:
            break
    row_of = {r: a for r, a in zip(rows, assign)}
    point_assign = [row_of[tuple(x + 0.0 for x in p)] for p in np.asarray(points).tolist()]
    return np.array(centroids), np.array(point_assign, dtype=np.intp), history


def blobs(seed=0, n=120, d=3, k=4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(k, d))
    pts = centers[rng.integers(k, size=n)] + rng.normal(scale=0.3, size=(n, d))
    return pts


def base_only(idx):
    """The grid's base indices with every residual index dropped."""
    return IndexGrid(idx.base_idx, np.full_like(idx.res_idx, -1))


def every_point_lloyd(points, centroids, iters):
    """Lloyd over every point from the given centroids: numpy's mean over
    each cluster's points, ties to the lowest centroid, and an empty cluster
    reseeded inside the one pass over the clusters from the point farthest
    from its centroid (of equally far points, the lexicographically first)."""
    points, centroids = np.asarray(points, dtype=np.float64), np.array(centroids)
    assign = oracle.sq_dists(points, centroids).argmin(axis=1)
    history = []
    for _ in range(iters):
        for c in range(len(centroids)):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                far = oracle._sum_last((points - centroids[assign]) ** 2)
                ties = np.flatnonzero(far == far.max())
                centroids[c] = points[min(ties, key=lambda j: tuple(points[j]))]
        dist = oracle.sq_dists(points, centroids)
        new_assign = dist.argmin(axis=1)
        history.append(float(dist.min(axis=1).sum()))
        converged = np.array_equal(new_assign, assign) and len(history) > 1
        assign = new_assign
        if converged:
            break
    return centroids, assign, history


class TestKmeans:
    def test_sse_matches_naive_reference(self):
        pts = blobs(seed=7)
        pts = np.repeat(pts, np.random.default_rng(7).integers(1, 5, len(pts)), axis=0)
        # six clusters on four blobs: where the blobs split depends on the seeding
        got = kmeans(pts, 6, 15, np.random.default_rng(42))
        want = naive_lloyd(pts, 6, 15, np.random.default_rng(42))
        assert [h.hex() for h in got[2]] == [h.hex() for h in want[2]]
        for a, b in zip(got[:2], want[:2]):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_objective_nonincreasing(self):
        pts = blobs(seed=9, n=200)
        _, _, hist = kmeans(pts, 5, 20, np.random.default_rng(1))
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_k_equals_distinct_points(self):
        base = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        pts = np.repeat(base, 10, axis=0)
        cents, assign, hist = kmeans(pts, 3, 10, np.random.default_rng(3))
        got = sorted(map(tuple, cents))
        want = sorted(map(tuple, base))
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert hist[-1] == pytest.approx(0.0, abs=1e-18)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 5, 5, np.random.default_rng(0))
        # k may exceed the distinct points, not the number of points
        centroids, _, _ = kmeans(np.zeros((5, 2)), 5, 5, np.random.default_rng(0))
        assert centroids.shape == (5, 2) and not centroids.any()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 4, 12, 30])
    def test_duplicate_rows_match_every_point_search(self, seed, k):
        # On small integers every count x row and every cluster sum is exact
        # in float64, so a weighted mean and numpy's mean over the cluster's
        # points round the same sum once.  k = 30 exceeds the 20 atoms, so
        # clusters go empty and reseed.
        rng = np.random.default_rng(seed)
        atoms = rng.integers(-3, 4, size=(20, 3)).astype(float)
        pts = atoms[rng.integers(len(atoms), size=300)]
        start, _, _ = kmeans(pts, k, 0, np.random.default_rng(seed))
        centroids, assign, history = kmeans(pts, k, 25, np.random.default_rng(seed))
        want = every_point_lloyd(pts, start, 25)
        assert centroids.tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(assign, want[1])
        # an SSE sums rounded distances, per row times its count or per point
        assert history == pytest.approx(want[2], rel=1e-12)


@st.composite
def kmeans_cases(draw):
    """(points, k, iters, seed) with heavy duplicates: every point is one of
    a few atoms, so k up to n leaves clusters empty and forces reseeding."""
    d = draw(st.integers(1, 9))
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5.4, 0.1]) | st.floats(
        -10, 10, allow_nan=False, allow_subnormal=False
    )
    atoms = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=8))
    rows = draw(st.lists(st.integers(0, len(atoms) - 1), min_size=1, max_size=60))
    points = np.array(atoms)[rows]
    n = len(points)
    # small k gives clusters of many rows, where a mean's summation order shows
    k = draw(st.integers(1, min(3, n)) | st.integers(1, n))
    return points, k, draw(st.integers(0, 25)), draw(st.integers(0, 2**32 - 1))


class TestKmeansOracle:
    """kmeans against ``naive_lloyd``, the same weighted-rows algorithm in
    plain loops, and the property that a fit sees only the multiset of points."""

    @staticmethod
    def assert_same_bits(points, k, iters, seed):
        got = kmeans(points, k, iters, np.random.default_rng(seed))
        want = naive_lloyd(points, k, iters, np.random.default_rng(seed))
        for a, b in zip(got[:2], want[:2]):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert [h.hex() for h in got[2]] == [h.hex() for h in want[2]]
        return got

    @settings(max_examples=300, deadline=None)
    @given(case=kmeans_cases())
    def test_same_centroids_assignment_and_history(self, case):
        self.assert_same_bits(*case)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_dimensional_means(self, seed):
        # 200 distinct 1-D rows, each 1 to 3 times
        rng = np.random.default_rng(seed)
        pts = np.repeat(rng.normal(size=(200, 1)), rng.integers(1, 4, 200), axis=0)
        self.assert_same_bits(pts, 3, 25, seed)

    def test_two_empty_clusters_reseed_in_ascending_order(self):
        # Two rows, k = 4.  The three 5.4s sum to 3 x 5.4, and that over 3 is
        # not 5.4, so a centroid reseeded onto 5.4 takes those rows over.  In
        # the second step clusters 0 and 3 are empty and cluster 2, between
        # them, holds the 5.4s.  Cluster 0 reseeds while centroid 2 is still
        # exactly 5.4: every distance is 0 and the first row, 0.0, wins.
        # Cluster 3 reseeds after centroid 2 has moved off 5.4, and 5.4 wins.
        pts = np.array([[0.0], [5.4], [0.0], [0.0], [5.4], [0.0], [5.4]])
        centroids, assign, _ = self.assert_same_bits(pts, 4, 2, 0)
        drift = 3 * 5.4 / 3
        assert drift != 5.4
        np.testing.assert_array_equal(centroids[:, 0], [0.0, 0.0, drift, 5.4])
        np.testing.assert_array_equal(assign, [0, 3, 0, 0, 3, 0, 3])

    @settings(max_examples=200, deadline=None)
    @given(case=kmeans_cases(), order=st.integers(0, 2**32 - 1))
    def test_shuffled_points_give_the_same_fit(self, case, order):
        points, k, iters, seed = case
        want = kmeans(points, k, iters, np.random.default_rng(seed))
        perm = np.random.default_rng(order).permutation(len(points))
        got = kmeans(points[perm], k, iters, np.random.default_rng(seed))
        assert got[0].tobytes() == want[0].tobytes()
        assert [h.hex() for h in got[2]] == [h.hex() for h in want[2]]
        np.testing.assert_array_equal(got[1], want[1][perm])


class TestUniqueRows:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 40).flatmap(
            lambda c: st.lists(
                st.lists(
                    st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 1e300, -1e-300]),
                    min_size=c,
                    max_size=c,
                ),
                min_size=1,
                max_size=60,
            )
        )
    )
    def test_matches_numpy_unique(self, rows):
        x = np.array(rows)
        got = unique_rows(x)
        want = np.unique(x, axis=0, return_inverse=True)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)  # -0.0 equals 0.0 here

    def test_signed_zeros_are_one_row(self):
        rows, inverse = unique_rows(np.array([[0.0, 1.0], [-0.0, 1.0]]))
        assert rows.shape == (1, 2)
        np.testing.assert_array_equal(inverse, [0, 0])

    def test_single_row(self):
        rows, inverse = unique_rows(np.array([[3.0, -2.0, 0.5]]))
        np.testing.assert_array_equal(rows, [[3.0, -2.0, 0.5]])
        np.testing.assert_array_equal(inverse, [0])


class TestTrainCodebooks:
    def test_exact_points_perfectly_coded(self):
        base = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        feats = np.repeat(base, 8, axis=0)
        cb, _, _ = train_codebooks(feats, np.ones(32), n_base=4, n_res=4, iters=10, seed=5)
        got = sorted(map(tuple, cb.base.embeddings))
        np.testing.assert_allclose(got, sorted(map(tuple, base)), atol=1e-12)
        # residual layer sees only zeros
        np.testing.assert_allclose(cb.res.embeddings, 0.0, atol=1e-12)

    def test_forced_one_dimensional_fixed_point(self):
        feats = np.array([[0.0], [1.0]] * 16)
        cb, _, _ = train_codebooks(feats, np.ones(32), n_base=1, n_res=2, iters=10, seed=2)
        assert cb.base.embeddings[0, 0] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(
            sorted(cb.res.embeddings[:, 0]), [-0.5, 0.5], atol=1e-12
        )
        grid = feats.reshape(8, 4, 1)
        recon = reconstruct(quantize(grid, cb), cb)
        np.testing.assert_allclose(recon, grid, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_returned_indices_are_the_quantize_indices(self, seed):
        rng = np.random.default_rng(seed)
        atoms = np.vstack([rng.integers(0, 2, (6, 3)).astype(float), rng.normal(size=(10, 3))])
        feats = atoms[rng.integers(len(atoms), size=120)]
        cb, base_idx, res_idx = train_codebooks(
            feats, np.ones(len(feats)), n_base=3, n_res=9, iters=15, seed=seed
        )
        idx = quantize(feats.reshape(10, 12, 3), cb)
        for got, want in ((base_idx, idx.base_idx), (res_idx, idx.res_idx)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want.ravel())

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            train_codebooks(np.zeros((4, 2)), np.ones(4), n_base=3, n_res=2)
        with pytest.raises(ValueError):
            train_codebooks(np.zeros((4, 2)), np.ones(4), n_base=2, n_res=9)


class TestQuantize:
    def trained(self, seed=11):
        rng = np.random.default_rng(seed)
        feats = blobs(seed=seed, n=300, d=4, k=6)
        cb, _, _ = train_codebooks(feats, np.ones(300), n_base=4, n_res=16, iters=20, seed=seed)
        return feats, cb

    def test_exact_pair_reconstructs(self):
        _, cb = self.trained()
        cell = cb.base.embeddings[2] + cb.res.embeddings[5]
        grid = np.tile(cell, (2, 2, 1))
        recon = reconstruct(quantize(grid, cb), cb)
        np.testing.assert_allclose(recon, grid, atol=1e-9)

    def test_two_layer_beats_base_only(self):
        feats, cb = self.trained()
        rng = np.random.default_rng(99)
        worse = 0
        for _ in range(100):
            sample = feats[rng.integers(len(feats), size=12)].reshape(3, 4, 4)
            idx = quantize(sample, cb)
            recon = reconstruct(idx, cb)
            base_recon = reconstruct(base_only(idx), cb)
            mse_full = np.mean((recon - sample) ** 2)
            mse_base = np.mean((base_recon - sample) ** 2)
            if mse_full > mse_base + 1e-12:
                worse += 1
        assert worse == 0

    def test_tie_breaks_to_lowest_index(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cb = LayeredCodebook(
            base=Codebook(emb, np.zeros(3), np.zeros(3)),
            res=Codebook(np.zeros((3, 2)), np.zeros(3), np.zeros(3)),
        )
        grid = np.array([[[1.0, 0.0]]])
        idx = quantize(grid, cb)
        assert idx.base_idx[0, 0] == 0

    def test_dimension_mismatch(self):
        _, cb = self.trained()
        with pytest.raises(ValueError, match="channels"):
            quantize(np.zeros((2, 2, 7)), cb)

    def test_requantize_idempotent_with_identity_proj(self):
        feats, cb = self.trained(seed=13)
        rng = np.random.default_rng(4)
        sample = feats[rng.integers(len(feats), size=24)].reshape(4, 6, 4)
        idx1 = quantize(sample, cb)
        recon1 = reconstruct(idx1, cb)
        idx2 = quantize(recon1, cb)
        recon2 = reconstruct(idx2, cb)
        np.testing.assert_array_equal(idx1.base_idx, idx2.base_idx)
        np.testing.assert_array_equal(idx1.res_idx, idx2.res_idx)
        np.testing.assert_allclose(recon1, recon2, atol=1e-12)

    def test_reconstruction_error_bounded_by_residual_radius(self):
        # Given its base index, a fresh cell's residual index is the one of
        # least error; of equal errors, the lowest index.  The errors are
        # summed over channels in index order, as quantize sums them.
        _, cb = self.trained(seed=17)
        fresh = blobs(seed=17, n=120, d=4, k=6)  # same generator, same seed family
        idx = quantize(fresh.reshape(10, 12, 4), cb)
        resid = fresh - cb.base.embeddings[idx.base_idx.ravel()]
        diffs = resid[:, None, :] - cb.res.embeddings[None, :, :]
        errs = sum(diffs[..., c] * diffs[..., c] for c in range(4))
        np.testing.assert_array_equal(idx.res_idx.ravel(), errs.argmin(axis=1))
        recon = reconstruct(idx, cb).reshape(-1, 4)
        assert np.all(np.linalg.norm(recon - fresh, axis=1) <= np.sqrt(errs.min(axis=1)) + 1e-9)


@st.composite
def quantize_cases(draw):
    """(grid, codebook) drawn to hit duplicate rows, all-distinct rows and
    exact ties between equidistant embeddings, on 1x1, 1xw and hx1 grids too."""
    shape = draw(st.sampled_from([(1, 1), (1, 7), (7, 1)]) | st.tuples(
        st.integers(1, 9), st.integers(1, 9)
    ))
    c = draw(st.integers(1, 20))  # from 8 channels on, numpy sums a distance pairwise
    n_base = draw(st.integers(1, 5))
    n_res = draw(st.integers(n_base, 12))
    kind = draw(st.sampled_from(("duplicates", "distinct", "ties")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = shape[0] * shape[1]
    if kind == "ties":  # integer embeddings, half-integer cells: many equal distances
        base = rng.integers(-1, 2, (n_base, c)).astype(float)
        res = rng.integers(-1, 2, (n_res, c)) * 0.5
        grid = rng.integers(-2, 3, (cells, c)) * 0.5
    else:
        base, res = rng.normal(size=(n_base, c)), rng.normal(size=(n_res, c))
        grid = rng.normal(size=(cells, c))
        if kind == "duplicates":  # every cell copies one of the first three rows
            grid = grid[rng.integers(0, min(3, cells), cells)]
    grid = np.where(rng.uniform(size=grid.shape) < 0.2, -0.0, grid)
    cb = LayeredCodebook(*(Codebook(e, np.zeros(len(e)), np.zeros(len(e))) for e in (base, res)))
    return grid.reshape(*shape, c), cb


@st.composite
def distance_cases(draw):
    """(points, centroids, block) with the row count at or next to a block
    edge of ``_nearest`` once ``vq._BLOCK_CELLS`` is ``block``: 1, B - 1, B,
    B + 1 or 2B + 3 rows for B rows per block, up to 65 centroids.  Half the
    cases are integers and half-integers, so many distances tie; the rest
    have magnitudes far apart, so any order but index order rounds differently."""
    k, d = draw(st.integers(1, 65)), draw(st.integers(1, 20))
    block = draw(st.integers(1, 200))
    rows = max(1, block // k)
    n = draw(st.sampled_from([m for m in (1, rows - 1, rows, rows + 1, 2 * rows + 3) if m]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points, centroids = (rng.integers(-2, 3, (m, d)) * 0.5 for m in (n, k))
    else:
        points, centroids = (
            rng.normal(size=(m, d)) * 10.0 ** rng.integers(-6, 6, (m, d)) for m in (n, k)
        )
    points[rng.uniform(size=points.shape) < 0.2] = -0.0
    centroids[rng.uniform(size=centroids.shape) < 0.2] = -0.0
    return points, centroids, block


class TestSqDistsOracle:
    """The per-channel planes against the sum over each row's last axis.
    An argmin hides most last-bit changes, so the distances are compared;
    ``_nearest`` is compared per row across its blocks."""

    @settings(max_examples=300, deadline=None)
    @given(case=distance_cases())
    def test_same_distances(self, case):
        points, centroids, _ = case
        got, want = vq._sq_dists(points, centroids), oracle.sq_dists(points, centroids)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @settings(max_examples=200, deadline=None)
    @given(case=distance_cases())
    def test_each_entry_equals_its_own_call(self, case):
        # Scene quantizes all agents' cells in one call, so an entry must
        # not depend on the rows and centroids searched with it
        points, centroids, _ = case
        got = vq._sq_dists(points, centroids)
        alone = [[vq._sq_dists(p[None], c[None])[0, 0] for c in centroids] for p in points]
        assert got.tobytes() == np.array(alone).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=distance_cases())
    def test_nearest_is_the_argmin_of_every_block(self, case):
        points, centroids, block = case
        with mock.patch.object(vq, "_BLOCK_CELLS", block):
            got = vq._nearest(points, centroids)
        want = oracle.sq_dists(points, centroids).argmin(axis=1)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def normal_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d))


class TestNearestAtScale:
    """8192 distinct rows against 64 centroids in 8 channels, where one
    (channels, rows, centroids) temporary peaked at 37.7 MB."""

    N, K, D = 8192, 64, 8

    def test_peak_memory_is_a_few_blocks(self):
        points, centroids = normal_rows(self.N, self.D, 1), normal_rows(self.K, self.D, 2)
        assert len(unique_rows(points)[0]) == self.N
        tracemalloc.start()
        try:
            vq._nearest(points, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 0.33 MB, against 37.7 MB for the 3-D temporary.  The
        # bound is two (rows, centroids) tables; that temporary is eight.
        assert peak < 2 * self.N * self.K * 8

    def test_quantize_matches_the_per_cell_search(self):
        # 10 base rows leave a partial last block (819 rows a block)
        grid = normal_rows(self.N, self.D, 3).reshape(64, 128, self.D)
        cb = LayeredCodebook(*(
            Codebook(normal_rows(k, self.D, 4 + k), np.zeros(k), np.zeros(k))
            for k in (10, self.K)
        ))
        got, (want, _) = quantize(grid, cb), oracle.quantize(grid, cb)
        for a, b in ((got.base_idx, want.base_idx), (got.res_idx, want.res_idx)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestQuantizeOracle:
    """Quantization per distinct row against the per-cell search it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=quantize_cases())
    def test_same_indices_and_reconstruction(self, case):
        grid, cb = case
        got, (want, want_recon) = quantize(grid, cb), oracle.quantize(grid, cb)
        got_recon = reconstruct(got, cb)
        for a, b in ((got.base_idx, want.base_idx), (got.res_idx, want.res_idx),
                     (got_recon, want_recon)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_equidistant_embeddings_tie_to_the_lowest_index(self):
        cb = LayeredCodebook(
            base=Codebook(np.array([[2.0, 0.0], [0.0, 0.0]]), np.zeros(2), np.zeros(2)),
            res=Codebook(np.array([[0.0, 0.5], [0.0, -0.5]]), np.zeros(2), np.zeros(2)),
        )
        idx = quantize(np.tile([1.0, 0.0], (3, 2, 1)), cb)
        assert np.all(idx.base_idx == 0) and np.all(idx.res_idx == 0)


class TestAccumulateConfFreq:
    """train_codebooks tallies each embedding's confidence and row count."""

    # base clusters split on x, residual clusters on the sign of y
    FEATS = np.array([[0.0, 1.0], [0.0, -1.0], [100.0, 1.0], [100.0, -1.0], [100.0, 1.0]])

    def tallies(self, conf, feats=FEATS, n_base=2, n_res=2):
        return train_codebooks(feats, conf, n_base=n_base, n_res=n_res, iters=10, seed=3)[0]

    def by_cluster(self, cb, name):
        """A layer's tally in cluster order: base by x, residual by y."""
        base, res = getattr(cb.base, name), getattr(cb.res, name)
        return (
            base[np.argsort(cb.base.embeddings[:, 0])],
            res[np.argsort(-cb.res.embeddings[:, 1])],
        )

    def test_zero_confidence_only_counts(self):
        cb = self.tallies(np.zeros(5))
        np.testing.assert_array_equal(cb.base.conf_freq, [0.0, 0.0])
        np.testing.assert_array_equal(cb.res.conf_freq, [0.0, 0.0])
        base, res = self.by_cluster(cb, "occ_freq")
        np.testing.assert_array_equal(base, [2.0, 3.0])
        np.testing.assert_array_equal(res, [3.0, 2.0])

    def test_uniform_confidence_matches_counts(self):
        feats = blobs(seed=3, n=80, d=2, k=5)
        cb = self.tallies(np.ones(len(feats)), feats, n_base=3, n_res=6)
        np.testing.assert_array_equal(cb.base.conf_freq, cb.base.occ_freq)
        np.testing.assert_array_equal(cb.res.conf_freq, cb.res.occ_freq)
        assert cb.base.occ_freq.sum() == cb.res.occ_freq.sum() == len(feats)

    def test_hand_computed_sums(self):
        cb = self.tallies(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        base, res = self.by_cluster(cb, "conf_freq")
        np.testing.assert_allclose(base, [0.1 + 0.2, 0.3 + 0.4 + 0.5], atol=1e-12)
        np.testing.assert_allclose(res, [0.1 + 0.3 + 0.5, 0.2 + 0.4], atol=1e-12)

    def test_conf_bounded_by_occupancy_for_unit_confidences(self):
        rng = np.random.default_rng(31)
        feats = blobs(seed=31, n=60, d=3, k=4)
        cb = self.tallies(rng.uniform(0, 1, size=len(feats)), feats, n_base=3, n_res=5)
        assert np.all(cb.base.conf_freq <= cb.base.occ_freq)
        assert np.all(cb.res.conf_freq <= cb.res.occ_freq)

    def test_shape_mismatch(self):
        for conf in (np.zeros(4), np.zeros(6), np.zeros((5, 1))):
            with pytest.raises(ValueError, match="one confidence per feature row"):
                self.tallies(conf)


@st.composite
def codebooks(draw, max_size=4):
    d = draw(st.integers(1, max_size - 1))
    n_base = draw(st.integers(1, max_size - 1))
    n_res = draw(st.integers(n_base, max_size))
    freq = st.floats(0, allow_infinity=False)
    books = [
        Codebook(
            draw(float_arrays((n, d))), draw(float_arrays(n, freq)), draw(float_arrays(n, freq))
        )
        for n in (n_base, n_res)
    ]
    return LayeredCodebook(*books)


class TestCodebookIO:
    @settings(max_examples=100, deadline=None)
    @given(cb=codebooks())
    def test_round_trip_bit_for_bit(self, cb, tmp_path_factory):
        path = tmp_path_factory.mktemp("cb") / "codebook.txt"
        save_codebook(cb, str(path))
        back = load_codebook(str(path))
        for book, got in ((cb.base, back.base), (cb.res, back.res)):
            for name in ("embeddings", "conf_freq", "occ_freq"):
                assert_same_bits(getattr(got, name), getattr(book, name))

    @settings(max_examples=20, deadline=None)
    @given(cb=codebooks(max_size=3), extra=extra_lines)
    def test_corrupted_files_rejected(self, cb, extra, tmp_path_factory):
        path = tmp_path_factory.mktemp("cb") / "codebook.txt"
        save_codebook(cb, str(path))
        assert_corruptions_rejected(path, load_codebook, extra)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_conf_freq", [1.0]),  # one tally for two embeddings
            ("res_occ_freq", [-1.0] * 4),  # negative tallies
            ("res_embeddings", np.ones((4, 3))),  # another dimension than base
        ],
    )
    def test_inconsistent_layers_rejected(self, field, value, tmp_path):
        arrays = {
            "base_embeddings": np.ones((2, 2)), "base_conf_freq": np.ones(2),
            "base_occ_freq": np.ones(2), "res_embeddings": np.ones((4, 2)),
            "res_conf_freq": np.ones(4), "res_occ_freq": np.ones(4),
        }
        path = tmp_path / "codebook.txt"
        textio.save_arrays(str(path), {**arrays, field: value})
        with pytest.raises(ValueError, match="codebook.txt"):
            load_codebook(str(path))

    def test_round_trip_identity_proj(self, tmp_path):
        feats = blobs(seed=41, n=100, d=3, k=4)
        conf = np.random.default_rng(0).uniform(size=len(feats))
        cb, _, _ = train_codebooks(feats, conf, n_base=3, n_res=8, iters=15, seed=41)
        path = tmp_path / "cb.txt"
        save_codebook(cb, str(path))
        back = load_codebook(str(path))
        np.testing.assert_array_equal(back.base.embeddings, cb.base.embeddings)
        np.testing.assert_array_equal(back.res.embeddings, cb.res.embeddings)
        np.testing.assert_array_equal(back.base.conf_freq, cb.base.conf_freq)
        np.testing.assert_array_equal(back.res.occ_freq, cb.res.occ_freq)


@st.composite
def partial_grids(draw):
    """(index grid, codebook) whose cells are absent, base-only or two-layer,
    with residual indices also on some cells that lack a base index."""
    h, w, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 20))
    n_base = draw(st.integers(1, 5))
    n_res = draw(st.integers(n_base, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base, res = rng.normal(size=(n_base, c)), rng.normal(size=(n_res, c))
    base[rng.uniform(size=base.shape) < 0.2] = -0.0
    cb = LayeredCodebook(*(Codebook(e, np.zeros(len(e)), np.zeros(len(e))) for e in (base, res)))
    base_idx = np.where(rng.uniform(size=(h, w)) < 0.3, -1, rng.integers(0, n_base, (h, w)))
    res_idx = np.where(rng.uniform(size=(h, w)) < 0.4, -1, rng.integers(0, n_res, (h, w)))
    return IndexGrid(base_idx, res_idx), cb


class TestPartialReconstruction:
    def test_absent_cells_stay_zero(self):
        emb = np.array([[1.0, 1.0], [2.0, 2.0]])
        cb = LayeredCodebook(
            base=Codebook(emb, np.zeros(2), np.zeros(2)),
            res=Codebook(np.full((2, 2), 0.5), np.zeros(2), np.zeros(2)),
        )
        idx = IndexGrid(np.array([[0, -1], [1, -1]]), np.array([[0, -1], [-1, 1]]))
        out = reconstruct(idx, cb)
        np.testing.assert_allclose(out[0, 0], [1.5, 1.5])  # both layers
        np.testing.assert_allclose(out[1, 0], [2.0, 2.0])  # base only
        np.testing.assert_allclose(out[:, 1], 0.0)  # no base index

    @settings(max_examples=200, deadline=None)
    @given(case=partial_grids())
    def test_matches_the_received_grid_oracle(self, case):
        idx, cb = case
        got, want = reconstruct(idx, cb), oracle.received_grid(idx, cb)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
