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
    """Independent reference: identical seeding procedure, two-loop updates."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.array([np.sum((p - centroids[0]) ** 2) for p in points])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = points[rng.integers(n)]
        else:
            centroids[i] = points[rng.choice(n, p=d2 / total)]
        for j, p in enumerate(points):
            d2[j] = min(d2[j], np.sum((p - centroids[i]) ** 2))

    def assign_all():
        out = np.empty(n, dtype=int)
        for j, p in enumerate(points):
            best, best_d = 0, np.inf
            for c in range(k):
                d = np.sum((p - centroids[c]) ** 2)
                if d < best_d:
                    best, best_d = c, d
            out[j] = best
        return out

    assign = assign_all()
    prev = None
    for _ in range(iters):
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                dists = np.array(
                    [np.sum((points[j] - centroids[assign[j]]) ** 2) for j in range(n)]
                )
                centroids[c] = points[dists.argmax()]
        new_assign = assign_all()
        if prev is not None and np.array_equal(new_assign, assign):
            assign = new_assign
            break
        prev = assign
        assign = new_assign
    sse = sum(np.sum((points[j] - centroids[assign[j]]) ** 2) for j in range(n))
    return centroids, assign, sse


def kmeans_every_point(points, k, iters, rng):
    """kmeans as it was before the distinct-row search: every point is
    assigned on its own.  The distinct-row version must match it bit for bit."""

    def nearest(pts, centroids):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return d2.argmin(axis=1)

    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
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

    assign = nearest(points, centroids)
    history = []
    for _ in range(iters):
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                far = ((points - centroids[assign]) ** 2).sum(axis=1).argmax()
                centroids[c] = points[far]
        new_assign = nearest(points, centroids)
        sse = float(((points - centroids[new_assign]) ** 2).sum())
        history.append(sse)
        if np.array_equal(new_assign, assign) and len(history) > 1:
            assign = new_assign
            break
        assign = new_assign
    return centroids, assign, history


def blobs(seed=0, n=120, d=3, k=4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(k, d))
    pts = centers[rng.integers(k, size=n)] + rng.normal(scale=0.3, size=(n, d))
    return pts


def base_only(idx):
    """The grid's base indices with every residual index dropped."""
    return IndexGrid(idx.base_idx, np.full_like(idx.res_idx, -1))


class TestKmeans:
    def test_sse_matches_naive_reference(self):
        pts = blobs(seed=7)
        c1, a1, hist = kmeans(pts, 4, 15, np.random.default_rng(42))
        c2, a2, sse2 = naive_lloyd(pts, 4, 15, np.random.default_rng(42))
        assert hist[-1] == pytest.approx(sse2, abs=1e-9)
        np.testing.assert_allclose(c1, c2, atol=1e-9)

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

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 4, 12, 30])
    def test_duplicate_rows_match_every_point_search(self, seed, k):
        rng = np.random.default_rng(seed)
        atoms = np.vstack(
            [rng.integers(0, 2, size=(12, 3)).astype(float), rng.normal(size=(20, 3))]
        )
        pts = atoms[rng.integers(len(atoms), size=300)]
        got = kmeans(pts, k, 25, np.random.default_rng(seed))
        want = kmeans_every_point(pts, k, 25, np.random.default_rng(seed))
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(a, b)
        assert got[2] == want[2]


@st.composite
def kmeans_cases(draw):
    """(points, k, iters, seed) with heavy duplicates: every row is one of a
    few atoms, so k up to n leaves clusters empty and forces reseeding."""
    # at d = 1 a mean sums one contiguous column, pairwise; half the cases
    d = draw(st.just(1) | st.integers(2, 9))
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5.4, 0.1]) | st.floats(
        -10, 10, allow_nan=False, allow_subnormal=False
    )
    atoms = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=8))
    rows = draw(st.lists(st.integers(0, len(atoms) - 1), min_size=1, max_size=60))
    points = np.array(atoms)[rows]
    # small k gives clusters of many rows, where a mean's summation order shows
    k = draw(st.integers(1, min(3, len(points))) | st.integers(1, len(points)))
    return points, k, draw(st.integers(0, 25)), draw(st.integers(0, 2**32 - 1))


class TestKmeansOracle:
    """kmeans against the every-point, every-centroid Lloyd it replaced."""

    @staticmethod
    def assert_same_bits(points, k, iters, seed):
        got = kmeans(points, k, iters, np.random.default_rng(seed))
        want = kmeans_every_point(points, k, iters, np.random.default_rng(seed))
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
        # a (m, 1) mean sums its column pairwise, not in row order
        pts = np.random.default_rng(seed).normal(size=(200, 1))
        self.assert_same_bits(pts, 3, 25, seed)

    def test_two_empty_clusters_reseed_in_ascending_order(self):
        # Two atoms, k = 4.  The mean of three copies of 5.4 is not 5.4, so a
        # centroid reseeded onto a 5.4 point takes those points over.  In the
        # second step clusters 1 and 3 are empty and cluster 2, between them,
        # holds the 5.4s.  Cluster 1 reseeds while centroid 2 is still exactly
        # 5.4: every distance is 0 and point 0 wins.  Cluster 3 reseeds after
        # centroid 2 has moved off 5.4, and point 1 wins.
        pts = np.array([[0.0], [5.4], [0.0], [0.0], [5.4], [0.0], [5.4]])
        centroids, assign, _ = self.assert_same_bits(pts, 4, 2, 0)
        drift = np.full((3, 1), 5.4).mean(axis=0)[0]
        assert drift != 5.4
        np.testing.assert_array_equal(centroids[:, 0], [0.0, 0.0, drift, 5.4])
        np.testing.assert_array_equal(assign, [0, 3, 0, 0, 3, 0, 3])


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
        # radius measured on the training sample, errors on fresh draws from
        # the same blob distribution
        feats, cb = self.trained(seed=17)
        idx_train = quantize(feats.reshape(-1, 1, 4), cb)
        resid = feats - cb.base.embeddings[idx_train.base_idx.ravel()]
        radius = np.linalg.norm(
            resid - cb.res.embeddings[idx_train.res_idx.ravel()], axis=1
        ).max()
        fresh = blobs(seed=17, n=120, d=4, k=6)  # same generator, same seed family
        recon = reconstruct(quantize(fresh.reshape(10, 12, 4), cb), cb)
        errs = np.linalg.norm(recon.reshape(-1, 4) - fresh, axis=1)
        assert errs.max() <= radius + 1e-9


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


class TestSqDistsOracle:
    """The per-channel planes against the sum over each row's last axis.
    An argmin hides most last-bit changes, so the distances are compared."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 30), k=st.integers(1, 20), d=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_same_distances(self, n, k, d, seed):
        points, centroids = self.draw(n, k, d, seed)
        got, want = vq._sq_dists(points, centroids), oracle.sq_dists(points, centroids)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 30), k=st.integers(1, 20), d=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_each_entry_equals_its_own_call(self, n, k, d, seed):
        # Scene quantizes all agents' cells in one call, so an entry must
        # not depend on the rows and centroids searched with it
        points, centroids = self.draw(n, k, d, seed)
        got = vq._sq_dists(points, centroids)
        alone = [[vq._sq_dists(p[None], c[None])[0, 0] for c in centroids] for p in points]
        assert got.tobytes() == np.array(alone).tobytes()

    @staticmethod
    def draw(n, k, d, seed):
        # from 8 channels on, numpy's .sum adds a row pairwise; magnitudes
        # far apart make any order but index order round differently
        rng = np.random.default_rng(seed)
        points, centroids = (
            rng.normal(size=(m, d)) * 10.0 ** rng.integers(-6, 6, (m, d)) for m in (n, k)
        )
        points[rng.uniform(size=points.shape) < 0.2] = -0.0
        return points, centroids


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
