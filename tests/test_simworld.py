import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sweep_oracle as oracle
from array_files import assert_corruptions_rejected, assert_same_bits, extra_lines

from pragcomm.bayes_risk import bayes_risk_ce
from pragcomm.entropy_coder import SIDE_BITS
from pragcomm.infotheory import JointTable
from pragcomm.simworld import (
    UNOBSERVED,
    WorldConfig,
    _channel,
    class_prior,
    confidence,
    extract_features,
    fov_mask,
    fuse,
    generate,
    posterior_from_features,
    posterior_from_obs,
    save_labels,
    score_iou,
    smooth,
)
from pragcomm.textio import load_arrays


def cfg_full(noise=0.0, density=0.5, seed=0, **kw):
    return WorldConfig(
        h=16, w=16, noise=noise, density=density, seed=seed,
        fovs=(("full",), ("full",)), **kw
    )


class TestConfig:
    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            cfg_full(noise=0.5)

    def test_rejects_bad_fov(self):
        with pytest.raises(ValueError, match="rect"):
            WorldConfig(h=8, w=8, fovs=((("rect", 0, 0, 9, 8),), ("full",)))

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="^fov_1: unknown field-of-view shape"):
            WorldConfig(h=8, w=8, fovs=(("full",), (("blob", 1),)))

    @pytest.mark.parametrize("values", [
        (8, 8, 3, math.nan, 90), (8, 8, 3, math.inf, 90), (8, 8, 3, -math.inf, 90),
        (8, 8, 3, 0, math.nan), (8, 8, 3, 0, -math.inf), (8, 8, math.inf, 0, 90),
    ])
    def test_rejects_non_finite_sector(self, values):
        with pytest.raises(ValueError, match="^fov_0: sector .* finite radius and angles"):
            WorldConfig(h=16, w=16, fovs=((("sector", *values),), ("full",)))

    def test_rectangle_filling_the_grid_needs_zero_density(self):
        with pytest.raises(ValueError, match="rect_min = rect_max = 3 fills"):
            WorldConfig(h=3, w=3, density=0.5, rect_min=3, rect_max=3)
        cfg = WorldConfig(h=3, w=3, density=0.0, rect_min=3, rect_max=3)
        assert class_prior(cfg)[0] == 1.0

    def test_grid_side_bounded_by_the_wire_format(self):
        side = 1 << SIDE_BITS  # one past the largest h or w the wire format holds
        for h, w in ((side, 8), (8, side)):
            with pytest.raises(ValueError, match=f"{h}x{w} does not fit .* 16-bit"):
                WorldConfig(h=h, w=w)
        assert WorldConfig(h=side - 1, w=side - 1).h == side - 1

    def test_agent_count_bounds(self):
        with pytest.raises(ValueError):
            WorldConfig(n_agents=1, fovs=(("full",),))


class TestGenerate:
    def test_zero_density_all_background(self):
        gt, obs = generate(cfg_full(density=0.0))
        assert np.all(gt == 0)

    def test_noiseless_full_fov_observation_equals_truth(self):
        gt, obs = generate(cfg_full(noise=0.0, density=0.4, seed=3))
        np.testing.assert_array_equal(obs[0], gt)
        np.testing.assert_array_equal(obs[1], gt)

    def test_fixed_seed_bit_identical(self):
        cfg = cfg_full(noise=0.1, density=0.5, seed=7)
        gt1, obs1 = generate(cfg)
        gt2, obs2 = generate(cfg)
        np.testing.assert_array_equal(gt1, gt2)
        np.testing.assert_array_equal(obs1, obs2)

    def test_outside_fov_unobserved(self):
        cfg = WorldConfig(
            h=8, w=8, density=0.5, seed=1,
            fovs=((("rect", 0, 0, 8, 4),), ("full",)),
        )
        _, obs = generate(cfg)
        assert np.all(obs[0][:, 4:] == UNOBSERVED)
        assert np.all(obs[0][:, :4] != UNOBSERVED)

    def test_empirical_coverage_matches_prior(self):
        cfg = WorldConfig(h=64, w=64, density=0.5, rect_min=1, rect_max=1, seed=11)
        prior = class_prior(cfg)
        covered = []
        for seed in range(30):
            gt, _ = generate(
                WorldConfig(h=64, w=64, density=0.5, rect_min=1, rect_max=1, seed=seed)
            )
            covered.append((gt != 0).mean())
        assert np.mean(covered) == pytest.approx(1 - prior[0], abs=0.01)

    def test_sector_fov(self):
        cfg = WorldConfig(
            h=16, w=16, fovs=((("sector", 8, 8, 6.0, 0, 90),), ("full",))
        )
        mask = fov_mask(cfg, 0)
        assert mask[8, 8]  # center at angle 0
        assert mask[12, 8]  # straight down is 90 degrees
        assert not mask[4, 8]  # straight up is 270 degrees
        assert not mask[8, 15]  # beyond the radius

    def test_sector_wrapping_through_zero_degrees(self):
        # 300 to 60 degrees covers the cells right of the centre within 2
        cfg = WorldConfig(
            h=5, w=5, rect_min=1, rect_max=3,
            fovs=((("sector", 2, 2, 2.0, 300, 60),), ("full",)),
        )
        want = np.zeros((5, 5), dtype=bool)
        want[1, 3] = want[3, 3] = True  # at 315 and 45 degrees
        want[2, 2:] = True  # the centre (its angle is 0) and the two cells at 0 degrees
        np.testing.assert_array_equal(fov_mask(cfg, 0), want)


class TestExtractFeatures:
    def test_unobserved_cell_zero_vector(self):
        obs = np.full((4, 4), UNOBSERVED)
        obs[0, 0] = 1
        feat = extract_features(obs, cfg_full())
        assert np.all(feat[2, 2] == 0.0)

    def test_isolated_cell_pure_one_hot(self):
        obs = np.full((5, 5), UNOBSERVED)
        obs[2, 2] = 3
        feat = extract_features(obs, cfg_full())
        want = np.zeros(8)
        want[3] = 1.0
        np.testing.assert_array_equal(feat[2, 2], want)

    def test_hand_computed_histogram(self):
        cfg = cfg_full()
        obs = np.full((3, 3), UNOBSERVED)
        obs[0, 0] = 1
        obs[0, 1] = 2
        obs[1, 1] = 0
        feat = extract_features(obs, cfg)
        # center (1,1): neighbours observed = {1, 2}; one each over 2 observed
        want = np.zeros(8)
        want[0] = 1.0  # own one-hot for class 0
        want[4 + 1] = 0.5
        want[4 + 2] = 0.5
        np.testing.assert_allclose(feat[1, 1], want, atol=1e-12)


class TestPosterior:
    def test_noiseless_observation_is_deterministic(self):
        cfg = cfg_full(noise=0.0)
        obs = np.full((2, 2), UNOBSERVED)
        obs[0, 0] = 2
        post = posterior_from_obs(obs, cfg)
        want = np.zeros(4)
        want[2] = 1.0
        np.testing.assert_allclose(post[0, 0], want, atol=1e-12)

    def test_unobserved_cell_carries_prior(self):
        cfg = cfg_full(noise=0.1)
        obs = np.full((2, 2), UNOBSERVED)
        post = posterior_from_obs(obs, cfg)
        np.testing.assert_allclose(post[1, 1], class_prior(cfg), atol=1e-12)

    def test_two_agreeing_agents_sharpen(self):
        cfg = cfg_full(noise=0.2)
        obs = np.full((1, 1), 1)
        single = posterior_from_obs(obs, cfg)[0, 0]
        fused = posterior_from_obs([obs, obs], cfg)[0, 0]
        ent = lambda p: -(p[p > 0] * np.log(p[p > 0])).sum()
        assert ent(fused) < ent(single)
        assert fused[1] > single[1]

    def test_matches_hand_bayes_rule(self):
        cfg = cfg_full(noise=0.1)
        prior = class_prior(cfg)
        chan = _channel(cfg.n_classes, cfg.agent_noise(0))
        obs = np.full((1, 1), 2)
        post = posterior_from_obs(obs, cfg)[0, 0]
        want = prior * chan[2, :]
        want /= want.sum()
        np.testing.assert_allclose(post, want, atol=1e-12)

    def test_feature_path_matches_obs_path_on_crisp_input(self):
        cfg = cfg_full(noise=0.1, density=0.5, seed=5)
        _, obs = generate(cfg)
        feat = extract_features(obs[0], cfg)
        p_obs = posterior_from_obs(obs[0], cfg)
        p_feat = posterior_from_features(feat, cfg, cfg.agent_noise(0))
        np.testing.assert_allclose(p_feat, p_obs, atol=1e-9)

    def test_fused_one_hots_product_rule(self):
        cfg = cfg_full(noise=0.1)
        a = np.full((1, 1), 1)
        b = np.full((1, 1), 2)
        feat = fuse(extract_features(a, cfg), extract_features(b, cfg))
        got = posterior_from_features(feat, cfg, cfg.agent_noise(0))[0, 0]
        want = posterior_from_obs([a, b], cfg)[0, 0]
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestConfidence:
    def test_background_certain_cell_zero(self):
        cfg = cfg_full(noise=0.0)
        obs = np.zeros((1, 1), dtype=int)
        feat = extract_features(obs, cfg)
        assert confidence(feat, cfg, cfg.noise)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_object_certain_cell_one(self):
        cfg = cfg_full(noise=0.0)
        obs = np.full((1, 1), 3)
        feat = extract_features(obs, cfg)
        assert confidence(feat, cfg, cfg.noise)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_noisy_object_observation_closed_form(self):
        cfg = cfg_full(noise=0.1)
        obs = np.full((1, 1), 1)
        feat = extract_features(obs, cfg)
        prior = class_prior(cfg)
        chan = _channel(cfg.n_classes, cfg.agent_noise(0))
        post = prior * chan[1, :]
        post /= post.sum()
        assert confidence(feat, cfg, cfg.noise)[0, 0] == pytest.approx(1 - post[0], abs=1e-9)


class TestFuseAndSmooth:
    def test_fuse_with_zero_is_identity(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(3, 3, 4))
        np.testing.assert_array_equal(fuse(a, np.zeros_like(a)), a)

    def test_fuse_identical_grids(self):
        a = np.random.default_rng(2).uniform(size=(3, 3, 4))
        np.testing.assert_array_equal(fuse(a, a), a)

    def test_fuse_disjoint_supports(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        a[0, 0, 0] = 1.0
        b[1, 1, 1] = 2.0
        fused = fuse(a, b)
        assert (fused != 0).sum() == 2

    def test_smooth_dense_grid_unchanged(self):
        a = np.random.default_rng(3).uniform(0.1, 1.0, size=(4, 4, 3))
        np.testing.assert_array_equal(smooth(a), a)

    def test_smooth_single_cell_spreads_half(self):
        a = np.zeros((3, 3, 2))
        a[1, 1] = [1.0, 0.5]
        out = smooth(a)
        np.testing.assert_array_equal(out[1, 1], [1.0, 0.5])
        for r, c in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
            np.testing.assert_allclose(out[r, c], [0.5, 0.25], atol=1e-12)

    def test_smooth_averages_multiple_neighbours(self):
        a = np.zeros((1, 3, 1))
        a[0, 0, 0] = 1.0
        a[0, 2, 0] = 3.0
        out = smooth(a)
        assert out[0, 1, 0] == pytest.approx(0.5 * 2.0, abs=1e-12)


GRID_SHAPES = st.sampled_from([(1, 1), (1, 7), (7, 1)]) | st.tuples(
    st.integers(1, 9), st.integers(1, 9)
)


def assert_same_bytes(got, want):
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def assert_same_bytes_but_nan_sign(got, want):
    """Equal bytes, except that NaN lanes only have to be NaN on both sides.

    IEEE 754 does not specify the sign of a NaN result, and numpy's add
    picks either operand's NaN depending on which inner loop runs.
    """
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestNeighbourSumOracle:
    """The padded neighbour sums against the per-shift slice loops they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(shape=GRID_SHAPES, c=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           p_zero=st.floats(0.0, 1.0))
    # a sum of -inf, +inf and a NaN: the two sides' NaNs differ in sign only
    @example(shape=(4, 8), c=3, seed=113, p_zero=0.25)
    def test_smooth_matches_oracle(self, shape, c, seed, p_zero):
        # sparse cells hold +-0.0 in every channel; nonzero cells may hold
        # -0.0, +-inf and NaN in some channels
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(*shape, c))
        odd = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan], size=grid.shape)
        grid = np.where(rng.uniform(size=grid.shape) < 0.2, odd, grid)
        sparse = rng.uniform(size=shape) < p_zero
        grid[sparse] = rng.choice([-0.0, 0.0], size=(int(sparse.sum()), c))
        with np.errstate(invalid="ignore"):
            assert_same_bytes_but_nan_sign(smooth(grid), oracle.smooth(grid))

    @settings(max_examples=300, deadline=None)
    @given(shape=GRID_SHAPES, k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           p_seen=st.floats(0.0, 1.0))
    def test_extract_features_matches_oracle(self, shape, k, seed, p_seen):
        rng = np.random.default_rng(seed)
        # no rectangles: a 1x1 one would fill a 1x1 grid
        cfg = WorldConfig(
            h=shape[0], w=shape[1], n_classes=k, density=0.0, rect_min=1, rect_max=1
        )
        obs = rng.integers(0, k, shape)
        obs[rng.uniform(size=shape) >= p_seen] = UNOBSERVED
        assert_same_bytes(extract_features(obs, cfg), oracle.extract_features(obs, cfg))

    def test_smooth_rejects_a_grid_without_channels(self):
        with pytest.raises(ValueError, match="h, w, c"):
            smooth(np.zeros((3, 3)))


FLIPS = st.sampled_from([0.0, 0.05, 0.25]) | st.floats(0.0, 0.5, exclude_max=True)


@st.composite
def posterior_worlds(draw):
    """Worlds whose prior and channels vary: zero noise, per-agent noise and
    zero density (a prior with zero entries) included.  From 8 classes on,
    numpy's .sum would add a cell's posterior pairwise."""
    k, n = draw(st.integers(2, 10)), draw(st.integers(2, 5))
    side = draw(st.integers(2, 16))
    rect_max = draw(st.integers(1, side - 1))
    return WorldConfig(
        h=side, w=side, n_classes=k, n_agents=n, fovs=(("full",),) * n,
        noise=draw(FLIPS | st.tuples(*[FLIPS] * n)),
        density=draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)),
        rect_min=draw(st.integers(1, rect_max)), rect_max=rect_max,
    )


class TestPosteriorOracle:
    """Both posteriors, built from one shared log prior and log channel,
    against the versions that built their own on every call."""

    @settings(max_examples=300, deadline=None)
    @given(cfg=posterior_worlds(), shape=GRID_SHAPES, n_grids=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), p_seen=st.floats(0.0, 1.0),
           name_agents=st.booleans())
    def test_posterior_from_obs_matches_oracle(
        self, cfg, shape, n_grids, seed, p_seen, name_agents
    ):
        rng = np.random.default_rng(seed)
        n_grids = min(n_grids, cfg.n_agents)  # grid i comes from agent i by default
        grids = rng.integers(0, cfg.n_classes, (n_grids, *shape))
        grids[rng.uniform(size=grids.shape) >= p_seen] = UNOBSERVED
        obs = grids[0] if n_grids == 1 else list(grids)  # one grid may come bare
        agents = rng.integers(0, cfg.n_agents, n_grids).tolist() if name_agents else None
        assert_same_bytes(
            posterior_from_obs(obs, cfg, agents), oracle.posterior_from_obs(obs, cfg, agents)
        )

    @settings(max_examples=300, deadline=None)
    @given(cfg=posterior_worlds(), shape=GRID_SHAPES, seed=st.integers(0, 2**32 - 1),
           noise=FLIPS)
    def test_posterior_from_features_matches_oracle(self, cfg, shape, seed, noise):
        feat = soft_features(seed, shape, cfg.n_classes)
        assert_same_bytes(
            posterior_from_features(feat, cfg, noise),
            oracle.posterior_from_features(feat, cfg, noise),
        )

    @settings(max_examples=200, deadline=None)
    @given(cfg=posterior_worlds(), shape=GRID_SHAPES, seed=st.integers(0, 2**32 - 1),
           noise=FLIPS)
    def test_each_cell_equals_its_own_decode(self, cfg, shape, seed, noise):
        # a cell's posterior must not depend on the grid it is decoded in
        feat = soft_features(seed, shape, cfg.n_classes)
        post = posterior_from_features(feat, cfg, noise)
        for r, c in np.ndindex(shape):
            alone = posterior_from_features(feat[r : r + 1, c : c + 1], cfg, noise)
            assert_same_bytes(post[r, c], alone[0, 0])


def soft_features(seed, shape, k):
    """Features with soft evidence below the 1e-6 cut, above the cap of 8,
    +-0.0, +-inf and NaN."""
    rng = np.random.default_rng(seed)
    feat = rng.uniform(-1.0, 10.0, size=(*shape, 2 * k))
    odd = rng.choice([0.0, -0.0, 1e-7, 1.0, 8.0, np.inf, -np.inf, np.nan], size=feat.shape)
    return np.where(rng.uniform(size=feat.shape) < 0.3, odd, feat)


def fov_shapes(h, w):
    """One field-of-view shape of each kind on an h x w grid."""
    rect = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)).flatmap(
        lambda rc: st.tuples(
            st.just("rect"), st.just(rc[0]), st.just(rc[1]),
            st.integers(rc[0] + 1, h), st.integers(rc[1] + 1, w),
        )
    )
    angles = st.floats(-360.0, 720.0)
    sector = st.tuples(
        st.just("sector"), st.integers(0, h - 1), st.integers(0, w - 1),
        st.floats(0.5, 12.0), angles, angles,
    )
    return st.just("full") | rect | sector


@st.composite
def generated_worlds(draw):
    """Worlds with grid sides down to 1, rect_min == rect_max, 2 to 6
    classes, density 0, 2 to 5 agents and every field-of-view kind."""
    h, w, n = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(2, 5))
    rect_max = draw(st.integers(1, min(h, w)))
    rect_min = draw(st.integers(1, rect_max) | st.just(rect_max))
    fills_grid = rect_min == h == w == rect_max
    return WorldConfig(
        h=h, w=w, n_classes=draw(st.integers(2, 6)), n_agents=n,
        fovs=tuple(draw(st.lists(fov_shapes(h, w), min_size=1, max_size=2).map(tuple))
                   for _ in range(n)),
        noise=draw(FLIPS | st.tuples(*[FLIPS] * n)),
        density=0.0 if fills_grid else draw(st.just(0.0) | st.floats(0.0, 0.95)),
        rect_min=rect_min, rect_max=rect_max, seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestGenerateOracle:
    """``generate`` against the loop that drew each rectangle's integers in
    scalar calls and wrote every rectangle through ``np.ix_``."""

    @settings(max_examples=300, deadline=None)
    @given(cfg=generated_worlds())
    # most rectangles of 3 to 4 cells on a 4 x 5 grid wrap round an edge
    @example(cfg=WorldConfig(h=4, w=5, density=0.9, rect_min=3, rect_max=4, seed=3,
                             noise=0.2, fovs=(("full",), (("rect", 1, 1, 3, 4),))))
    # one rectangle size, two classes, grid sides of 1
    @example(cfg=WorldConfig(h=1, w=9, n_classes=2, density=0.5, rect_min=1, rect_max=1,
                             fovs=(("full",), (("sector", 0, 4, 3.0, 0, 180),))))
    @example(cfg=WorldConfig(h=7, w=1, n_classes=2, density=0.5, rect_min=1, rect_max=1,
                             noise=(0.0, 0.3), fovs=(("full",),) * 2))
    @example(cfg=WorldConfig(h=1, w=1, density=0.0, rect_min=1, rect_max=1))
    # five agents, every field-of-view kind
    @example(cfg=WorldConfig(
        h=9, w=11, n_classes=5, n_agents=5, density=0.6, rect_min=2, rect_max=5, seed=8,
        noise=(0.0, 0.1, 0.2, 0.3, 0.4),
        fovs=(("full",), (("rect", 0, 0, 9, 6),), (("sector", 4, 5, 4.0, 300, 60),),
              (("rect", 2, 2, 5, 5), ("sector", 0, 0, 6.0, 0, 90)), ("full",)),
    ))
    def test_matches_the_rectangle_loop(self, cfg):
        got, want = generate(cfg), oracle.generate(cfg)
        for a, b in zip(got, want):
            assert_same_bytes(a, b)


class TestScoreIoU:
    @settings(max_examples=300, deadline=None)
    @given(shape=GRID_SHAPES, k=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           spread=st.integers(0, 3), dtype=st.sampled_from([np.int64, np.int8, np.uint8]))
    def test_matches_the_class_loop_oracle(self, shape, k, seed, spread, dtype):
        # labels from -spread to k - 1 + spread (uint8 wraps the negative
        # ones): those outside [0, k) belong to no class, and must not alias
        # a class through pred * (k + 1) + gt, in int8 arithmetic neither
        rng = np.random.default_rng(seed)
        pred, gt = rng.integers(-spread, k + spread, (2, *shape)).astype(dtype)
        got, want = score_iou(pred, gt, k), oracle.score_iou(pred, gt, k)
        assert_same_bytes(got[0], want[0])
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()

    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValueError, match="integers"):
            score_iou(np.zeros((2, 2)), np.zeros((2, 2), dtype=int), 2)

    def test_perfect_prediction(self):
        gt = np.array([[0, 1], [2, 3]])
        per, mean = score_iou(gt, gt, 4)
        np.testing.assert_array_equal(per, 1.0)
        assert mean == 1.0

    def test_disjoint_masks_zero(self):
        pred = np.array([[1, 1], [0, 0]])
        gt = np.array([[0, 0], [1, 1]])
        per, mean = score_iou(pred, gt, 2)
        assert per[1] == 0.0
        assert mean == 0.0

    def test_half_overlap_fixture(self):
        pred = np.array([[1, 1, 1, 0, 0]])
        gt = np.array([[0, 1, 1, 1, 0]])
        per, _ = score_iou(pred, gt, 2)
        assert per[1] == pytest.approx(2.0 / 4.0)

    def test_absent_class_excluded(self):
        pred = np.zeros((2, 2), dtype=int)
        gt = np.zeros((2, 2), dtype=int)
        per, mean = score_iou(pred, gt, 3)
        assert math.isnan(per[1]) and math.isnan(per[2])
        assert mean == 1.0


class TestStatisticalConsistency:
    def test_posterior_cross_entropy_matches_table_risk(self):
        # independent cells (1x1 rectangles) so the Monte-Carlo error bar applies
        cfg = WorldConfig(
            h=100, w=100, density=0.5, rect_min=1, rect_max=1, noise=0.1, seed=21
        )
        gt, obs = generate(cfg)
        post = posterior_from_obs(obs[0], cfg)
        rr, cc = np.mgrid[0 : cfg.h, 0 : cfg.w]
        ce = -np.log(post[rr, cc, gt]).mean()

        prior = class_prior(cfg)
        chan = _channel(cfg.n_classes, cfg.agent_noise(0))
        joint = prior[:, None] * chan.T  # p(y, obs)
        table = JointTable((("Y", 4), ("O", 4)), joint)
        want = bayes_risk_ce(table, "Y", ["O"])
        se = np.std(-np.log(post[rr, cc, gt])) / math.sqrt(cfg.h * cfg.w)
        assert abs(ce - want) < 4 * se + 1e-6

    def test_fusion_never_hurts_much(self):
        worse = 0
        for seed in range(20):
            cfg = cfg_full(noise=0.15, density=0.5, seed=100 + seed)
            gt, obs = generate(cfg)
            single = posterior_from_obs(obs[0], cfg).argmax(axis=2)
            fused = posterior_from_obs([obs[0], obs[1]], cfg).argmax(axis=2)
            _, m_single = score_iou(single, gt, cfg.n_classes)
            _, m_fused = score_iou(fused, gt, cfg.n_classes)
            if m_fused < m_single - 0.01:
                worse += 1
        assert worse == 0

    def test_cells_outside_every_fov_fall_back_to_prior_argmax(self):
        cfg = WorldConfig(
            h=8, w=8, density=0.4, seed=3,
            fovs=((("rect", 0, 0, 8, 3),), (("rect", 0, 0, 8, 3),)),
        )
        _, obs = generate(cfg)
        post = posterior_from_obs([obs[0], obs[1]], cfg)
        pred = post.argmax(axis=2)
        assert np.all(pred[:, 3:] == class_prior(cfg).argmax())


def label_grids(max_side=6):
    shape = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return hnp.arrays(np.int64, shape, elements=st.integers(UNOBSERVED, 9))


def read_labels(path: str) -> np.ndarray:
    """A ``save_labels`` file read back as plain arrays."""
    return load_arrays(path, ["labels"])["labels"]


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path):
        gt, _ = generate(cfg_full(density=0.5, seed=9))
        path = tmp_path / "labels.txt"
        save_labels(gt, str(path))
        np.testing.assert_array_equal(read_labels(str(path)), gt)

    @settings(max_examples=100, deadline=None)
    @given(grid=label_grids())
    def test_round_trip_bit_for_bit(self, grid, tmp_path_factory):
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        save_labels(grid, str(path))
        assert_same_bits(read_labels(str(path)).astype(np.int64), grid)

    @settings(max_examples=20, deadline=None)
    @given(grid=label_grids(max_side=3), extra=extra_lines)
    def test_corrupted_files_rejected(self, grid, extra, tmp_path_factory):
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        save_labels(grid, str(path))
        assert_corruptions_rejected(path, read_labels, extra)

    @pytest.mark.parametrize("text", [""])
    def test_malformed_files_rejected(self, text, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="labels.txt"):
            read_labels(str(path))
