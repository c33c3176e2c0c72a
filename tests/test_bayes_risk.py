import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragcomm import bayes_risk
from pragcomm.bayes_risk import (
    SQRT_2_OVER_PI,
    CellPosterior,
    RiskParams,
    bayes_risk_ce,
    bayes_risk_centerpoint,
    bayes_risk_l1_gaussian,
    bayes_risk_l1_laplace,
    laplace_risk_from_entropy,
    mc_ce,
    mc_l1_gaussian,
    mc_l1_laplace,
    pragmatic_distortion,
)
from pragcomm.infotheory import (
    JointTable,
    conditional_mi,
    extend_with_channel,
    random_joint,
)

import mc_oracle as oracle


def binary_channel(flip: float) -> JointTable:
    pmf = np.array([[0.5 * (1 - flip), 0.5 * flip], [0.5 * flip, 0.5 * (1 - flip)]])
    return JointTable((("Y", 2), ("X", 2)), pmf)


class TestCrossEntropyRisk:
    def test_deterministic_posterior(self):
        pmf = np.zeros((2, 2))
        pmf[0, 0] = pmf[1, 1] = 0.5
        t = JointTable((("Y", 2), ("X", 2)), pmf)
        assert bayes_risk_ce(t, "Y", ["X"]) == pytest.approx(0.0, abs=1e-12)

    def test_independent_uniform(self):
        t = JointTable((("Y", 4), ("X", 2)), np.full((4, 2), 0.125))
        assert bayes_risk_ce(t, "Y", ["X"]) == pytest.approx(math.log(4), abs=1e-12)

    def test_binary_flip_point_one(self):
        t = binary_channel(0.1)
        h2_nats = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
        assert bayes_risk_ce(t, "Y", ["X"]) == pytest.approx(h2_nats, abs=1e-12)
        assert h2_nats == pytest.approx(0.3251, abs=5e-5)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(3)
        t = random_joint([("Y", 3), ("X", 3)], rng)
        closed = bayes_risk_ce(t, "Y", ["X"])
        n = 200_000
        sampled = mc_ce(t, "Y", ["X"], n, np.random.default_rng(4))
        se = 3.0 / math.sqrt(n) * 5.0
        assert abs(sampled - closed) < max(se, 0.02)

    def test_within_three_standard_errors_independent_oracle(self):
        # hand-rolled sampler, independent of mc_ce: draw (y, x) pairs and
        # score the exact posterior predictor with the plain loss formula
        rng = np.random.default_rng(5)
        t = random_joint([("Y", 3), ("X", 4)], rng)
        closed = bayes_risk_ce(t, "Y", ["X"])
        n = 100_000
        flat = t.pmf.ravel()
        draws = rng.choice(flat.size, size=n, p=flat)
        ys, xs = np.unravel_index(draws, t.pmf.shape)
        cond = t.pmf / t.pmf.sum(axis=0, keepdims=True)
        losses = -np.log(cond[ys, xs])
        se = losses.std(ddof=1) / math.sqrt(n)
        assert abs(losses.mean() - closed) <= 3 * se


class TestGaussianL1Risk:
    def test_zero_sigma(self):
        assert bayes_risk_l1_gaussian(0.0) == 0.0

    def test_unit_sigma_value(self):
        assert bayes_risk_l1_gaussian(1.0) == pytest.approx(0.7978845608, abs=1e-9)

    def test_linearity(self):
        assert bayes_risk_l1_gaussian(2.0) == pytest.approx(
            2 * bayes_risk_l1_gaussian(1.0), abs=1e-12
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            bayes_risk_l1_gaussian(-0.5)

    def test_monte_carlo(self):
        rng = np.random.default_rng(5)
        est = mc_l1_gaussian(1.0, 2_000_000, rng)
        assert est == pytest.approx(SQRT_2_OVER_PI, rel=0.01)


class TestLaplaceL1Risk:
    def test_unit_scale_identity(self):
        assert bayes_risk_l1_laplace(1.0) == 1.0
        h = 1.0 + math.log(2.0)
        assert laplace_risk_from_entropy(h) == pytest.approx(1.0, abs=1e-12)

    def test_half_scale(self):
        assert bayes_risk_l1_laplace(0.5) == 0.5

    def test_entropy_form_agrees_for_any_scale(self):
        for b in (0.3, 1.7, 6.0):
            h = math.log(2 * b) + 1.0
            assert laplace_risk_from_entropy(h) == pytest.approx(b, abs=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            bayes_risk_l1_laplace(0.0)

    def test_monte_carlo_scale_three(self):
        rng = np.random.default_rng(6)
        est = mc_l1_laplace(3.0, 2_000_000, rng)
        assert est == pytest.approx(3.0, rel=0.01)


class TestCenterpointRisk:
    def params(self, **kw):
        defaults = dict(lambdas=(1.0, 1.0, 1.0), n_obj_mean=1.0)
        defaults.update(kw)
        return RiskParams(**defaults)

    def cell(self, pmf, sigma=1.0):
        return CellPosterior(
            class_pmf=np.asarray(pmf),
            reg_sigma={"loc": sigma, "size": sigma, "ori": sigma},
        )

    def test_all_deterministic_zero(self):
        cells = [self.cell([1.0, 0.0], sigma=0.0) for _ in range(3)]
        assert bayes_risk_centerpoint(cells, self.params(n_obj_mean=0.0)) == 0.0

    def test_single_uniform_binary_no_objects(self):
        cells = [self.cell([0.5, 0.5])]
        value = bayes_risk_centerpoint(cells, self.params(n_obj_mean=0.0))
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_two_cells_unit_sigmas(self):
        cells = [self.cell([1.0, 0.0]), self.cell([0.0, 1.0])]
        value = bayes_risk_centerpoint(cells, self.params())
        assert value == pytest.approx(3 * SQRT_2_OVER_PI, abs=1e-12)
        assert value == pytest.approx(2.3936, abs=1e-4)

    def test_termwise_assembly(self):
        rng = np.random.default_rng(8)
        cells = []
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            cells.append(
                CellPosterior(
                    class_pmf=p,
                    reg_sigma={
                        "loc": rng.uniform(0, 2),
                        "size": rng.uniform(0, 2),
                        "ori": rng.uniform(0, 2),
                    },
                )
            )
        params = self.params(lambdas=(0.5, 1.5, 2.0), n_obj_mean=2.5)
        expected = sum(c.class_entropy_nats() for c in cells)
        for lam, key in zip(params.lambdas, ("loc", "size", "ori")):
            sig = np.mean([c.reg_sigma[key] for c in cells])
            expected += 2.5 * SQRT_2_OVER_PI * lam * sig
        assert bayes_risk_centerpoint(cells, params) == pytest.approx(expected, abs=1e-12)

    def test_nan_class_pmf_rejected(self):
        with pytest.raises(ValueError, match="pmf"):
            CellPosterior(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_reg_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            CellPosterior([0.5, 0.5], {"loc": bad, "size": 1.0, "ori": 1.0})

    def test_missing_regression_key(self):
        cells = [CellPosterior(class_pmf=np.array([1.0, 0.0]), reg_sigma={"loc": 1.0})]
        with pytest.raises(KeyError, match="size"):
            bayes_risk_centerpoint(cells, self.params())


def source_with_channel(rng, z_kernel=None, z_size=2):
    t = random_joint([("Y", 2), ("X_s", 3), ("X_r", 2)], rng)
    if z_kernel is None:
        z_kernel = rng.dirichlet(np.ones(z_size), size=3)
    return extend_with_channel(t, "X_s", "Z", z_kernel)


class TestPragmaticDistortion:
    def test_lossless_relabel_is_zero(self):
        rng = np.random.default_rng(10)
        perm = np.zeros((3, 3))
        perm[0, 2] = perm[1, 0] = perm[2, 1] = 1.0
        ext = source_with_channel(rng, z_kernel=perm, z_size=3)
        assert pragmatic_distortion(ext, "segmentation") == pytest.approx(0.0, abs=1e-12)

    def test_constant_z_equals_conditional_mi(self):
        rng = np.random.default_rng(11)
        const = np.tile(np.array([1.0, 0.0]), (3, 1))
        ext = source_with_channel(rng, z_kernel=const)
        got = pragmatic_distortion(ext, "segmentation")
        want = conditional_mi(ext, "Y", "X_s", ["X_r"], "nats")
        assert got == pytest.approx(want, abs=1e-12)

    def test_detection_equal_entropies_no_regression_term(self):
        rng = np.random.default_rng(12)
        base = random_joint([("Y", 2), ("X_s", 2), ("X_r", 2)], rng)
        ext = extend_with_channel(base, "X_s", "Z", np.eye(2))
        # regression targets independent of everything: both sides equal
        for key in ("loc", "size", "ori"):
            ext = extend_with_channel(
                ext, "Y", key, np.tile(np.array([0.5, 0.5]), (2, 1))
            )
        seg = pragmatic_distortion(ext, "segmentation")
        det = pragmatic_distortion(ext, "detection", RiskParams())
        assert det == pytest.approx(seg, abs=1e-10)

    def test_missing_axis(self):
        t = random_joint([("Y", 2), ("X_s", 2)], np.random.default_rng(0))
        with pytest.raises(KeyError):
            pragmatic_distortion(t, "segmentation")

    def test_nonnegative_when_z_from_xs(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            ext = source_with_channel(rng)
            assert pragmatic_distortion(ext, "segmentation") >= -1e-10

    def test_identity_with_conditional_mis(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            ext = source_with_channel(rng)
            d = pragmatic_distortion(ext, "segmentation")
            want = (
                conditional_mi(ext, "Y", "X_s", ["X_r"], "nats")
                - conditional_mi(ext, "Y", "Z", ["X_r"], "nats")
            )
            assert d == pytest.approx(want, abs=1e-10)


class TestFirstOrderBound:
    def test_exponential_difference_dominates_linear(self):
        rng = np.random.default_rng(16)
        h = rng.uniform(0.0, 3.0, size=(200, 2))
        h1 = np.maximum(h[:, 0], h[:, 1])
        h2 = np.minimum(h[:, 0], h[:, 1])
        lhs = np.exp(h1 - 1) - np.exp(h2 - 1)
        rhs = (h1 - h2) / math.e
        assert np.all(lhs >= rhs - 1e-12)


@st.composite
def ce_cases(draw):
    """(table, target, given) over 1-400 cells, often with zero cells (a run
    of trailing ones included); ``given`` is some of the other axes in a
    random order."""
    names = ["Y", "X", "W"][: draw(st.integers(1, 3))]
    sizes = []
    for _ in names:
        sizes.append(draw(st.integers(1, 400 // math.prod(sizes))))
    cells = math.prod(sizes)
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = r.random(cells) * (r.random(cells) >= draw(st.sampled_from([0.0, 0.3, 0.9])))
    w[cells - draw(st.integers(0, cells - 1)):] = 0.0
    if w.sum() == 0:
        w[0] = 1.0
    t = JointTable(tuple(zip(names, sizes)), (w / w.sum()).reshape(sizes))
    target = draw(st.sampled_from(names))
    others = draw(st.permutations([n for n in names if n != target]))
    return t, target, others[: draw(st.integers(0, len(others)))]


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestMonteCarloMatchesNaiveOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=ce_cases(), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_cross_entropy_same_float(self, case, n, seed):
        t, target, cond = case
        got = mc_ce(t, target, cond, n, np.random.default_rng(seed))
        want = oracle.mc_ce(t, target, cond, n, np.random.default_rng(seed))
        assert same_bits(got, want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cells", [3, 300])  # a uint8 and a uint16 draw index
    def test_a_uniform_on_a_cdf_step(self, seed, cells):
        # the one uniform equals the first cdf entry: choice takes the first
        # cell whose cdf is above it, past the empty second cell
        u0 = np.random.default_rng(seed).random()
        pmf = np.zeros(cells)
        pmf[[0, 2]] = u0, 1.0 - u0
        assert pmf.cumsum()[-1] == 1.0
        t = JointTable((("Y", cells),), pmf)
        got = mc_ce(t, "Y", [], 1, np.random.default_rng(seed))
        assert same_bits(got, oracle.mc_ce(t, "Y", [], 1, np.random.default_rng(seed)))
        assert got == -math.log(1.0 - u0)

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.sampled_from([0.0]) | st.floats(1e-6, 1e6),
        b=st.floats(1e-6, 1e6),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_l1_same_float(self, sigma, b, n, seed):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        got = mc_l1_gaussian(sigma, n, rngs[0]), mc_l1_laplace(b, n, rngs[0])
        want = oracle.mc_l1_gaussian(sigma, n, rngs[1]), oracle.mc_l1_laplace(b, n, rngs[1])
        assert all(map(same_bits, got, want))

    @pytest.mark.parametrize("shape", [(3, 3), (20, 15)])  # uint8, uint16 index
    def test_many_draw_blocks_same_float(self, shape):
        # verify-theory's 1M draws, in many blocks
        axes = list(zip(("Y", "X"), shape))
        t = random_joint(axes, np.random.default_rng(7))
        for f, want, args in (
            (mc_ce, oracle.mc_ce, (t, "Y", ["X"])),
            (mc_l1_gaussian, oracle.mc_l1_gaussian, (1.0,)),
            (mc_l1_laplace, oracle.mc_l1_laplace, (3.0,)),
        ):
            got = f(*args, 1_000_000, np.random.default_rng(8))
            assert same_bits(got, want(*args, 1_000_000, np.random.default_rng(8)))

    @settings(max_examples=60, deadline=None)
    @given(
        block=st.integers(128, 1024),
        case=ce_cases(),
        n=st.integers(1, 20000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_many_leaves_same_float(self, block, case, n, seed):
        # leaves of 128-1024 draws: up to 20000 draws make many leaves, odd
        # right halves and splits that 8 does not divide
        t, target, cond = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bayes_risk, "_DRAW_BLOCK", block)
            for f, want, args in (
                (mc_ce, oracle.mc_ce, (t, target, cond)),
                (mc_l1_gaussian, oracle.mc_l1_gaussian, (2.5,)),
                (mc_l1_laplace, oracle.mc_l1_laplace, (3.0,)),
            ):
                got = f(*args, n, np.random.default_rng(seed))
                assert same_bits(got, want(*args, n, np.random.default_rng(seed)))

    def test_draw_block_at_least_numpys_pairwise_block(self):
        # np.add.reduce splits a float64 segment only when it is longer than
        # 128 values, numpy's pairwise block; leaves shorter than that would
        # split where numpy does not and round differently
        assert bayes_risk._DRAW_BLOCK >= 128


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloMemory:
    # Measured: 0.50 MB for each L1 estimator (one block of 65536 float64
    # draws), 1.16 MB for mc_ce (its three block buffers, plus np.take's
    # intp copy of the block's draw indices).  The bound gives 1.4-3.2x
    # headroom; a buffer of all 10^6 draws alone is 8 MB.
    def test_estimators_hold_one_block(self):
        t = random_joint([("Y", 3), ("X", 3)], np.random.default_rng(7))
        for f, args in (
            (mc_ce, (t, "Y", ["X"])),
            (mc_l1_gaussian, (1.0,)),
            (mc_l1_laplace, (3.0,)),
        ):
            rng = np.random.default_rng(8)
            assert traced_peak(lambda: f(*args, 1_000_000, rng)) < 1_600_000, f


class TestRiskInputsRejected:
    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_bad_gaussian_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            bayes_risk_l1_gaussian(sigma)
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            mc_l1_gaussian(sigma, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("b", [0.0, -2.0, math.nan, math.inf])
    def test_bad_laplace_scale(self, b):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            bayes_risk_l1_laplace(b)
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            mc_l1_laplace(b, 10, np.random.default_rng(0))

    def test_zero_sigma_is_zero_risk(self):
        assert bayes_risk_l1_gaussian(0.0) == 0.0
        assert mc_l1_gaussian(0.0, 10, np.random.default_rng(0)) == 0.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_draws(self, n):
        t = random_joint([("Y", 2), ("X", 2)], np.random.default_rng(0))
        rng = np.random.default_rng(0)
        for call in (
            lambda: mc_l1_gaussian(1.0, n, rng),
            lambda: mc_l1_laplace(1.0, n, rng),
            lambda: mc_ce(t, "Y", ["X"], n, rng),
        ):
            with pytest.raises(ValueError, match="at least 1 draw"):
                call()
