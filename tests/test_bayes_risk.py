import math

import numpy as np
import pytest

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
        defaults = dict(loss_family="centerpoint", lambdas=(1.0, 1.0, 1.0), n_obj_mean=1.0)
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

    def test_missing_regression_key(self):
        cells = [CellPosterior(class_pmf=np.array([1.0, 0.0]), reg_sigma={"loc": 1.0})]
        with pytest.raises(KeyError, match="size"):
            bayes_risk_centerpoint(cells, self.params())

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            bayes_risk_centerpoint([], RiskParams(loss_family="cross_entropy"))


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
        want = conditional_mi(ext, "Y", "X_s", ["X_r"], "nats").value
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
        det = pragmatic_distortion(ext, "detection", RiskParams(loss_family="centerpoint"))
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
                conditional_mi(ext, "Y", "X_s", ["X_r"], "nats").value
                - conditional_mi(ext, "Y", "Z", ["X_r"], "nats").value
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
