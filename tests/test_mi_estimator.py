import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragcomm.infotheory import mutual_information, plugin_from_samples
from pragcomm.mi_estimator import (
    Discriminator,
    PairBatch,
    TWO_LN2,
    init_discriminator,
    load_discriminator,
    loss_and_grads,
    make_batch,
    mi_lower_bound,
    mi_score,
    redundancy_map,
    save_discriminator,
    score,
    select_mask,
    train,
    train_step,
)


def one_hot(symbols, k):
    out = np.zeros((len(symbols), k))
    out[np.arange(len(symbols)), symbols] = 1.0
    return out


def correlated_batch(n=2048, k=4, seed=0):
    """Perfectly correlated 4-symbol one-hot pairs; plug-in MI is ln 4."""
    rng = np.random.default_rng(seed)
    syms = rng.integers(k, size=n)
    s = one_hot(syms, k)
    return make_batch(s, s.copy(), rng), syms


def independent_batch(n=2048, k=4, seed=1):
    rng = np.random.default_rng(seed)
    s = one_hot(rng.integers(k, size=n), k)
    r = one_hot(rng.integers(k, size=n), k)
    return make_batch(s, r, rng)


@pytest.fixture(scope="module")
def pattern_discriminator():
    """Discriminator trained on identical 4-symbol one-hot pairs."""
    rng = np.random.default_rng(31)
    syms = rng.integers(4, size=2048)
    batch = make_batch(one_hot(syms, 4), one_hot(syms, 4), rng)
    d = init_discriminator(8, hidden=24, seed=31)
    d, _ = train(d, batch, steps=400, lr=0.5)
    return d


class TestLossBasics:
    def test_zero_net_loss_is_two_ln_two(self):
        d = init_discriminator(8, hidden=16, seed=3)
        zeroed = Discriminator([(np.zeros_like(w), np.zeros_like(b)) for w, b in d.weights])
        batch = independent_batch()
        loss, _ = loss_and_grads(zeroed, batch)
        assert loss == pytest.approx(TWO_LN2, abs=1e-12)
        assert mi_lower_bound(zeroed, batch) == pytest.approx(0.0, abs=1e-12)

    def test_loss_decreases_during_training(self):
        batch, _ = correlated_batch(seed=5)
        d = init_discriminator(8, hidden=16, seed=5)
        d, losses = train(d, batch, steps=200, lr=0.2)
        assert losses[-1] < losses[0] - 0.1

    def test_train_step_returns_pre_step_loss(self):
        batch = independent_batch(seed=7)
        d = init_discriminator(8, hidden=8, seed=7)
        before, _ = loss_and_grads(d, batch)
        _, reported = train_step(d, batch, lr=0.1)
        assert reported == pytest.approx(before, abs=1e-15)

    def test_nonpositive_lr_rejected(self):
        batch = independent_batch(seed=8)
        d = init_discriminator(8, seed=8)
        with pytest.raises(ValueError):
            train_step(d, batch, lr=0.0)

    def test_nonfinite_parameters_abort(self):
        batch = independent_batch(seed=9)
        d = init_discriminator(8, hidden=8, seed=9)
        d.weights[0] = (d.weights[0][0] * np.inf, d.weights[0][1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="non-finite"):
                train_step(d, batch, lr=0.1)


def assert_finite_differences(d, batch):
    _, grads = loss_and_grads(d, batch)
    eps = 1e-6
    for li, (w, b) in enumerate(d.weights):
        for arr, g in ((w, grads[li][0]), (b, grads[li][1])):
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                lp, _ = loss_and_grads(d, batch)
                arr[ix] = orig - eps
                lm, _ = loss_and_grads(d, batch)
                arr[ix] = orig
                num[ix] = (lp - lm) / (2 * eps)
                it.iternext()
            denom = max(np.linalg.norm(g), np.linalg.norm(num), 1e-12)
            assert np.linalg.norm(g - num) / denom < 1e-5


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        d = init_discriminator(4, hidden=3, n_hidden=1, seed=11)
        batch = PairBatch(rng.normal(size=(12, 4)), rng.normal(size=(10, 4)))
        assert_finite_differences(d, batch)


class TestMIQuantities:
    def test_correlated_pairs_reach_plugin_mi(self):
        rng = np.random.default_rng(13)
        syms = rng.integers(4, size=2048)
        batch = make_batch(one_hot(syms, 4), one_hot(syms, 4), rng)
        d = init_discriminator(8, hidden=24, seed=13)
        d, _ = train(d, batch, steps=400, lr=0.5)
        plug = mutual_information(
            plugin_from_samples([(s, s) for s in syms], [("S", 4), ("R", 4)]),
            "S",
            "R",
            "nats",
        ).value
        assert plug == pytest.approx(math.log(4), abs=0.01)
        got = mi_score(d, batch)
        assert abs(got - plug) / plug < 0.25

    def test_independent_pairs_near_zero(self):
        batch = independent_batch(n=2048, seed=17)
        d = init_discriminator(8, hidden=24, seed=17)
        d, _ = train(d, batch, steps=250, lr=0.3)
        assert abs(mi_score(d, batch)) <= 0.05
        assert mi_lower_bound(d, batch) <= 0.05

    def test_lower_bound_capped_by_two_ln_two(self, pattern_discriminator):
        rng = np.random.default_rng(19)
        syms = rng.integers(4, size=2048)
        batch = make_batch(one_hot(syms, 4), one_hot(syms, 4), rng)
        assert mi_lower_bound(pattern_discriminator, batch) <= TWO_LN2 + 1e-9

    def test_bound_below_plugin_mi_plus_tolerance(self):
        rng = np.random.default_rng(23)
        # correlated but noisy binary symbols
        s_sym = rng.integers(2, size=3000)
        flip = rng.uniform(size=3000) < 0.2
        r_sym = np.where(flip, 1 - s_sym, s_sym)
        batch = make_batch(one_hot(s_sym, 2), one_hot(r_sym, 2), rng)
        d = init_discriminator(4, hidden=16, seed=23)
        d, _ = train(d, batch, steps=400, lr=0.5)
        plug = mutual_information(
            plugin_from_samples(list(zip(s_sym, r_sym)), [("S", 2), ("R", 2)]),
            "S",
            "R",
            "nats",
        ).value
        assert mi_lower_bound(d, batch) <= plug + 0.1

    def test_optimal_sigmoid_matches_density_ratio(self):
        # two-symbol toy with known joint and marginal masses per atom
        rng = np.random.default_rng(29)
        n = 3000
        s_sym = rng.integers(2, size=n)
        r_sym = np.where(rng.uniform(size=n) < 0.85, s_sym, 1 - s_sym)
        batch = make_batch(one_hot(s_sym, 2), one_hot(r_sym, 2), rng)
        d = init_discriminator(4, hidden=16, seed=29)
        d, _ = train(d, batch, steps=800, lr=0.5)
        joint = np.zeros((2, 2))
        np.add.at(joint, (s_sym, r_sym), 1.0)
        joint /= n
        marg = np.outer(joint.sum(1), joint.sum(0))
        for a in range(2):
            for b in range(2):
                x = np.concatenate([one_hot([a], 2), one_hot([b], 2)], axis=1)
                sig = 1.0 / (1.0 + np.exp(-score(d, x)[0]))
                want = joint[a, b] / (joint[a, b] + marg[a, b])
                assert abs(sig - want) < 0.05


class TestRedundancyMap:
    def test_matched_cells_score_above_mismatched(self, pattern_discriminator):
        rng = np.random.default_rng(33)
        syms = rng.integers(4, size=(5, 5))
        matched = one_hot(syms.ravel(), 4).reshape(5, 5, 4)
        shuffled_syms = (syms + rng.integers(1, 4, size=(5, 5))) % 4
        mismatched = one_hot(shuffled_syms.ravel(), 4).reshape(5, 5, 4)
        r_match = redundancy_map(pattern_discriminator, matched, matched)
        r_mis = redundancy_map(pattern_discriminator, matched, mismatched)
        assert r_match.mean() - r_mis.mean() > 0.5

    def test_zero_net_gives_zero_map(self):
        d = init_discriminator(8, seed=1)
        zeroed = Discriminator([(np.zeros_like(w), np.zeros_like(b)) for w, b in d.weights])
        grid = np.random.default_rng(2).normal(size=(3, 4, 4))
        np.testing.assert_array_equal(redundancy_map(zeroed, grid, grid), 0.0)

    def test_map_deterministic(self, pattern_discriminator):
        rng = np.random.default_rng(35)
        grid = one_hot(rng.integers(4, size=12), 4).reshape(3, 4, 4)
        m1 = redundancy_map(pattern_discriminator, grid, grid)
        m2 = redundancy_map(pattern_discriminator, grid, grid)
        np.testing.assert_array_equal(m1, m2)

    def test_shape_mismatch(self):
        d = init_discriminator(8, seed=1)
        with pytest.raises(ValueError):
            redundancy_map(d, np.zeros((2, 2, 4)), np.zeros((2, 3, 4)))


class TestSelectMask:
    def test_infinite_thresholds(self):
        rmap = np.random.default_rng(3).normal(size=(4, 4))
        assert select_mask(rmap, np.inf).all()
        assert not select_mask(rmap, -np.inf).any()

    def test_threshold_is_strict(self):
        rmap = np.array([[1.0, 2.0]])
        mask = select_mask(rmap, 2.0)
        np.testing.assert_array_equal(mask, [[True, False]])

    def test_monotone_selection_counts(self):
        rmap = np.random.default_rng(5).normal(size=(8, 8))
        taus = np.linspace(-3, 3, 25)
        counts = [select_mask(rmap, t).sum() for t in taus]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        d = init_discriminator(8, hidden=16, seed=37)
        batch = independent_batch(seed=37)
        d, _ = train(d, batch, steps=20, lr=0.2)
        path = tmp_path / "disc.txt"
        save_discriminator(d, str(path))
        back = load_discriminator(str(path))
        for (w1, b1), (w2, b2) in zip(d.weights, back.weights):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        x = np.random.default_rng(0).normal(size=(5, 8))
        np.testing.assert_array_equal(score(d, x), score(back, x))


# --- count-weighted batches ---------------------------------------------------


def expanded_batch(s, r, rng):
    """make_batch as it was before deduplication: one unit-weight row per sample."""
    perm = rng.permutation(len(r))
    return PairBatch(
        np.concatenate([s, r], axis=1), np.concatenate([s, r[perm]], axis=1)
    )


def repeated_rows(seed, n_rows, n_distinct, c):
    """s and r drawn from a few distinct rows, so both batch sides repeat."""
    rng = np.random.default_rng(seed)
    s_atoms = rng.normal(size=(n_distinct, c))
    r_atoms = rng.normal(size=(n_distinct, c))
    s = s_atoms[rng.integers(n_distinct, size=n_rows)]
    r = r_atoms[rng.integers(n_distinct, size=n_rows)]
    return s, r


def flat(grads):
    return np.concatenate([g.ravel() for pair in grads for g in pair])


class TestWeightedBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 60),
        n_distinct=st.integers(1, 5),
        c=st.integers(1, 3),
        hidden=st.integers(1, 6),
    )
    def test_dedup_matches_expanded(self, seed, n_rows, n_distinct, c, hidden):
        s, r = repeated_rows(seed, n_rows, n_distinct, c)
        rng_new = np.random.default_rng(seed + 1)
        rng_old = np.random.default_rng(seed + 1)
        new = make_batch(s, r, rng_new)
        old = expanded_batch(s, r, rng_old)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert len(new.joint_pairs) == len(np.unique(old.joint_pairs, axis=0))
        assert new.joint_weights.sum() == new.marginal_weights.sum() == n_rows

        d = init_discriminator(2 * c, hidden=hidden, seed=seed % 1000)
        loss_new, grads_new = loss_and_grads(d, new)
        loss_old, grads_old = loss_and_grads(d, old)
        assert loss_new == pytest.approx(loss_old, rel=1e-12)
        g_new, g_old = flat(grads_new), flat(grads_old)
        # relative to the gradient norm, floored at 1 for gradients that
        # cancel to zero in exact arithmetic
        scale = max(np.linalg.norm(g_old), 1.0)
        assert np.linalg.norm(g_new - g_old) <= 1e-12 * scale
        for f in (mi_score, mi_lower_bound):
            assert f(d, new) == pytest.approx(f(d, old), rel=1e-12, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_weighted_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = init_discriminator(4, hidden=3, n_hidden=1, seed=seed % 1000)
        batch = PairBatch(
            rng.normal(size=(7, 4)),
            rng.normal(size=(5, 4)),
            rng.uniform(0.1, 5.0, size=7),
            rng.uniform(0.1, 5.0, size=5),
        )
        assert_finite_differences(d, batch)

    def test_default_weights_are_ones(self):
        batch = PairBatch(np.zeros((3, 2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(batch.joint_weights, np.ones(3))
        np.testing.assert_array_equal(batch.marginal_weights, np.ones(2))

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0, np.nan, 1.0],
            [1.0, np.inf, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, -2.0, 1.0],
            [1e308, 1e308, 1e308],
            [1.0, 1.0],
            [[1.0, 1.0, 1.0]],
        ],
    )
    @pytest.mark.parametrize("side", ["joint_weights", "marginal_weights"])
    def test_bad_weights_rejected(self, weights, side):
        with pytest.raises(ValueError, match=side):
            PairBatch(np.zeros((3, 2)), np.zeros((3, 2)), **{side: weights})
