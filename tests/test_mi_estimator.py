import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import disc_oracle as oracle
from plugin_oracle import plugin_target
from array_files import (
    assert_corruptions_rejected,
    assert_same_bits,
    float_arrays,
    extra_lines,
)
from pragcomm import textio
from pragcomm.infotheory import mutual_information, plugin_from_samples
from pragcomm.mi_estimator import (
    Discriminator,
    PairBatch,
    TWO_LN2,
    _workspace,
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


def directional_derivative(d, batch, tangent):
    """The loss's derivative along ``tangent``, one (dW, db) per layer, from
    a forward pass that carries each value's derivative beside it (dual
    numbers) over the two stacked sides, one row per sample.  It shares no
    code with the merged rows or ``_backward``, and subtracts no two nearby
    losses, so it keeps its relative precision on a tiny gradient."""

    def scores(x):
        a, da = x, np.zeros_like(x)
        for i, ((w, b), (dw, db)) in enumerate(zip(d.weights, tangent)):
            a, da = a @ w.T + b, da @ w.T + a @ dw.T + db
            if i < len(d.weights) - 1:
                on = a > 0
                a, da = a * on, da * on
        return a[:, 0], da[:, 0]

    def sigmoid(x):
        return np.exp(-np.logaddexp(0.0, -x))

    # loss = mean softplus(-t_joint) + mean softplus(t_marginal); softplus' = sigmoid
    tj, dtj = scores(batch.joint_pairs)
    tm, dtm = scores(batch.marginal_pairs)
    return np.mean(-sigmoid(-tj) * dtj) + np.mean(sigmoid(tm) * dtm)


def assert_forward_mode(d, batch):
    """Every analytic gradient entry against the derivative along its own
    parameter, to the finite-difference check's relative bound.

    A gradient that is zero in exact arithmetic, as when every ReLU is dead
    and every score is 0, comes out as the rounding of its terms of about
    0.5, a few 1e-17; the norms are floored at 1e-10, so such a gradient is
    held to 1e-15, and every larger one to the relative bound alone."""
    _, grads = loss_and_grads(d, batch)
    for li, layer in enumerate(d.weights):
        for part, arr in enumerate(layer):
            num = np.zeros_like(arr)
            for ix in np.ndindex(arr.shape):
                tangent = [[np.zeros_like(a) for a in pair] for pair in d.weights]
                tangent[li][part][ix] = 1.0
                num[ix] = directional_derivative(d, batch, tangent)
            g = grads[li][part]
            denom = max(np.linalg.norm(g), np.linalg.norm(num), 1e-10)
            assert np.linalg.norm(g - num) / denom < 1e-5


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        d = init_discriminator(4, hidden=3, n_hidden=1, seed=11)
        batch = PairBatch(rng.normal(size=(12, 4)), rng.normal(size=(10, 4)))
        assert_finite_differences(d, batch)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(1, 6))
    # one atom: a first-layer gradient of norm 1.77e-6, below what a central
    # difference at step 1e-6 resolves to the 1e-5 bound (7.4e-5 there)
    @example(seed=524288, n_atoms=1)
    # every ReLU dead: an output-bias gradient of 2.8e-17 where the exact one is 0
    @example(seed=99456860, n_atoms=2)
    def test_repeated_rows_match_forward_mode(self, seed, n_atoms):
        rng = np.random.default_rng(seed)
        d = init_discriminator(4, hidden=3, n_hidden=1, seed=seed % 1000)
        assert_forward_mode(d, PairBatch(*pair_rows(rng, 7, 5, 4, n_atoms)))


def same_weights(d1, d2) -> bool:
    return len(d1.weights) == len(d2.weights) and all(
        np.array_equal(w1, w2) and np.array_equal(b1, b2)
        for (w1, b1), (w2, b2) in zip(d1.weights, d2.weights)
    )


def flat(grads):
    return np.concatenate([g.ravel() for pair in grads for g in pair])


def pair_rows(rng, n_j, n_m, width, n_atoms):
    """Joint and marginal rows: each drawn afresh when ``n_atoms`` is None,
    else each picked from ``n_atoms`` shared rows, so rows repeat within a
    side and recur across the sides."""
    if n_atoms is None:
        return rng.normal(size=(n_j, width)), rng.normal(size=(n_m, width))
    atoms = rng.normal(size=(n_atoms, width))
    return atoms[rng.integers(n_atoms, size=n_j)], atoms[rng.integers(n_atoms, size=n_m)]


class TestInPlaceStep:
    """The in-place step against the allocating one it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_j=st.integers(1, 40),
        n_m=st.integers(1, 40),
        c=st.integers(1, 4),
        n_hidden=st.integers(1, 3),
        hidden=st.integers(1, 12),
        lr=st.floats(0.01, 2.0),
        steps=st.integers(1, 6),
        dtype=st.sampled_from([np.float32, np.float64]),
        n_atoms=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_train_equals_allocating_oracle(
        self, seed, n_j, n_m, c, n_hidden, hidden, lr, steps, dtype, n_atoms
    ):
        rng = np.random.default_rng(seed)
        batch = PairBatch(*pair_rows(rng, n_j, n_m, 2 * c, n_atoms))
        d = init_discriminator(2 * c, hidden=hidden, n_hidden=n_hidden, seed=seed % 1000)
        d = d.astype(dtype)
        got_d, got_losses = train(d, batch, steps, lr)
        want_d, want_losses = oracle.train(d, batch, steps, lr)
        assert got_losses == want_losses
        assert same_weights(got_d, want_d)
        assert {a.dtype for layer in got_d.weights + want_d.weights for a in layer} == {
            np.dtype(dtype)
        }

    def test_gradients_survive_a_later_call(self):
        batch = independent_batch(n=256, seed=13)
        d1 = init_discriminator(8, hidden=16, seed=13)
        d2 = init_discriminator(8, hidden=16, seed=14)
        for work in (None, _workspace(d1, batch)):
            _, first = loss_and_grads(d1, batch, work)
            kept = [(gw.copy(), gb.copy()) for gw, gb in first]
            loss_and_grads(d2, batch, work)
            for (gw, gb), (kw, kb) in zip(first, kept):
                assert gw.tobytes() == kw.tobytes() and gb.tobytes() == kb.tobytes()

    def test_train_leaves_inputs_unchanged(self):
        rng = np.random.default_rng(15)
        batch = PairBatch(rng.normal(size=(30, 6)), rng.normal(size=(20, 6)))
        d = init_discriminator(6, hidden=10, seed=15)

        def snapshot():
            arrays = [a for pair in d.weights for a in pair]
            arrays += [batch.joint_pairs, batch.marginal_pairs]
            return [a.tobytes() for a in arrays]

        before = snapshot()
        trained, _ = train(d, batch, steps=5, lr=0.3)
        assert snapshot() == before
        assert not same_weights(trained, d)
        # a diverging run raises and also leaves the caller's arrays alone
        with pytest.raises(RuntimeError, match="non-finite"):
            train(d, batch, steps=5, lr=1e300)
        assert snapshot() == before


class TestMergedRows:
    """A step runs on the distinct rows of both sides; its loss and
    gradients are the stacked sides' ones up to rounding."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_j=st.integers(1, 40),
        n_m=st.integers(1, 40),
        c=st.integers(1, 3),
        n_hidden=st.integers(1, 2),
        hidden=st.integers(1, 8),
        n_atoms=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_matches_stacked_sides(self, seed, n_j, n_m, c, n_hidden, hidden, n_atoms):
        rng = np.random.default_rng(seed)
        batch = PairBatch(*pair_rows(rng, n_j, n_m, 2 * c, n_atoms))
        d = init_discriminator(2 * c, hidden=hidden, n_hidden=n_hidden, seed=seed % 1000)
        loss, grads = loss_and_grads(d, batch)
        want_loss, want_grads = oracle.stacked_loss_and_grads(d, batch)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        g, want = flat(grads), flat(want_grads)
        # floored at 1 for gradients that cancel to zero in exact arithmetic
        assert np.linalg.norm(g - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 60),
        n_distinct=st.integers(1, 5),
        c=st.integers(1, 3),
        hidden=st.integers(1, 6),
    )
    def test_make_batch_keeps_every_sample(self, seed, n_rows, n_distinct, c, hidden):
        s, r = pair_rows(np.random.default_rng(seed), n_rows, n_rows, c, n_distinct)
        rng_batch, rng_perm = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        batch = make_batch(s, r, rng_batch)
        perm = rng_perm.permutation(n_rows)
        assert rng_batch.bit_generator.state == rng_perm.bit_generator.state
        np.testing.assert_array_equal(batch.joint_pairs, np.concatenate([s, r], axis=1))
        np.testing.assert_array_equal(batch.marginal_pairs, np.concatenate([s, r[perm]], axis=1))

        d = init_discriminator(2 * c, hidden=hidden, seed=seed % 1000)
        want_loss, _ = oracle.stacked_loss_and_grads(d, batch)
        assert mi_lower_bound(d, batch) == pytest.approx(TWO_LN2 - want_loss, rel=1e-12, abs=1e-12)

    def test_a_shared_row_runs_once(self):
        rows = np.eye(4)
        batch = PairBatch(rows[[0, 1, 1]], rows[[1, 2, 2, 3]])
        merged, pj, pm, _, _ = _workspace(init_discriminator(4, seed=0), batch)
        np.testing.assert_array_equal(merged, rows[::-1])
        np.testing.assert_array_equal(pj, [0, 0, 2 / 3, 1 / 3])
        np.testing.assert_array_equal(pm, [1 / 4, 1 / 2, 1 / 4, 0])

    @pytest.mark.parametrize(
        "joint, marginal",
        [
            (np.zeros(3), np.zeros((3, 2))),
            (np.zeros((3, 2)), np.zeros(3)),
            (np.zeros((3, 2)), np.zeros((3, 3))),
            (np.zeros((3, 2, 1)), np.zeros((3, 2, 1))),
        ],
    )
    def test_rows_of_other_shapes_rejected(self, joint, marginal):
        with pytest.raises(ValueError, match=re.escape(f"{joint.shape} and {marginal.shape}")):
            PairBatch(joint, marginal)


class TestMIQuantities:
    def test_correlated_pairs_reach_plugin_mi(self):
        rng = np.random.default_rng(13)
        syms = rng.integers(4, size=2048)
        batch = make_batch(one_hot(syms, 4), one_hot(syms, 4), rng)
        d = init_discriminator(8, hidden=24, seed=13)
        d, _ = train(d, batch, steps=400, lr=0.5)
        plug = mutual_information(
            plugin_from_samples([(s, s) for s in syms], [("S", 4), ("R", 4)]), "S", "R", "nats"
        )
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
            plugin_from_samples(list(zip(s_sym, r_sym)), [("S", 2), ("R", 2)]), "S", "R", "nats"
        )
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


class TestPluginTarget:
    """``tests/plugin_oracle.py`` reads the exact plug-in I(S; R) and PMI
    off a batch's joint samples."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        ks=st.integers(1, 4),
        kr=st.integers(1, 5),
        coupling=st.floats(0.0, 1.0),
    )
    def test_matches_infotheory(self, seed, n, ks, kr, coupling):
        rng = np.random.default_rng(seed)
        s_sym = rng.integers(ks, size=n)
        r_sym = np.where(rng.uniform(size=n) < coupling, s_sym % kr, rng.integers(kr, size=n))
        k = max(ks, kr)  # both halves of a row are k wide
        batch = make_batch(one_hot(s_sym, k), one_hot(r_sym, k), rng)
        table = plugin_from_samples(list(zip(s_sym, r_sym)), [("S", ks), ("R", kr)])
        mi, pmi = plugin_target(batch)
        assert mi == pytest.approx(mutual_information(table, "S", "R", "nats"), abs=1e-12)
        a, b = batch.joint_pairs[:, :k].argmax(1), batch.joint_pairs[:, k:].argmax(1)
        p = table.pmf
        want = np.log(p[a, b]) - np.log(p.sum(1)[a]) - np.log(p.sum(0)[b])
        np.testing.assert_allclose(pmi, want, rtol=0, atol=1e-12)


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


@st.composite
def discriminators(draw, max_width=4):
    dims = draw(st.lists(st.integers(1, max_width), min_size=1, max_size=3)) + [1]
    return Discriminator(
        [
            (draw(float_arrays((dout, din))), draw(float_arrays(dout)))
            for din, dout in zip(dims, dims[1:])
        ]
    )


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

    @settings(max_examples=100, deadline=None)
    @given(d=discriminators())
    def test_round_trip_bit_for_bit(self, d, tmp_path_factory):
        path = tmp_path_factory.mktemp("disc") / "discriminator.txt"
        save_discriminator(d, str(path))
        back = load_discriminator(str(path))
        assert len(back.weights) == len(d.weights)
        for (w1, b1), (w2, b2) in zip(d.weights, back.weights):
            assert_same_bits(w2, w1)
            assert_same_bits(b2, b1)

    @settings(max_examples=20, deadline=None)
    @given(d=discriminators(max_width=2), extra=extra_lines)
    def test_corrupted_files_rejected(self, d, extra, tmp_path_factory):
        path = tmp_path_factory.mktemp("disc") / "discriminator.txt"
        save_discriminator(d, str(path))
        assert_corruptions_rejected(path, load_discriminator, extra)

    @pytest.mark.parametrize(
        "arrays",
        [
            {},
            {"w0": np.ones((1, 2))},
            {"w0": np.ones((3, 2)), "b0": np.ones(3)},  # three outputs
            {"w0": np.ones((2, 2)), "b0": np.ones(2), "w1": np.ones((1, 3)), "b1": [1]},
            {"b0": np.ones(1), "w0": np.ones((1, 2))},
        ],
    )
    def test_malformed_layers_rejected(self, arrays, tmp_path):
        path = tmp_path / "discriminator.txt"
        textio.save_arrays(str(path), arrays)
        with pytest.raises(ValueError, match="discriminator.txt"):
            load_discriminator(str(path))
