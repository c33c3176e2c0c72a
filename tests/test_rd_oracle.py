import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragcomm.infotheory import (
    JointTable,
    conditional_mi,
    entropy,
    random_joint,
)
from pragcomm import rd_oracle
from pragcomm.rd_oracle import (
    EncoderSpec,
    attach_encoder,
    check_conditions,
    enumerate_frontier,
    make_separable_source,
    pareto_flags,
    theoretical_bound,
)

import frontier_oracle as oracle


def xor_triple() -> JointTable:
    pmf = np.zeros((2, 2, 2))
    for xs in range(2):
        for xr in range(2):
            pmf[xs ^ xr, xs, xr] = 0.25
    return JointTable((("Y", 2), ("X_s", 2), ("X_r", 2)), pmf)


def xs_equals_y_source() -> JointTable:
    # X_s = Y uniform binary, X_r independent uniform
    pmf = np.zeros((2, 2, 2))
    for y in range(2):
        for r in range(2):
            pmf[y, y, r] = 0.25
    return JointTable((("Y", 2), ("X_s", 2), ("X_r", 2)), pmf)


class TestEncoderSpec:
    def test_rejects_bad_stochastic_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EncoderSpec("stochastic", np.array([[0.5, 0.4], [1.0, 0.0]]))

    def test_rejects_nan_stochastic_entry(self):
        with pytest.raises(ValueError):
            EncoderSpec("stochastic", np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            EncoderSpec("magic", np.array([0, 1]))

    def test_deterministic_kernel_is_one_hot(self):
        enc = EncoderSpec("deterministic", np.array([1, 0, 1]))
        k = enc.kernel(3, 2)
        np.testing.assert_array_equal(k, [[0, 1], [1, 0], [0, 1]])


class TestEnumerateFrontier:
    def test_identity_encoder_point(self):
        t = xs_equals_y_source()
        points = enumerate_frontier(t, 2)
        ident = points[0 * 2 + 1]  # mapping (0, 1) has encoder_id 1
        assert ident.rate_bits == pytest.approx(entropy(t, "X_s").value, abs=1e-9)
        assert ident.distortion_nats == pytest.approx(0.0, abs=1e-12)

    def test_constant_encoder_distortion(self):
        rng = np.random.default_rng(21)
        t = random_joint([("Y", 2), ("X_s", 3), ("X_r", 2)], rng)
        points = enumerate_frontier(t, 2)
        const = points[0]  # mapping (0, 0, 0)
        assert const.rate_bits == pytest.approx(0.0, abs=1e-9)
        want = conditional_mi(t, "Y", "X_s", ["X_r"], "nats").value
        assert const.distortion_nats == pytest.approx(want, abs=1e-10)

    def test_some_encoder_attains_rate_one_lossless(self):
        t = xs_equals_y_source()
        points = enumerate_frontier(t, 2)
        assert any(
            abs(p.rate_bits - 1.0) < 1e-9 and abs(p.distortion_nats) < 1e-12
            for p in points
        )

    def test_size_guard(self):
        rng = np.random.default_rng(22)
        t = random_joint([("Y", 2), ("X_s", 4), ("X_r", 2)], rng)
        with pytest.raises(ValueError, match="alphabet too large"):
            enumerate_frontier(t, 5)

    def test_pareto_subset_nonempty_and_consistent(self):
        rng = np.random.default_rng(23)
        t = random_joint([("Y", 2), ("X_s", 3), ("X_r", 2)], rng)
        points = enumerate_frontier(t, 3)
        front = [p for p in points if p.pareto]
        assert front
        for p in front:
            for q in points:
                strictly_better = (
                    q.rate_bits < p.rate_bits - 1e-12
                    and q.distortion_nats <= p.distortion_nats + 1e-12
                ) or (
                    q.distortion_nats < p.distortion_nats - 1e-12
                    and q.rate_bits <= p.rate_bits + 1e-12
                )
                assert not strictly_better


class TestTheoreticalBound:
    def test_xor_triple_at_zero_delta(self):
        assert theoretical_bound(xor_triple(), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_saturates_at_zero(self):
        t = xor_triple()
        big = conditional_mi(t, "Y", "X_s", ["X_r"], "nats").value + 1.0
        assert theoretical_bound(t, big) == 0.0

    def test_xr_equals_xs_gives_zero(self):
        pmf = np.zeros((2, 2, 2))
        for y in range(2):
            for x in range(2):
                pmf[y, x, x] = 0.25
        t = JointTable((("Y", 2), ("X_s", 2), ("X_r", 2)), pmf)
        assert theoretical_bound(t, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_nonincreasing_in_delta(self):
        rng = np.random.default_rng(31)
        t = random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng)
        deltas = np.linspace(0, 2, 20)
        vals = [theoretical_bound(t, d) for d in deltas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            theoretical_bound(xor_triple(), -0.1)
        with pytest.raises(ValueError):
            theoretical_bound(xor_triple(), np.array([0.0, -0.1]))

    def test_array_of_deltas_matches_scalar_calls(self):
        rng = np.random.default_rng(32)
        t = random_joint([("Y", 3), ("X_s", 4), ("X_r", 2)], rng)
        deltas = np.linspace(0.0, 2.0, 33)
        bounds = theoretical_bound(t, deltas)
        assert bounds.shape == deltas.shape
        assert bounds.tolist() == [theoretical_bound(t, float(d)) for d in deltas]
        assert type(theoretical_bound(t, 0.5)) is float


class TestCheckConditions:
    def test_z_function_of_y_gives_zero_conditional_entropy(self):
        source, enc = make_separable_source(
            np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.3, 0.7])
        )
        h_zy, _, _ = check_conditions(source, enc)
        assert h_zy == pytest.approx(0.0, abs=1e-12)

    def test_z_independent_of_xr(self):
        source, enc = make_separable_source(
            np.array([0.25, 0.75]), np.array([0.5, 0.5]), np.array([0.6, 0.4])
        )
        _, i_zxr, _ = check_conditions(source, enc)
        assert i_zxr == pytest.approx(0.0, abs=1e-12)

    def test_bound_achieving_encoder_gap(self):
        source, enc = make_separable_source(
            np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.array([0.5, 0.5])
        )
        _, _, gap = check_conditions(source, enc)
        assert abs(gap) <= 1e-9

    def test_stochastic_encoder_accepted(self):
        rng = np.random.default_rng(41)
        t = random_joint([("Y", 2), ("X_s", 3), ("X_r", 2)], rng)
        enc = EncoderSpec("stochastic", rng.dirichlet(np.ones(2), size=3))
        h_zy, i_zxr, gap = check_conditions(t, enc)
        assert h_zy >= -1e-9 and i_zxr >= -1e-9
        assert gap >= -1e-9  # stochastic encoders also respect the bound


class TestSoundness:
    def test_every_encoder_respects_bound(self):
        rng = np.random.default_rng(51)
        for _ in range(12):
            sizes = rng.integers(2, 5, size=3)
            t = random_joint(
                [("Y", int(sizes[0])), ("X_s", int(sizes[1])), ("X_r", int(sizes[2]))],
                rng,
            )
            z = int(min(sizes[1], 4))
            for p in enumerate_frontier(t, z):
                bound = theoretical_bound(t, max(p.distortion_nats, 0.0))
                assert p.rate_bits >= bound - 1e-9


class TestFullAlphabetSoundness:
    def test_every_encoder_of_the_largest_guarded_alphabet(self):
        rng = np.random.default_rng(52)
        for _ in range(3):
            ny, nr = (int(s) for s in rng.integers(2, 5, size=2))
            t = random_joint([("Y", ny), ("X_s", 6), ("X_r", nr)], rng)
            points = enumerate_frontier(t, 6)
            assert len(points) == 6**6
            rates = np.array([p.rate_bits for p in points])
            dists = np.array([p.distortion_nats for p in points])
            bounds = theoretical_bound(t, np.maximum(dists, 0.0))
            assert (rates - bounds).min() >= -1e-9


class TestTightness:
    def test_constructed_source_attains_bound(self):
        source, enc = make_separable_source(
            np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.5, 0.5])
        )
        h_zy, i_zxr, gap = check_conditions(source, enc)
        assert h_zy <= 1e-9
        assert i_zxr <= 1e-9
        assert gap <= 1e-9

    def test_enumeration_finds_the_bound_toucher(self):
        source, _ = make_separable_source(
            np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.25, 0.75])
        )
        points = enumerate_frontier(source, 2)
        winners = [
            p
            for p in points
            if abs(p.distortion_nats) < 1e-10
            and p.rate_bits <= theoretical_bound(source, 0.0) + 1e-9
        ]
        assert winners
        assert any(p.cond_h_z_given_y <= 1e-9 and p.mi_z_xr <= 1e-9 for p in winners)


class TestMarkovPremise:
    def test_encoders_read_only_xs(self):
        rng = np.random.default_rng(61)
        t = random_joint([("Y", 3), ("X_s", 3), ("X_r", 3)], rng)
        for mapping in ([0, 1, 0], [2, 2, 1]):
            enc = EncoderSpec("deterministic", np.array(mapping))
            ext = attach_encoder(t, enc)
            assert conditional_mi(ext, "Z", "X_r", ["X_s"]).value == pytest.approx(
                0.0, abs=1e-10
            )
            assert conditional_mi(ext, "Z", "Y", ["X_s"]).value == pytest.approx(
                0.0, abs=1e-10
            )


class TestParetoFlags:
    def test_simple_front(self):
        pts = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 0.5)]
        flags = pareto_flags(pts)
        assert flags == [True, False, True, True]

    def test_empty(self):
        assert pareto_flags([]) == []

    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_exact_ties_all_kept(self, eps):
        assert pareto_flags([(1.0, 2.0)] * 3, eps) == [True, True, True]

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.sampled_from([0.0, 1e-12]),
        cells=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5]),
                st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                st.sampled_from([0.0, 1.0, 2.5]),
                st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
            ),
            max_size=25,
        ),
    )
    def test_matches_quadratic_loop_on_near_ties(self, eps, cells):
        # coordinates on a coarse grid, each moved by a multiple of about eps
        step = eps if eps else 1e-12
        pts = [(a + da * step, b + db * step) for a, da, b, db in cells]
        assert pareto_flags(pts, eps) == oracle.pareto_flags(pts, eps)

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.sampled_from([0.0, 1e-12]),
        pts=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            max_size=25,
        ),
    )
    def test_matches_quadratic_loop_on_arbitrary_points(self, eps, pts):
        assert pareto_flags(pts, eps) == oracle.pareto_flags(pts, eps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coord", [0, 1])
    def test_non_finite_point_rejected(self, bad, coord):
        pts = [[1.0, 1.0], [2.0, 0.5]]
        pts[1][coord] = bad
        with pytest.raises(ValueError, match="finite"):
            pareto_flags(pts)


@st.composite
def sources(draw):
    """A (Y, X_s, X_r) source with axes of size 1-5 in a random order, often
    with exact-zero atoms."""
    sizes = [draw(st.integers(1, 5)) for _ in range(3)]
    weights = draw(
        st.lists(
            st.sampled_from([0.0]) | st.floats(1e-3, 1.0),
            min_size=int(np.prod(sizes)),
            max_size=int(np.prod(sizes)),
        ).filter(lambda w: sum(w) > 0)
    )
    axes = draw(st.permutations(list(zip(("Y", "X_s", "X_r"), sizes))))
    pmf = np.array(weights).reshape([s for _, s in axes])
    return JointTable(tuple(axes), pmf / pmf.sum())


def assert_same_points(got, want):
    assert [p.encoder_id for p in got] == [p.encoder_id for p in want]
    assert [p.pareto for p in got] == [p.pareto for p in want]
    for field in ("rate_bits", "distortion_nats", "cond_h_z_given_y", "mi_z_xr"):
        a = np.array([getattr(p, field) for p in got])
        b = np.array([getattr(p, field) for p in want])
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=field)


class TestBatchedFrontierMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(source=sources(), data=st.data())
    def test_random_sources(self, source, data):
        z = data.draw(st.integers(1, source.size("X_s")))
        assert_same_points(
            enumerate_frontier(source, z), oracle.enumerate_frontier(source, z)
        )

    @pytest.mark.parametrize(
        "n_source,z", [(n, z) for n in range(1, 6) for z in range(1, n + 1)]
    )
    def test_every_z_alphabet(self, n_source, z):
        rng = np.random.default_rng(100 + 10 * n_source + z)
        pmf = rng.dirichlet(np.ones(3 * n_source * 2)).reshape(3, n_source, 2)
        pmf[:, 0, 0] = 0.0  # exact-zero atoms
        t = JointTable((("Y", 3), ("X_s", n_source), ("X_r", 2)), pmf / pmf.sum())
        assert_same_points(enumerate_frontier(t, z), oracle.enumerate_frontier(t, z))

    def test_encoders_in_many_blocks(self, monkeypatch):
        monkeypatch.setattr(rd_oracle, "_BLOCK_CELLS", 100)
        rng = np.random.default_rng(105)
        t = random_joint([("Y", 3), ("X_s", 4), ("X_r", 2)], rng)
        assert_same_points(enumerate_frontier(t, 3), oracle.enumerate_frontier(t, 3))

    def test_source_symbol_with_no_mass(self):
        pmf = np.zeros((2, 3, 2))
        pmf[:, 1:, :] = 1.0 / 8
        t = JointTable((("Y", 2), ("X_s", 3), ("X_r", 2)), pmf)
        assert_same_points(enumerate_frontier(t, 3), oracle.enumerate_frontier(t, 3))
