import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragcomm.bayes_risk import RiskParams, pragmatic_distortion
from pragcomm.infotheory import (
    LN2,
    AxisError,
    JointTable,
    _entropies_nats,
    conditional_entropy,
    conditional_mi,
    entropy,
    extend_with_channel,
    interaction_information,
    joint_entropy,
    marginal,
    mutual_information,
    plugin_from_samples,
    random_joint,
)


def xor_triple() -> JointTable:
    """Y = X_s xor X_r with fair independent input bits."""
    pmf = np.zeros((2, 2, 2))
    for xs in range(2):
        for xr in range(2):
            pmf[xs ^ xr, xs, xr] = 0.25
    return JointTable((("Y", 2), ("X_s", 2), ("X_r", 2)), pmf)


def bsc_table(flip: float) -> JointTable:
    """Uniform binary input through a binary symmetric channel."""
    pmf = np.array([[0.5 * (1 - flip), 0.5 * flip], [0.5 * flip, 0.5 * (1 - flip)]])
    return JointTable((("X", 2), ("Z", 2)), pmf)


def h2(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestJointTable:
    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="sums to"):
            JointTable((("A", 2),), np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            JointTable((("A", 2),), np.array([1.1, -0.1]))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            JointTable((("A", 2), ("A", 2)), np.full((2, 2), 0.25))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            JointTable((("A", 3),), np.array([0.5, 0.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            JointTable((("A", 2),), np.array([np.nan, 1.0]))

    def test_pmf_is_immutable(self):
        t = JointTable((("A", 2),), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            t.pmf[0] = 1.0


class TestEntropy:
    def test_uniform_four_symbols(self):
        t = JointTable((("A", 4),), np.full(4, 0.25))
        assert entropy(t, "A") == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_is_zero(self):
        t = JointTable((("A", 3),), np.array([0.0, 1.0, 0.0]))
        assert entropy(t, "A") == pytest.approx(0.0, abs=1e-12)

    def test_dyadic(self):
        t = JointTable((("A", 4),), np.array([0.5, 0.25, 0.125, 0.125]))
        assert entropy(t, "A") == pytest.approx(1.75, abs=1e-12)

    def test_unknown_axis(self):
        t = JointTable((("A", 2),), np.array([0.5, 0.5]))
        with pytest.raises(AxisError):
            entropy(t, "B")

    def test_unit_conversion(self):
        t = JointTable((("A", 3),), np.array([0.2, 0.5, 0.3]))
        b = entropy(t, "A", "bits")
        n = entropy(t, "A", "nats")
        assert b * LN2 == pytest.approx(n, abs=1e-12)


class TestConditionalEntropy:
    def test_target_identical_to_given_raises(self):
        t = xor_triple()
        with pytest.raises(AxisError):
            conditional_entropy(t, "Y", ["Y"])

    def test_copy_axis_gives_zero(self):
        pmf = np.zeros((2, 2))
        pmf[0, 0] = pmf[1, 1] = 0.5
        t = JointTable((("A", 2), ("B", 2)), pmf)
        assert conditional_entropy(t, "A", ["B"]) == pytest.approx(0.0, abs=1e-12)

    def test_independent_axes(self):
        pa = np.array([0.3, 0.7])
        pb = np.array([0.25, 0.25, 0.5])
        t = JointTable((("A", 2), ("B", 3)), np.outer(pa, pb))
        assert conditional_entropy(t, "A", ["B"]) == pytest.approx(
            entropy(t, "A"), abs=1e-12
        )

    def test_xor_given_one_input(self):
        # plug-in over the 8-entry joint table
        t = xor_triple()
        assert conditional_entropy(t, "Y", ["X_s"]) == pytest.approx(1.0, abs=1e-12)


class TestMutualInformation:
    def test_independent_zero(self):
        t = JointTable((("A", 2), ("B", 2)), np.full((2, 2), 0.25))
        assert mutual_information(t, "A", "B") == pytest.approx(0.0, abs=1e-12)

    def test_identical_uniform_four(self):
        pmf = np.zeros((4, 4))
        np.fill_diagonal(pmf, 0.25)
        t = JointTable((("A", 4), ("B", 4)), pmf)
        assert mutual_information(t, "A", "B") == pytest.approx(2.0, abs=1e-12)

    def test_bsc(self):
        t = bsc_table(0.1)
        expect = 1.0 - h2(0.1)  # ~0.531 bits
        assert mutual_information(t, "X", "Z") == pytest.approx(expect, abs=1e-12)


class TestConditionalMI:
    def test_given_determines_a(self):
        # A is a function of C, so I(A; B | C) = 0
        pmf = np.zeros((2, 2, 2))
        for c in range(2):
            for b in range(2):
                pmf[c, b, c] = 0.25
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), pmf)
        assert conditional_mi(t, "A", "B", ["C"]) == pytest.approx(0.0, abs=1e-12)

    def test_xor_triple(self):
        t = xor_triple()
        assert conditional_mi(t, "Y", "X_s", ["X_r"]) == pytest.approx(1.0, abs=1e-12)

    def test_fully_independent(self):
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), np.full((2, 2, 2), 0.125))
        assert conditional_mi(t, "A", "B", ["C"]) == pytest.approx(0.0, abs=1e-12)


class TestInteractionInformation:
    def test_independent_axis_zero(self):
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), np.full((2, 2, 2), 0.125))
        assert interaction_information(t, "A", "B", "C") == pytest.approx(
            0.0, abs=1e-12
        )

    def test_xor_is_minus_one(self):
        t = xor_triple()
        assert interaction_information(t, "Y", "X_s", "X_r") == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_three_copies_uniform_binary(self):
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = pmf[1, 1, 1] = 0.5
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), pmf)
        assert interaction_information(t, "A", "B", "C") == pytest.approx(
            1.0, abs=1e-12
        )


class TestPluginFromSamples:
    def test_single_repeated_tuple(self):
        t = plugin_from_samples([(1, 0)] * 10, [("A", 2), ("B", 2)])
        assert t.pmf[1, 0] == 1.0
        assert entropy(t, "A") == 0.0

    def test_two_equiprobable(self):
        t = plugin_from_samples([(0, 0), (1, 1)], [("A", 2), ("B", 2)])
        assert t.pmf[0, 0] == 0.5
        assert t.pmf[1, 1] == 0.5

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError, match="alphabet"):
            plugin_from_samples([(0, 5)], [("A", 2), ("B", 2)])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            plugin_from_samples([], [("A", 2)])

    def test_large_sample_close_to_truth(self):
        rng = np.random.default_rng(99)
        truth = random_joint([("A", 3), ("B", 2)], rng)
        flat = truth.pmf.ravel()
        draws = rng.choice(flat.size, size=100_000, p=flat)
        samples = [tuple(np.unravel_index(d, truth.pmf.shape)) for d in draws]
        est = plugin_from_samples(samples, list(truth.axes))
        l1 = np.abs(est.pmf - truth.pmf).sum()
        assert l1 < 0.02


class TestInvariants:
    def test_chain_rule_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = random_joint([("A", 3), ("B", 4)], rng)
            lhs = joint_entropy(t, ["A", "B"])
            rhs = entropy(t, "A") + conditional_entropy(t, "B", ["A"])
            assert abs(lhs - rhs) < 1e-10

    def test_rate_decomposition_identity(self):
        # I(Y; X_s | X_r) = H(X_s) - H(X_s | Y) - I(Y; X_s; X_r)
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng)
            lhs = conditional_mi(t, "Y", "X_s", ["X_r"])
            rhs = (
                entropy(t, "X_s")
                - conditional_entropy(t, "X_s", ["Y"])
                - interaction_information(t, "Y", "X_s", "X_r")
            )
            assert abs(lhs - rhs) < 1e-10

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = random_joint([("Y", 3), ("X_s", 4)], rng)
            kernel = rng.dirichlet(np.ones(3), size=4)
            ext = extend_with_channel(t, "X_s", "Z", kernel)
            i_yz = mutual_information(ext, "Y", "Z")
            i_yx = mutual_information(ext, "Y", "X_s")
            assert i_yz <= i_yx + 1e-10

    def test_entropy_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = random_joint([("A", 4), ("B", 3)], rng)
            assert entropy(t, "A") >= -1e-12
            assert conditional_entropy(t, "A", ["B"]) >= -1e-12
            assert mutual_information(t, "A", "B") >= -1e-12


class TestExtendWithChannel:
    def test_deterministic_relabel_preserves_information(self):
        t = xor_triple()
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])  # swap symbols
        ext = extend_with_channel(t, "X_s", "Z", kernel)
        assert mutual_information(ext, "Z", "X_s") == pytest.approx(1.0, abs=1e-12)
        assert conditional_mi(ext, "Z", "X_r", ["X_s"]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rejects_bad_kernel(self):
        t = xor_triple()
        with pytest.raises(ValueError, match="pmfs"):
            extend_with_channel(t, "X_s", "Z", np.array([[0.5, 0.4], [1.0, 0.0]]))

    def test_rejects_nan_kernel_row(self):
        t = JointTable((("X", 2),), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="pmfs"):
            extend_with_channel(t, "X", "Z", np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_rejects_existing_name(self):
        t = xor_triple()
        with pytest.raises(AxisError):
            extend_with_channel(t, "X_s", "Y", np.eye(2))


class TestTextFormat:
    def test_marginal_unknown_axis(self):
        t = JointTable((("A", 2),), np.array([0.5, 0.5]))
        with pytest.raises(AxisError):
            marginal(t, ["Q"])


# atoms on both sides of the 1e-15 zero-atom cut, exact zeros included
_atoms = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-15),
    st.floats(min_value=2e-15, max_value=1.0),
)


class TestEntropyKernel:
    @given(st.lists(_atoms, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_with_tiny_atoms_as_zero(self, atoms):
        p = np.array(atoms)
        h = _entropies_nats(p[None])[0]
        assert h == _entropies_nats(np.where(p > 1e-15, p, 0.0)[None])[0]
        closed = -math.fsum(a * math.log(a) for a in atoms if a > 1e-15)
        assert h == pytest.approx(closed, rel=1e-12, abs=1e-15)

    def test_rows_are_independent_entropies(self):
        rows = np.random.default_rng(4).dirichlet(np.ones(6), size=5)
        batched = _entropies_nats(rows)
        assert batched.tolist() == [_entropies_nats(r[None])[0] for r in rows]

    def test_point_mass_gives_positive_zero(self):
        t = JointTable((("A", 3), ("B", 2)), np.array([[0, 0], [1.0, 0], [0, 0]]))
        for value in (
            entropy(t, "A"),
            joint_entropy(t, ["A", "B"], "nats"),
            _entropies_nats(np.array([[1.0]]))[0],
        ):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_conditioning_on_nothing_is_plain_entropy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = random_joint([("A", 4), ("B", 3)], rng)
            for base in ("bits", "nats"):
                assert conditional_entropy(t, "A", [], base) == entropy(t, "A", base)

    def test_scalar_quantities_build_no_tables(self, monkeypatch):
        t = random_joint([("A", 3), ("B", 2), ("C", 2)], np.random.default_rng(2))
        built = []
        validate = JointTable.__post_init__

        def counting(self):
            built.append(self.axes)
            validate(self)

        monkeypatch.setattr(JointTable, "__post_init__", counting)
        entropy(t, "A")
        joint_entropy(t, ["A", "C"])
        conditional_entropy(t, "A", ["B", "C"])
        mutual_information(t, "A", "B")
        conditional_mi(t, "A", "B", ["C"])
        interaction_information(t, "A", "B", "C")
        assert built == []
        marginal(t, ["A"])  # the public marginal still returns a validated table
        assert built == [(("A", 3),)]

    def test_interaction_information_rejects_repeated_axis(self):
        with pytest.raises(AxisError):
            interaction_information(xor_triple(), "Y", "X_s", "Y")

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            conditional_mi(xor_triple(), "Y", "X_s", ["X_r"], "trits")


def stack_pmfs(rng: np.random.Generator, n: int, sizes: tuple, p_zero: float) -> np.ndarray:
    """n random pmfs over sizes; each cell is an exact zero with probability p_zero."""
    cells = rng.exponential(size=(n, math.prod(sizes)))
    cells[rng.uniform(size=cells.shape) < p_zero] = 0.0
    cells[cells.sum(axis=1) == 0, 0] = 1.0
    return (cells / cells.sum(axis=1, keepdims=True)).reshape(n, *sizes)


def assert_per_table(stacked, per_table):
    """A stack's values are, bit for bit, the unstacked tables' floats."""
    assert all(type(v) is float for v in per_table)
    assert isinstance(stacked, np.ndarray) and stacked.dtype == np.float64
    assert stacked.shape == (len(per_table),)
    assert stacked.tobytes() == np.array(per_table).tobytes()


@st.composite
def table_stacks(draw):
    """(axes, pmf stack, a shuffled axis order) over 1-4 axes of size 1-4."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    axes = tuple((f"V{i}", s) for i, s in enumerate(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pmf = stack_pmfs(rng, draw(st.integers(1, 5)), sizes, draw(st.sampled_from([0.0, 0.3])))
    return axes, pmf, draw(st.permutations([n for n, _ in axes]))


class TestStackedTables:
    """A stack of tables gives each table's own values, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(stack=table_stacks(), base=st.sampled_from(["bits", "nats"]), data=st.data())
    def test_every_quantity_matches_the_tables_alone(self, stack, base, data):
        axes, pmf, order = stack
        t = JointTable(axes, pmf)
        tables = [JointTable(axes, p) for p in pmf]
        a, rest = order[0], order[1:]
        given_ = data.draw(st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]))
        calls = [
            (entropy, (a,)),
            (joint_entropy, (order[: data.draw(st.integers(0, len(order)))],)),
            (conditional_entropy, (a, given_)),
        ]
        if rest:
            b, others = rest[0], rest[1:]
            given_b = data.draw(st.lists(st.sampled_from(others), unique=True)
                                if others else st.just([]))
            calls += [(mutual_information, (a, b)), (conditional_mi, (a, b, given_b))]
            if others:
                calls.append((interaction_information, (a, b, others[0])))
        for f, args in calls:
            assert_per_table(f(t, *args, base), [f(one, *args, base) for one in tables])
            # the unit is the base argument: bits times ln 2 are nats, table by table
            bits, nats = f(t, *args, "bits"), f(t, *args, "nats")
            assert np.abs(bits * LN2 - nats).max() <= 1e-12
        kept = marginal(t, [a, *given_])
        assert kept.pmf.tobytes() == np.stack([marginal(one, [a, *given_]).pmf
                                               for one in tables]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(stack=table_stacks(), n_z=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_extend_with_a_kernel_per_table(self, stack, n_z, seed):
        axes, pmf, order = stack
        rng = np.random.default_rng(seed)
        source = order[0]
        kernels = rng.dirichlet(np.ones(n_z), size=(len(pmf), dict(axes)[source]))
        ext = extend_with_channel(JointTable(axes, pmf), source, "Z", kernels)
        alone = [extend_with_channel(JointTable(axes, p), source, "Z", k)
                 for p, k in zip(pmf, kernels)]
        assert ext.axes == alone[0].axes
        assert ext.pmf.tobytes() == np.stack([e.pmf for e in alone]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 2), min_size=6, max_size=6),
           task=st.sampled_from(["segmentation", "detection"]))
    def test_pragmatic_distortion_per_table(self, n, seed, sizes, task):
        rng = np.random.default_rng(seed)
        names = ("Y", "X_s", "X_r", "loc", "size", "ori")
        axes = tuple(zip(names, sizes))
        pmf = stack_pmfs(rng, n, tuple(sizes), 0.3)
        kernels = rng.dirichlet(np.ones(3), size=(n, sizes[1]))
        ext = extend_with_channel(JointTable(axes, pmf), "X_s", "Z", kernels)
        params = RiskParams((0.5, 1.0, 2.0))
        alone = [
            pragmatic_distortion(extend_with_channel(JointTable(axes, p), "X_s", "Z", k),
                                 task, params)
            for p, k in zip(pmf, kernels)
        ]
        assert_per_table(pragmatic_distortion(ext, task, params), alone)

    def test_random_joint_stack_is_the_calls_in_order(self):
        axes = [("A", 3), ("B", 2)]
        one_by_one = np.random.default_rng(5)
        want = [random_joint(axes, one_by_one).pmf for _ in range(7)]
        stacked = np.random.default_rng(5)
        t = random_joint(axes, stacked, 7)
        assert t.stacked and t.pmf.tobytes() == np.stack(want).tobytes()
        assert stacked.random() == one_by_one.random()

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize(
        "bad, message",
        [(-0.5, "entries must be nonnegative"), (np.nan, "entries must be"), (0.25, "sums to")],
    )
    def test_bad_table_is_named(self, k, bad, message):
        pmf = np.full((3, 2, 2), 0.25)
        pmf[k, 1, 0] += bad
        with pytest.raises(ValueError, match=f"^table {k}: pmf {message}"):
            JointTable((("A", 2), ("B", 2)), pmf)

    def test_kernel_stack_must_match_the_tables(self):
        t = JointTable((("A", 2),), np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match=r"kernel must be \(3, 2, z\) shaped"):
            extend_with_channel(t, "A", "Z", np.eye(2))

    def test_unstacked_values_stay_float(self):
        t = xor_triple()
        values = [
            entropy(t, "Y"),
            joint_entropy(t, []),
            conditional_entropy(t, "Y", ["X_s"]),
            mutual_information(t, "Y", "X_s"),
            conditional_mi(t, "Y", "X_s", ["X_r"]),
            interaction_information(t, "Y", "X_s", "X_r"),
        ]
        assert all(type(v) is float for v in values)
        assert not t.stacked
