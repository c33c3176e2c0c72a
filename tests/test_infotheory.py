import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert entropy(t, "A").value == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_is_zero(self):
        t = JointTable((("A", 3),), np.array([0.0, 1.0, 0.0]))
        assert entropy(t, "A").value == pytest.approx(0.0, abs=1e-12)

    def test_dyadic(self):
        t = JointTable((("A", 4),), np.array([0.5, 0.25, 0.125, 0.125]))
        assert entropy(t, "A").value == pytest.approx(1.75, abs=1e-12)

    def test_unknown_axis(self):
        t = JointTable((("A", 2),), np.array([0.5, 0.5]))
        with pytest.raises(AxisError):
            entropy(t, "B")

    def test_unit_conversion(self):
        t = JointTable((("A", 3),), np.array([0.2, 0.5, 0.3]))
        b = entropy(t, "A", "bits")
        n = entropy(t, "A", "nats")
        assert b.value * LN2 == pytest.approx(n.value, abs=1e-12)
        assert b.in_nats() == pytest.approx(n.value, abs=1e-12)
        assert n.in_bits() == pytest.approx(b.value, abs=1e-12)


class TestConditionalEntropy:
    def test_target_identical_to_given_raises(self):
        t = xor_triple()
        with pytest.raises(AxisError):
            conditional_entropy(t, "Y", ["Y"])

    def test_copy_axis_gives_zero(self):
        pmf = np.zeros((2, 2))
        pmf[0, 0] = pmf[1, 1] = 0.5
        t = JointTable((("A", 2), ("B", 2)), pmf)
        assert conditional_entropy(t, "A", ["B"]).value == pytest.approx(0.0, abs=1e-12)

    def test_independent_axes(self):
        pa = np.array([0.3, 0.7])
        pb = np.array([0.25, 0.25, 0.5])
        t = JointTable((("A", 2), ("B", 3)), np.outer(pa, pb))
        assert conditional_entropy(t, "A", ["B"]).value == pytest.approx(
            entropy(t, "A").value, abs=1e-12
        )

    def test_xor_given_one_input(self):
        # plug-in over the 8-entry joint table
        t = xor_triple()
        assert conditional_entropy(t, "Y", ["X_s"]).value == pytest.approx(1.0, abs=1e-12)


class TestMutualInformation:
    def test_independent_zero(self):
        t = JointTable((("A", 2), ("B", 2)), np.full((2, 2), 0.25))
        assert mutual_information(t, "A", "B").value == pytest.approx(0.0, abs=1e-12)

    def test_identical_uniform_four(self):
        pmf = np.zeros((4, 4))
        np.fill_diagonal(pmf, 0.25)
        t = JointTable((("A", 4), ("B", 4)), pmf)
        assert mutual_information(t, "A", "B").value == pytest.approx(2.0, abs=1e-12)

    def test_bsc(self):
        t = bsc_table(0.1)
        expect = 1.0 - h2(0.1)  # ~0.531 bits
        assert mutual_information(t, "X", "Z").value == pytest.approx(expect, abs=1e-12)


class TestConditionalMI:
    def test_given_determines_a(self):
        # A is a function of C, so I(A; B | C) = 0
        pmf = np.zeros((2, 2, 2))
        for c in range(2):
            for b in range(2):
                pmf[c, b, c] = 0.25
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), pmf)
        assert conditional_mi(t, "A", "B", ["C"]).value == pytest.approx(0.0, abs=1e-12)

    def test_xor_triple(self):
        t = xor_triple()
        assert conditional_mi(t, "Y", "X_s", ["X_r"]).value == pytest.approx(1.0, abs=1e-12)

    def test_fully_independent(self):
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), np.full((2, 2, 2), 0.125))
        assert conditional_mi(t, "A", "B", ["C"]).value == pytest.approx(0.0, abs=1e-12)


class TestInteractionInformation:
    def test_independent_axis_zero(self):
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), np.full((2, 2, 2), 0.125))
        assert interaction_information(t, "A", "B", "C").value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_xor_is_minus_one(self):
        t = xor_triple()
        assert interaction_information(t, "Y", "X_s", "X_r").value == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_three_copies_uniform_binary(self):
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = pmf[1, 1, 1] = 0.5
        t = JointTable((("A", 2), ("B", 2), ("C", 2)), pmf)
        assert interaction_information(t, "A", "B", "C").value == pytest.approx(
            1.0, abs=1e-12
        )


class TestPluginFromSamples:
    def test_single_repeated_tuple(self):
        t = plugin_from_samples([(1, 0)] * 10, [("A", 2), ("B", 2)])
        assert t.pmf[1, 0] == 1.0
        assert entropy(t, "A").value == 0.0

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
            lhs = joint_entropy(t, ["A", "B"]).value
            rhs = entropy(t, "A").value + conditional_entropy(t, "B", ["A"]).value
            assert abs(lhs - rhs) < 1e-10

    def test_rate_decomposition_identity(self):
        # I(Y; X_s | X_r) = H(X_s) - H(X_s | Y) - I(Y; X_s; X_r)
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng)
            lhs = conditional_mi(t, "Y", "X_s", ["X_r"]).value
            rhs = (
                entropy(t, "X_s").value
                - conditional_entropy(t, "X_s", ["Y"]).value
                - interaction_information(t, "Y", "X_s", "X_r").value
            )
            assert abs(lhs - rhs) < 1e-10

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = random_joint([("Y", 3), ("X_s", 4)], rng)
            kernel = rng.dirichlet(np.ones(3), size=4)
            ext = extend_with_channel(t, "X_s", "Z", kernel)
            i_yz = mutual_information(ext, "Y", "Z").value
            i_yx = mutual_information(ext, "Y", "X_s").value
            assert i_yz <= i_yx + 1e-10

    def test_entropy_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = random_joint([("A", 4), ("B", 3)], rng)
            assert entropy(t, "A").value >= -1e-12
            assert conditional_entropy(t, "A", ["B"]).value >= -1e-12
            assert mutual_information(t, "A", "B").value >= -1e-12


class TestExtendWithChannel:
    def test_deterministic_relabel_preserves_information(self):
        t = xor_triple()
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])  # swap symbols
        ext = extend_with_channel(t, "X_s", "Z", kernel)
        assert mutual_information(ext, "Z", "X_s").value == pytest.approx(1.0, abs=1e-12)
        assert conditional_mi(ext, "Z", "X_r", ["X_s"]).value == pytest.approx(
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
            entropy(t, "A").value,
            joint_entropy(t, ["A", "B"], "nats").value,
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
