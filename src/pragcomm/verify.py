"""The checks of ``pragcomm verify-theory``: the information identities,
the rate bound, the distortion identity and the Monte-Carlo estimators on
tables drawn from the ``[verify] seed``, and ``frontier.csv``'s rows.

The oracles are called through their module attributes
(``rd.frontier_columns``, ``br.mc_ce``, ...), never imported by name, so a
caller that rebinds a module attribute sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bayes_risk as br
from . import infotheory as it
from . import rd_oracle as rd

SOURCE_CHUNK = 256  # random sources held at once, which bounds their memory
# the checks in the order ``checks`` yields them, so that a run stopped by
# one that raises can name it
CHECK_NAMES = (
    "identity_rate_decomposition", "identity_chain_rule", "unit_conversion",
    "data_processing_inequality", "bound_soundness", "bound_tightness_conditions",
    "markov_premise", "bound_monotone_in_delta", "distortion_identity",
    "distortion_nonnegative", "mc_gaussian_l1", "mc_laplace_l1", "mc_cross_entropy",
    "first_order_exponential_bound",
)
FRONTIER_COLUMNS = ("source", "encoder_id", "rate_bits", "distortion_nats", "h_z_given_y",
                    "mi_z_xr", "bound_bits", "pareto_flag")


@dataclass(frozen=True)
class VerifyConfig:
    sources: int = 50  # random sources the bound is checked on
    tables: int = 200  # random tables of the rate-decomposition identity
    mc_draws: int = 1_000_000  # draws of each Monte-Carlo check
    z_max: int = 4  # largest encoder output alphabet
    seed: int = 7


def random_frontiers(rng: np.random.Generator, n: int, z_max: int):
    """Yields (``rd.frontier_columns``, their bounds) for n random sources
    drawn from rng, in draw order, each with output alphabets up to z_max.
    The sources are drawn SOURCE_CHUNK at a time, each its sizes and then
    its pmf; a chunk's sources of one shape are then evaluated as one stack."""
    names = ("Y", "X_s", "X_r")
    for start in range(0, n, SOURCE_CHUNK):
        draws = []
        for _ in range(min(SOURCE_CHUNK, n - start)):
            sizes = tuple(int(s) for s in rng.integers(2, 5, size=3))
            draws.append((sizes, it.random_pmf(sizes, rng)))
        groups: dict[tuple, list[int]] = {}  # shape -> its sources, in draw order
        for k, (sizes, _) in enumerate(draws):
            groups.setdefault(sizes, []).append(k)
        results = [None] * len(draws)
        for sizes, members in groups.items():
            t = it.JointTable(tuple(zip(names, sizes)), np.stack([draws[k][1] for k in members]))
            columns = rd.frontier_columns(t, min(sizes[1], z_max))
            bounds = rd.theoretical_bound(t, np.maximum(columns[1], 0.0))
            for row, k in enumerate(members):
                results[k] = tuple(c[row] for c in columns), bounds[row]
        yield from results


def channel_stack(rng: np.random.Generator, axes: list, n_z: int, n: int) -> it.JointTable:
    """n random tables over axes, each extended to a "Z" axis through its own
    random channel from "X_s"; every table is drawn before its kernel."""
    sizes = tuple(s for _, s in axes)
    pmfs, kernels = [], []
    for _ in range(n):
        pmfs.append(it.random_pmf(sizes, rng))
        kernels.append(rng.dirichlet(np.ones(n_z), size=dict(axes)["X_s"]))
    t = it.JointTable(tuple(axes), np.stack(pmfs))
    return it.extend_with_channel(t, "X_s", "Z", np.stack(kernels))


def checks(vc: VerifyConfig):
    """Yields (name, margin, tolerance, passed) tuples, one per name of
    CHECK_NAMES in its order; margins are the worst-case observed values,
    tolerances the acceptance thresholds.

    The Laplace and cross-entropy Monte-Carlo checks run on one worker
    thread while this one runs the others: numpy releases the GIL while it
    draws and sums.  No output depends on which thread finishes first: each
    Monte-Carlo check draws from its own generator and sums in a fixed
    order, the main generator draws in the same order as without the
    worker, and every result is taken and yielded in check order, a worker's
    exception at its own check.  The thread is joined when the checks end
    or are closed; a worker check not yet started is dropped."""
    # imported here, so that importing the CLI for another command loads no new module
    from concurrent.futures import ThreadPoolExecutor

    worker = ThreadPoolExecutor(max_workers=1)
    try:
        n, sigma, b = vc.mc_draws, 1.0, 3.0  # the Gaussian and Laplace draws' scales
        laplace = worker.submit(br.mc_l1_laplace, b, n, np.random.default_rng(vc.seed + 2))
        rng = np.random.default_rng(vc.seed)

        t = it.random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng, vc.tables)
        lhs = it.conditional_mi(t, "Y", "X_s", ["X_r"])
        rhs = (
            it.entropy(t, "X_s")
            - it.conditional_entropy(t, "X_s", ["Y"])
            - it.interaction_information(t, "Y", "X_s", "X_r")
        )
        worst = float(np.abs(lhs - rhs).max())
        yield "identity_rate_decomposition", worst, 1e-10, worst <= 1e-10

        t = it.random_joint([("A", 3), ("B", 4)], rng, 100)
        lhs = it.joint_entropy(t, ["A", "B"])
        rhs = it.entropy(t, "A") + it.conditional_entropy(t, "B", ["A"])
        worst = float(np.abs(lhs - rhs).max())
        yield "identity_chain_rule", worst, 1e-10, worst <= 1e-10

        t = it.random_joint([("A", 5)], rng)
        bits = it.entropy(t, "A", "bits")
        nats = it.entropy(t, "A", "nats")
        diff = abs(bits * it.LN2 - nats)
        yield "unit_conversion", diff, 1e-12, diff <= 1e-12

        ext = channel_stack(rng, [("Y", 3), ("X_s", 4)], 3, 50)
        gap = it.mutual_information(ext, "Y", "Z") - it.mutual_information(ext, "Y", "X_s")
        worst = float(gap.max())
        yield "data_processing_inequality", worst, 1e-10, worst <= 1e-10

        margins = [(rates - bounds).min() for (rates, *_), bounds in
                   random_frontiers(rng, vc.sources, vc.z_max)]
        worst = float(np.min(margins))  # a NaN margin propagates and fails
        yield "bound_soundness", worst, -1e-9, worst >= -1e-9

        source, kernel = rd.make_separable_source(
            np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.array([0.4, 0.6])
        )
        h_zy, i_zxr, gap = rd.check_conditions(source, kernel)
        worst = max(h_zy, i_zxr, gap)
        yield "bound_tightness_conditions", worst, 1e-9, worst <= 1e-9

        t = it.random_joint([("Y", 3), ("X_s", 3), ("X_r", 3)], rng)
        ext = it.extend_with_channel(t, "X_s", "Z", rd.deterministic_kernel([0, 1, 0]))
        worst = max(
            it.conditional_mi(ext, "Z", "X_r", ["X_s"]),
            it.conditional_mi(ext, "Z", "Y", ["X_s"]),
        )
        yield "markov_premise", worst, 1e-10, worst <= 1e-10

        t = it.random_joint([("Y", 3), ("X_s", 3), ("X_r", 2)], rng)
        deltas = np.linspace(0.0, 1.5, 16)
        vals = rd.theoretical_bound(t, deltas)
        worst = float(np.diff(vals).max())
        yield "bound_monotone_in_delta", worst, 1e-12, worst <= 1e-12

        ext = channel_stack(rng, [("Y", 2), ("X_s", 3), ("X_r", 2)], 2, 50)
        ce_table = it.random_joint([("Y", 3), ("X", 3)], rng)
        ce = worker.submit(
            br.mc_ce, ce_table, "Y", ["X"], n, np.random.default_rng(vc.seed + 3)
        )
        d = br.pragmatic_distortion(ext, "segmentation")
        want = (
            it.conditional_mi(ext, "Y", "X_s", ["X_r"], "nats")
            - it.conditional_mi(ext, "Y", "Z", ["X_r"], "nats")
        )
        worst, worst_neg = float(np.abs(d - want).max()), float(d.min())
        yield "distortion_identity", worst, 1e-10, worst <= 1e-10
        yield "distortion_nonnegative", worst_neg, -1e-10, worst_neg >= -1e-10

        est = br.mc_l1_gaussian(sigma, n, np.random.default_rng(vc.seed + 1))
        closed = br.bayes_risk_l1_gaussian(sigma)
        rel = abs(est - closed) / closed
        yield "mc_gaussian_l1", rel, 0.01, rel <= 0.01

        closed = br.bayes_risk_l1_laplace(b)
        rel = abs(laplace.result() - closed) / closed
        yield "mc_laplace_l1", rel, 0.01, rel <= 0.01

        closed = br.bayes_risk_ce(ce_table, "Y", ["X"])
        rel = abs(ce.result() - closed) / max(closed, 1e-12)
        yield "mc_cross_entropy", rel, 0.01, rel <= 0.01

        h = rng.uniform(0, 3, size=(200, 2))
        h1, h2 = np.maximum(h[:, 0], h[:, 1]), np.minimum(h[:, 0], h[:, 1])
        worst = float(((h1 - h2) / math.e - (np.exp(h1 - 1) - np.exp(h2 - 1))).max())
        yield "first_order_exponential_bound", worst, 1e-12, worst <= 1e-12
    finally:
        worker.shutdown(cancel_futures=True)


def frontier_rows(vc: VerifyConfig) -> list[tuple]:
    """``frontier.csv``'s rows (FRONTIER_COLUMNS), one per encoder of at most
    ten random sources drawn afresh from the ``[verify] seed`` generator."""
    rng = np.random.default_rng(vc.seed)
    rows = []
    frontiers = random_frontiers(rng, min(vc.sources, 10), vc.z_max)
    for src_id, (columns, bounds) in enumerate(frontiers):
        flags = rd.pareto_flags(np.column_stack(columns[:2]))
        values = zip(*(c.tolist() for c in columns), bounds.tolist(), flags)
        rows.extend((f"src{src_id}", e, *v) for e, v in enumerate(values))
    return rows
