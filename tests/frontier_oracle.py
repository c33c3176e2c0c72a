"""The per-encoder frontier enumeration, the quadratic Pareto loop and the
per-source random draws of ``verify-theory`` as they were before batching.

Kept as a test oracle: ``pragcomm.rd_oracle.enumerate_frontier`` must give
the same points, and ``pragcomm.rd_oracle.pareto_flags`` the same flags, as
these functions.  Each encoder is evaluated through the validated
``JointTable`` path of ``pragcomm.infotheory`` one at a time.  Likewise
``pragcomm.verify.random_frontiers`` and ``pragcomm.verify.channel_stack``
must draw and return what ``random_frontiers`` and ``channel_stack`` do,
one validated table at a time.
"""

from __future__ import annotations

import itertools

import numpy as np

from pragcomm.bayes_risk import pragmatic_distortion
from pragcomm.infotheory import (
    JointTable,
    conditional_entropy,
    extend_with_channel,
    mutual_information,
    random_joint,
)
from pragcomm.rd_oracle import (
    MAX_SOURCE_ALPHABET,
    RDPoint,
    frontier_columns,
    theoretical_bound,
)


def _point_for_kernel(
    source: JointTable, kernel: np.ndarray, encoder_id: int
) -> RDPoint:
    ext = extend_with_channel(source, "X_s", "Z", kernel)
    rate = mutual_information(ext, "X_s", "Z", "bits")
    dist = pragmatic_distortion(ext, "segmentation")
    h_zy = conditional_entropy(ext, "Z", ["Y"], "bits")
    i_zxr = mutual_information(ext, "Z", "X_r", "bits")
    return RDPoint(encoder_id, rate, dist, h_zy, i_zxr)


def enumerate_frontier(
    source: JointTable, z_alphabet_size: int, task: str = "segmentation"
) -> list[RDPoint]:
    """One RDPoint per deterministic encoder X_s -> Z, Pareto subset flagged.

    Guarded to stay within z_alphabet_size ** |X_s| <= 46656 enumerations
    (|X_s| <= 6 and z alphabet no larger than |X_s|).
    """
    if task != "segmentation":
        raise ValueError("the frontier is enumerated for the segmentation distortion")
    n_source = source.size("X_s")
    if n_source > MAX_SOURCE_ALPHABET:
        raise ValueError(
            f"alphabet too large: |X_s|={n_source} exceeds {MAX_SOURCE_ALPHABET}"
        )
    if not 1 <= z_alphabet_size <= n_source:
        raise ValueError(
            f"alphabet too large: need 1 <= |Z|={z_alphabet_size} <= |X_s|={n_source}"
        )
    points = []
    h_xs = conditional_entropy(source, "X_s", [], "bits")
    for encoder_id, mapping in enumerate(
        itertools.product(range(z_alphabet_size), repeat=n_source)
    ):
        kernel = np.zeros((n_source, z_alphabet_size))
        kernel[np.arange(n_source), mapping] = 1.0
        pt = _point_for_kernel(source, kernel, encoder_id)
        assert pt.rate_bits <= h_xs + 1e-9
        points.append(pt)
    flags = pareto_flags(
        [(p.rate_bits, p.distortion_nats) for p in points]
    )
    return [
        RDPoint(p.encoder_id, p.rate_bits, p.distortion_nats, p.cond_h_z_given_y,
                p.mi_z_xr, pareto=f)
        for p, f in zip(points, flags)
    ]


def pareto_flags(points: list[tuple[float, float]], eps: float = 1e-12) -> list[bool]:
    """Flag the points minimal in both coordinates (smaller is better)."""
    flags = []
    for i, (a1, a2) in enumerate(points):
        dominated = any(
            (b1 <= a1 + eps and b2 <= a2 + eps)
            and (b1 < a1 - eps or b2 < a2 - eps)
            for j, (b1, b2) in enumerate(points)
            if j != i
        )
        flags.append(not dominated)
    return flags


def random_frontiers(rng: np.random.Generator, n: int, z_max: int):
    """Yields (``rd.frontier_columns``, their bounds) for n random sources
    drawn from rng, each with output alphabets up to z_max."""
    for _ in range(n):
        sizes = [int(s) for s in rng.integers(2, 5, size=3)]
        t = random_joint(list(zip(("Y", "X_s", "X_r"), sizes)), rng)
        columns = frontier_columns(t, min(sizes[1], z_max))
        yield columns, theoretical_bound(t, np.maximum(columns[1], 0.0))


def channel_stack(rng: np.random.Generator, axes: list, n_z: int, n: int) -> JointTable:
    """n random tables over axes, each extended to a "Z" axis through its own
    random channel from "X_s"; every table is drawn before its kernel."""
    pmfs, kernels = [], []
    for _ in range(n):
        t = random_joint(axes, rng)
        pmfs.append(t.pmf)
        kernels.append(rng.dirichlet(np.ones(n_z), size=t.size("X_s")))
    t = JointTable(t.axes, np.stack(pmfs))
    return extend_with_channel(t, "X_s", "Z", np.stack(kernels))
