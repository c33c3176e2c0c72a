"""Brute-force verification of the minimal-rate bound for collaborative
messages.

On small alphabets every deterministic encoder p(Z | X_s) can be enumerated,
which traces the full achievable rate-distortion set and lets the lower bound

    rate >= I(Y; X_s | X_r) - delta

be checked point by point, together with the two optimality conditions
H(Z | Y) = 0 (the message determines nothing beyond the task target) and
I(Z; X_r) = 0 (the message repeats nothing the receiver already has).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .infotheory import (
    LN2,
    JointTable,
    _entropies_nats,
    _marginal_pmf,
    conditional_entropy,
    conditional_mi,
    entropy,
    extend_with_channel,
    mutual_information,
)
from .bayes_risk import pragmatic_distortion

MAX_SOURCE_ALPHABET = 6
_BLOCK_CELLS = 1 << 20


def deterministic_kernel(mapping, n_z: int | None = None) -> np.ndarray:
    """One-hot channel p(Z | X_s) of the encoder sending X_s symbol ``s`` to
    Z symbol ``mapping[..., s]``; leading axes of ``mapping`` stack encoders.

    ``n_z`` defaults to the largest symbol plus one.  Raises ValueError unless
    every entry is a finite, nonnegative whole number below ``n_z``.
    """
    m = np.asarray(mapping)
    if m.dtype.kind not in "biu":
        m = m.astype(np.float64)
        # NaN and infinities fail the range test, fractions the rounding
        if not np.all((np.abs(m) < 2.0**63) & (m == np.round(m))):
            raise ValueError("deterministic map entries must be finite whole numbers")
    m = m.astype(np.int64, copy=False)
    n_z = int(m.max(initial=-1)) + 1 if n_z is None else n_z
    if m.ndim < 1 or np.any(m < 0) or np.any(m >= n_z):
        raise ValueError(f"deterministic map entries must be symbols in [0, {n_z})")
    return (m[..., None] == np.arange(n_z)).astype(np.float64)


@dataclass(frozen=True)
class RDPoint:
    """One achievable (rate, distortion) sample plus its condition diagnostics."""

    encoder_id: int
    rate_bits: float
    distortion_nats: float
    cond_h_z_given_y: float  # H(Z | Y), bits
    mi_z_xr: float  # I(Z; X_r), bits
    pareto: bool = False


def theoretical_bound(source: JointTable, delta_nats: float | np.ndarray) -> float | np.ndarray:
    """Lower bound on the rate in bits: max(0, I(Y; X_s | X_r) - delta).

    ``delta_nats`` may be an array; the result is then the array of bounds,
    with I(Y; X_s | X_r) computed once.  A stacked source takes deltas whose
    leading axis has one row per table and gives one row of bounds per table.
    Raises ValueError on a negative or NaN delta.
    """
    delta = np.asarray(delta_nats, dtype=np.float64)
    if not np.all(delta >= 0):  # NaN fails too
        raise ValueError("delta must be >= 0")
    i_bits = conditional_mi(source, "Y", "X_s", ["X_r"], "bits")
    if source.stacked:
        if delta.ndim == 0 or len(delta) != len(i_bits):
            raise ValueError(
                f"{len(i_bits)} stacked tables need one row of deltas each, got {delta.shape}"
            )
        i_bits = i_bits.reshape(-1, *(1,) * (delta.ndim - 1))
    bound = np.maximum(0.0, i_bits - delta / LN2)
    return float(bound) if bound.ndim == 0 else bound


def _encoder_joints(p: np.ndarray, n_z: int):
    """Yields the joints p(table, e, y, z, x_r) of the deterministic encoders
    e: X_s -> Z of the stacked p(table, y, x_s, x_r), in consecutive blocks
    of encoders numbered as ``itertools.product(range(n_z), repeat=|X_s|)``.

    Each cell sums p(y, x_s, x_r) over the x_s the encoder sends to z in
    increasing x_s, whatever the stack or block, so every table's values are
    its own.  Encoders that agree on their first k symbols share that partial
    sum, so the joints grow one symbol at a time.  A block fixes as few
    leading symbols as keep it within _BLOCK_CELLS floats, or all of them.
    """
    n, n_y, n_source, n_r = p.shape
    # term[x][:, v]: p(y, x_s = x, x_r) placed at z = v
    eye = np.eye(n_z)
    terms = [p[:, None, :, x, None, :] * eye[:, None, :, None] for x in range(n_source)]
    fixed = 0  # leading symbols each block fixes
    while fixed < n_source and n * n_y * n_z * n_r * n_z ** (n_source - fixed) > _BLOCK_CELLS:
        fixed += 1
    for prefix in itertools.product(range(n_z), repeat=fixed):
        joint = np.zeros((n, 1, n_y, n_z, n_r))
        for x, v in enumerate(prefix):
            joint = joint + terms[x][:, v:v + 1]
        for x in range(fixed, n_source):
            joint = (joint[:, :, None] + terms[x][:, None]).reshape(n, -1, n_y, n_z, n_r)
        yield joint


def frontier_columns(
    source: JointTable, z_alphabet_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per deterministic encoder X_s -> Z: the arrays (rate in bits,
    distortion in nats, H(Z | Y) in bits, I(Z; X_r) in bits).

    Entry ``e`` belongs to the ``e``-th mapping of
    ``itertools.product(range(|Z|), repeat=|X_s|)``.  All encoders are
    evaluated at once through the joint p(e, y, z, x_r).  A stacked source
    gives arrays with one row per table, each equal bit for bit to that
    table's own arrays.  Guarded to stay within z_alphabet_size ** |X_s| <=
    46656 enumerations (|X_s| <= 6 and z alphabet no larger than |X_s|).
    """
    n_source = source.size("X_s")
    if n_source > MAX_SOURCE_ALPHABET:
        raise ValueError(
            f"alphabet too large: |X_s|={n_source} exceeds {MAX_SOURCE_ALPHABET}"
        )
    if not 1 <= z_alphabet_size <= n_source:
        raise ValueError(
            f"alphabet too large: need 1 <= |Z|={z_alphabet_size} <= |X_s|={n_source}"
        )
    names = ("Y", "X_s", "X_r")
    kept = [n for n in source.names if n in names]
    p = _marginal_pmf(source, names)
    p = (p if source.stacked else p[None]).transpose(0, *(1 + kept.index(n) for n in names))
    parts = []
    for joint in _encoder_joints(p, z_alphabet_size):
        joint = joint.reshape(-1, *joint.shape[2:])
        p_zr = joint.sum(axis=1)
        parts.append([
            _entropies_nats(q).reshape(len(p), -1)
            for q in (p_zr.sum(axis=2), p_zr, joint, joint.sum(axis=3))
        ])
    h_z, h_zr, h_yzr, h_yz = (np.concatenate(h, axis=1) for h in zip(*parts))

    def column(q):  # one value per table, against that table's encoders
        return np.reshape(q, (-1, 1))

    rate = h_z / LN2  # I(X_s; Z) = H(Z) for a deterministic encoder
    h_xs = column(entropy(source, "X_s", "bits"))
    over = rate > h_xs + 1e-9
    if over.any():
        k = int(over.any(axis=1).argmax())
        h_xs_k = float(h_xs[k, 0])
        raise RuntimeError(f"encoder rate {float(rate[k].max())!r} exceeds H(X_s)={h_xs_k!r}")
    dist = h_yzr - h_zr - column(conditional_entropy(source, "Y", ["X_s", "X_r"], "nats"))
    h_zy = (h_yz - column(entropy(source, "Y", "nats"))) / LN2
    i_zxr = (h_z + column(entropy(source, "X_r", "nats")) - h_zr) / LN2
    columns = (rate, dist, h_zy, i_zxr)
    return columns if source.stacked else tuple(c[0] for c in columns)


def enumerate_frontier(source: JointTable, z_alphabet_size: int) -> list[RDPoint]:
    """One RDPoint per deterministic encoder X_s -> Z (numbered as in
    ``frontier_columns``), Pareto subset flagged."""
    columns = frontier_columns(source, z_alphabet_size)
    flags = pareto_flags(np.column_stack(columns[:2]))
    rows = zip(*(c.tolist() for c in columns), flags)
    return [RDPoint(e, *fields) for e, fields in enumerate(rows)]


def pareto_flags(
    points: list[tuple[float, float]] | np.ndarray, eps: float = 1e-12
) -> list[bool]:
    """Flag the points minimal in both coordinates (smaller is better).

    A point is dominated when another is within ``eps`` of it or better in
    both coordinates and better by more than ``eps`` in one.  One sort by the
    first coordinate and prefix minima of the second decide that for every
    point in O(n log n) (Kung, Luccio & Preparata 1975).  Raises ValueError on
    a non-finite coordinate or a negative or NaN ``eps``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
    if not eps >= 0 or not np.isfinite(pts).all():  # NaN fails too
        raise ValueError("pareto points must be finite and eps >= 0")
    a1, a2 = pts[:, 0], pts[:, 1]
    order = np.argsort(a1)
    b1 = a1[order]
    # prefix_min[k]: least second coordinate among the k least first ones
    prefix_min = np.concatenate([[np.inf], np.minimum.accumulate(a2[order])])
    # dominated: some point is better by more than eps in the first coordinate
    # and within eps in the second, or within eps in the first and better by
    # more than eps in the second
    by_first = prefix_min[np.searchsorted(b1, a1 - eps, side="left")] <= a2 + eps
    by_second = prefix_min[np.searchsorted(b1, a1 + eps, side="right")] < a2 - eps
    return (~(by_first | by_second)).tolist()


def check_conditions(
    source: JointTable, kernel: np.ndarray
) -> tuple[float, float, float]:
    """(H(Z|Y), I(Z;X_r), rate - bound at the achieved distortion), all bits,
    of the encoder with channel ``kernel[s, z]`` = p(Z = z | X_s = s)."""
    ext = extend_with_channel(source, "X_s", "Z", kernel)
    rate = mutual_information(ext, "X_s", "Z", "bits")
    dist = pragmatic_distortion(ext, "segmentation")
    h_zy = conditional_entropy(ext, "Z", ["Y"], "bits")
    i_zxr = mutual_information(ext, "Z", "X_r", "bits")
    gap = rate - theoretical_bound(source, max(dist, 0.0))
    return h_zy, i_zxr, gap


def make_separable_source(
    p_y: np.ndarray, p_n: np.ndarray, p_xr: np.ndarray
) -> tuple[JointTable, np.ndarray]:
    """Construct the bound-touching source X_s = (Y, N) with X_r independent.

    X_s enumerates (y, n) pairs as y * |N| + n.  Returns the source table and
    the kernel of the encoder that extracts the Y component, which attains
    the bound at zero distortion with H(Z|Y) = 0 and I(Z;X_r) = 0.
    """
    p_y = np.asarray(p_y, dtype=np.float64)
    p_n = np.asarray(p_n, dtype=np.float64)
    p_xr = np.asarray(p_xr, dtype=np.float64)
    ny, nn, nr = len(p_y), len(p_n), len(p_xr)
    pmf = np.zeros((ny, ny * nn, nr))
    for y in range(ny):
        for n in range(nn):
            for r in range(nr):
                pmf[y, y * nn + n, r] = p_y[y] * p_n[n] * p_xr[r]
    source = JointTable((("Y", ny), ("X_s", ny * nn), ("X_r", nr)), pmf)
    return source, deterministic_kernel(np.repeat(np.arange(ny), nn))
