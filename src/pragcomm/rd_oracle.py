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

from dataclasses import dataclass

import numpy as np

from .infotheory import (
    LN2,
    JointTable,
    _entropies_nats,
    conditional_entropy,
    conditional_mi,
    entropy,
    extend_with_channel,
    marginal,
    mutual_information,
)
from .bayes_risk import pragmatic_distortion

MAX_SOURCE_ALPHABET = 6
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class EncoderSpec:
    """A message encoder reading only the sender's symbol.

    ``kind="deterministic"``: ``table`` maps each X_s symbol to a Z symbol.
    ``kind="stochastic"``: ``table`` is a row-stochastic matrix p(Z | X_s).
    """

    kind: str
    table: np.ndarray

    def __post_init__(self):
        tbl = np.asarray(self.table)
        if self.kind == "deterministic":
            tbl = tbl.astype(np.int64)
            if tbl.ndim != 1 or np.any(tbl < 0):
                raise ValueError("deterministic map must be a 1-D symbol table")
        elif self.kind == "stochastic":
            tbl = tbl.astype(np.float64)
            if tbl.ndim != 2 or not np.all(tbl >= 0):  # NaN fails too
                raise ValueError("stochastic encoder must be a 2-D matrix")
            if not np.all(np.abs(tbl.sum(axis=1) - 1.0) <= 1e-12):
                raise ValueError("stochastic encoder rows must sum to 1 within 1e-12")
        else:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        tbl.setflags(write=False)
        object.__setattr__(self, "table", tbl)

    def kernel(self, n_source: int, n_z: int) -> np.ndarray:
        """Row-stochastic p(Z | X_s) regardless of kind."""
        if self.kind == "stochastic":
            if self.table.shape != (n_source, n_z):
                raise ValueError(
                    f"encoder shape {self.table.shape} != ({n_source}, {n_z})"
                )
            return np.asarray(self.table)
        if len(self.table) != n_source or np.any(self.table >= n_z):
            raise ValueError("deterministic map does not fit the alphabets")
        k = np.zeros((n_source, n_z))
        k[np.arange(n_source), self.table] = 1.0
        return k


@dataclass(frozen=True)
class RDPoint:
    """One achievable (rate, distortion) sample plus its condition diagnostics."""

    encoder_id: int
    rate_bits: float
    distortion_nats: float
    cond_h_z_given_y: float  # H(Z | Y), bits
    mi_z_xr: float  # I(Z; X_r), bits
    pareto: bool = False


def attach_encoder(source: JointTable, enc: EncoderSpec) -> JointTable:
    """Composite table p(..., Z) with Z generated from X_s by the encoder."""
    if enc.kind == "stochastic":
        n_z = enc.table.shape[1]
    else:
        n_z = int(enc.table.max()) + 1
    return extend_with_channel(source, "X_s", "Z", enc.kernel(source.size("X_s"), n_z))


def theoretical_bound(source: JointTable, delta_nats: float | np.ndarray) -> float | np.ndarray:
    """Lower bound on the rate in bits: max(0, I(Y; X_s | X_r) - delta).

    ``delta_nats`` may be an array; the result is then the array of bounds,
    with I(Y; X_s | X_r) computed once.
    """
    delta = np.asarray(delta_nats, dtype=np.float64)
    if np.any(delta < 0):
        raise ValueError("delta must be >= 0")
    i_bits = conditional_mi(source, "Y", "X_s", ["X_r"], "bits").value
    bound = np.maximum(0.0, i_bits - delta / LN2)
    return float(bound) if bound.ndim == 0 else bound


def enumerate_frontier(source: JointTable, z_alphabet_size: int) -> list[RDPoint]:
    """One RDPoint per deterministic encoder X_s -> Z, Pareto subset flagged.

    Encoder ``e`` is the ``e``-th mapping of ``itertools.product(range(|Z|),
    repeat=|X_s|)``.  All encoders are evaluated at once through the joint
    p(e, y, z, x_r).  Guarded to stay within z_alphabet_size ** |X_s| <= 46656
    enumerations (|X_s| <= 6 and z alphabet no larger than |X_s|).
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
    m = marginal(source, names)
    p = m.pmf.transpose([m.index(n) for n in names])
    # row e of ``mappings`` is the e-th tuple of itertools.product, in its order
    mappings = np.indices((z_alphabet_size,) * n_source).reshape(n_source, -1).T
    # blocks of encoders bound the joint p(e, y, z, x_r) to _BLOCK_CELLS floats
    cells = len(mappings) * z_alphabet_size * (p.size // n_source)
    parts = []
    for block in np.array_split(mappings, -(-cells // _BLOCK_CELLS)):
        kernels = (block[:, :, None] == np.arange(z_alphabet_size)).astype(np.float64)
        joint = np.einsum("yxr,exz->eyzr", p, kernels, optimize=True)
        p_zr = joint.sum(axis=1)
        parts.append([
            _entropies_nats(q) for q in (p_zr.sum(axis=2), p_zr, joint, joint.sum(axis=3))
        ])
    h_z, h_zr, h_yzr, h_yz = (np.concatenate(h) for h in zip(*parts))
    rate = h_z / LN2  # I(X_s; Z) = H(Z) for a deterministic encoder
    h_xs = entropy(source, "X_s", "bits").value
    if np.any(rate > h_xs + 1e-9):
        raise RuntimeError(f"encoder rate {rate.max()!r} exceeds H(X_s)={h_xs!r}")
    dist = h_yzr - h_zr - conditional_entropy(source, "Y", ["X_s", "X_r"], "nats").value
    h_zy = (h_yz - entropy(source, "Y", "nats").value) / LN2
    i_zxr = (h_z + entropy(source, "X_r", "nats").value - h_zr) / LN2
    flags = pareto_flags(np.column_stack([rate, dist]))
    columns = zip(rate.tolist(), dist.tolist(), h_zy.tolist(), i_zxr.tolist(), flags)
    return [RDPoint(e, *fields) for e, fields in enumerate(columns)]


def pareto_flags(
    points: list[tuple[float, float]] | np.ndarray, eps: float = 1e-12
) -> list[bool]:
    """Flag the points minimal in both coordinates (smaller is better).

    A point is dominated when another is within ``eps`` of it or better in
    both coordinates and better by more than ``eps`` in one.  One sort by the
    first coordinate and prefix minima of the second decide that for every
    point in O(n log n) (Kung, Luccio & Preparata 1975).  Raises ValueError on
    a non-finite coordinate or a negative ``eps``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
    if eps < 0 or not np.isfinite(pts).all():
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
    source: JointTable, enc: EncoderSpec
) -> tuple[float, float, float]:
    """(H(Z|Y), I(Z;X_r), rate - bound at the achieved distortion), all bits."""
    ext = attach_encoder(source, enc)
    rate = mutual_information(ext, "X_s", "Z", "bits").value
    dist = pragmatic_distortion(ext, "segmentation")
    h_zy = conditional_entropy(ext, "Z", ["Y"], "bits").value
    i_zxr = mutual_information(ext, "Z", "X_r", "bits").value
    gap = rate - theoretical_bound(source, max(dist, 0.0))
    return h_zy, i_zxr, gap


def make_separable_source(
    p_y: np.ndarray, p_n: np.ndarray, p_xr: np.ndarray
) -> tuple[JointTable, EncoderSpec]:
    """Construct the bound-touching source X_s = (Y, N) with X_r independent.

    X_s enumerates (y, n) pairs as y * |N| + n.  Returns the source table and
    the encoder that extracts the Y component, which attains the bound at
    zero distortion with H(Z|Y) = 0 and I(Z;X_r) = 0.
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
    mapping = np.repeat(np.arange(ny), nn)
    return source, EncoderSpec("deterministic", mapping)
