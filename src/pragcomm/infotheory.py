"""Exact information-theoretic quantities over finite joint distributions.

All operations work on small dense probability tables with named axes, so
entropies and mutual informations are exact up to float64 rounding.  This
module is the oracle layer: every other module is ultimately tested against
values computed here.

Conventions:
    * ``0 * log 0 = 0``; pmf entries below 1e-15 are treated as exact zeros.
    * Quantities carry an explicit unit tag (bits or nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

_ZERO_ATOM = 1e-15
_PMF_TOL = 1e-12


class AxisError(KeyError):
    """An operation named an axis the table does not have (or reused one)."""


@dataclass(frozen=True)
class InfoQuantity:
    """A scalar information quantity with an explicit unit tag."""

    value: float
    units: str  # "bits" or "nats"

    def __post_init__(self):
        if self.units not in ("bits", "nats"):
            raise ValueError(f"unknown units {self.units!r}")

    def in_bits(self) -> float:
        return self.value if self.units == "bits" else self.value / LN2

    def in_nats(self) -> float:
        return self.value if self.units == "nats" else self.value * LN2


@dataclass(frozen=True)
class JointTable:
    """A joint pmf over named finite alphabets.

    ``axes`` is an ordered tuple of (name, size) pairs; ``pmf`` holds the
    probabilities indexed by the axis product in that order.
    """

    axes: tuple[tuple[str, int], ...]
    pmf: np.ndarray

    def __post_init__(self):
        axes = tuple((str(n), int(s)) for n, s in self.axes)
        names = [n for n, _ in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        if any(s < 1 for _, s in axes):
            raise ValueError("every axis size must be >= 1")
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != tuple(s for _, s in axes):
            raise ValueError(f"pmf shape {pmf.shape} does not match axes {axes}")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        total = float(pmf.sum())
        if abs(total - 1.0) > _PMF_TOL:
            raise ValueError(f"pmf sums to {total!r}, expected 1 within {_PMF_TOL}")
        pmf = pmf.copy()
        pmf.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "pmf", pmf)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axes)

    def size(self, name: str) -> int:
        return dict(self.axes)[name]

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.axes):
            if n == name:
                return i
        raise AxisError(f"unknown axis {name!r}; table has {list(self.names)}")


def marginal(t: JointTable, names: list[str] | tuple[str, ...]) -> JointTable:
    """Marginalize onto ``names`` (kept in the table's own axis order)."""
    keep = set(names)
    for n in names:
        t.index(n)  # raises AxisError on unknown names
    drop = tuple(i for i, (n, _) in enumerate(t.axes) if n not in keep)
    pmf = t.pmf.sum(axis=drop) if drop else t.pmf
    axes = tuple(a for a in t.axes if a[0] in keep)
    return JointTable(axes, pmf)


def _plain_entropy(pmf: np.ndarray, base: str) -> float:
    p = np.asarray(pmf, dtype=np.float64).ravel()
    p = p[p > _ZERO_ATOM]
    h = float(-(p * np.log(p)).sum()) if p.size else 0.0
    return h / LN2 if base == "bits" else h


def _check_base(base: str) -> None:
    if base not in ("bits", "nats"):
        raise ValueError(f"base must be 'bits' or 'nats', got {base!r}")


def entropy(t: JointTable, axis: str, base: str = "bits") -> InfoQuantity:
    """Shannon entropy H(axis) of one marginal."""
    _check_base(base)
    m = marginal(t, [axis])
    return InfoQuantity(_plain_entropy(m.pmf, base), base)


def joint_entropy(t: JointTable, names: list[str], base: str = "bits") -> InfoQuantity:
    _check_base(base)
    m = marginal(t, names)
    return InfoQuantity(_plain_entropy(m.pmf, base), base)


def conditional_entropy(
    t: JointTable, target: str, given: list[str], base: str = "bits"
) -> InfoQuantity:
    """H(target | given) = H(target, given) - H(given)."""
    _check_base(base)
    given = list(given)
    if target in given:
        raise AxisError(f"target {target!r} also appears in given {given}")
    if not given:
        return entropy(t, target, base)
    h_tg = joint_entropy(t, [target] + given, base).value
    h_g = joint_entropy(t, given, base).value
    return InfoQuantity(h_tg - h_g, base)


def mutual_information(t: JointTable, a: str, b: str, base: str = "bits") -> InfoQuantity:
    """I(a; b) = H(a) + H(b) - H(a, b)."""
    _check_base(base)
    if a == b:
        raise AxisError(f"mutual information needs two distinct axes, got {a!r} twice")
    v = (
        entropy(t, a, base).value
        + entropy(t, b, base).value
        - joint_entropy(t, [a, b], base).value
    )
    return InfoQuantity(v, base)


def conditional_mi(
    t: JointTable, a: str, b: str, given: list[str], base: str = "bits"
) -> InfoQuantity:
    """I(a; b | given) = H(a | given) - H(a | b, given)."""
    _check_base(base)
    given = list(given)
    if a == b or a in given or b in given:
        raise AxisError(f"axes must be distinct: a={a!r} b={b!r} given={given}")
    h1 = conditional_entropy(t, a, given, base).value
    h2 = conditional_entropy(t, a, [b] + given, base).value
    return InfoQuantity(h1 - h2, base)


def interaction_information(
    t: JointTable, a: str, b: str, c: str, base: str = "bits"
) -> InfoQuantity:
    """Three-way shared information I(a; b; c) = I(a; b) - I(a; b | c).

    Positive values mean redundancy, negative values synergy (an XOR triple
    gives -1 bit).
    """
    _check_base(base)
    v = mutual_information(t, a, b, base).value - conditional_mi(t, a, b, [c], base).value
    return InfoQuantity(v, base)


def plugin_from_samples(
    samples: list[tuple[int, ...]], axes: list[tuple[str, int]]
) -> JointTable:
    """Empirical joint table from symbol tuples (plug-in estimate)."""
    axes = tuple((str(n), int(s)) for n, s in axes)
    if not samples:
        raise ValueError("sample list is empty")
    sizes = tuple(s for _, s in axes)
    counts = np.zeros(sizes, dtype=np.float64)
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != len(axes):
        raise ValueError(f"samples must be tuples of length {len(axes)}")
    for dim, (name, size) in enumerate(axes):
        col = arr[:, dim]
        if col.min() < 0 or col.max() >= size:
            raise ValueError(f"symbol out of alphabet on axis {name!r} (size {size})")
    np.add.at(counts, tuple(arr.T), 1.0)
    return JointTable(axes, counts / len(samples))


def extend_with_channel(
    t: JointTable, source_axis: str, new_axis: str, kernel: np.ndarray
) -> JointTable:
    """Append a new axis generated from ``source_axis`` through a channel.

    ``kernel[s, z]`` is the row-stochastic conditional pmf p(z | source=s).
    The result has p(..., z) = p(...) * kernel[s, z], i.e. the new variable
    depends on the rest only through the source axis.
    """
    if new_axis in t.names:
        raise AxisError(f"axis {new_axis!r} already present")
    idx = t.index(source_axis)
    kernel = np.asarray(kernel, dtype=np.float64)
    s_size = t.axes[idx][1]
    if kernel.ndim != 2 or kernel.shape[0] != s_size:
        raise ValueError(f"kernel must be ({s_size}, z) shaped, got {kernel.shape}")
    if np.any(kernel < 0) or np.any(np.abs(kernel.sum(axis=1) - 1.0) > _PMF_TOL):
        raise ValueError("kernel rows must be pmfs summing to 1")
    shape = [1] * t.pmf.ndim + [kernel.shape[1]]
    shape[idx] = s_size
    pmf = t.pmf[..., None] * kernel.reshape(shape)
    return JointTable(t.axes + ((new_axis, kernel.shape[1]),), pmf)


def random_joint(
    axes: list[tuple[str, int]], rng: np.random.Generator
) -> JointTable:
    """A random joint table: flat Dirichlet over the flattened product alphabet."""
    axes = tuple((str(n), int(s)) for n, s in axes)
    sizes = tuple(s for _, s in axes)
    flat = rng.dirichlet(np.ones(int(np.prod(sizes))))
    return JointTable(axes, flat.reshape(sizes))
