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
        if not np.all(pmf >= 0):  # NaN fails too
            raise ValueError("pmf entries must be nonnegative")
        total = float(pmf.sum())
        if not abs(total - 1.0) <= _PMF_TOL:
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


def _marginal_pmf(t: JointTable, names: list[str] | tuple[str, ...]) -> np.ndarray:
    """The pmf of the ``names`` marginal, axes in the table's own order."""
    for n in names:
        t.index(n)  # raises AxisError on unknown names
    drop = tuple(i for i, (n, _) in enumerate(t.axes) if n not in names)
    return t.pmf.sum(axis=drop) if drop else t.pmf


def marginal(t: JointTable, names: list[str] | tuple[str, ...]) -> JointTable:
    """Marginalize onto ``names`` (kept in the table's own axis order)."""
    return JointTable(tuple(a for a in t.axes if a[0] in names), _marginal_pmf(t, names))


def _entropies_nats(p: np.ndarray) -> np.ndarray:
    """H(p[e]) in nats for each leading index e; atoms <= 1e-15 count as zero.

    The package's one entropy kernel: every entropy is computed here.  The
    result is never -0.0.
    """
    log_p = np.zeros_like(p)
    np.log(p, out=log_p, where=p > _ZERO_ATOM)
    return 0.0 - (p * log_p).reshape(len(p), -1).sum(axis=1)


def _entropy_in(t: JointTable, base: str):
    """h(*names): entropy of the names' joint marginal in ``base``, 0.0 for no names.

    The scalar quantities below are plain-float compositions of h.
    """
    if base not in ("bits", "nats"):
        raise ValueError(f"base must be 'bits' or 'nats', got {base!r}")
    unit = LN2 if base == "bits" else 1.0

    def h(*names: str) -> float:
        if not names:
            return 0.0
        return float(_entropies_nats(_marginal_pmf(t, names)[None])[0]) / unit

    return h


def entropy(t: JointTable, axis: str, base: str = "bits") -> InfoQuantity:
    """Shannon entropy H(axis) of one marginal."""
    return InfoQuantity(_entropy_in(t, base)(axis), base)


def joint_entropy(t: JointTable, names: list[str], base: str = "bits") -> InfoQuantity:
    return InfoQuantity(_entropy_in(t, base)(*names), base)


def conditional_entropy(
    t: JointTable, target: str, given: list[str], base: str = "bits"
) -> InfoQuantity:
    """H(target | given) = H(target, given) - H(given)."""
    h = _entropy_in(t, base)
    if target in given:
        raise AxisError(f"target {target!r} also appears in given {given}")
    return InfoQuantity(h(target, *given) - h(*given), base)


def mutual_information(t: JointTable, a: str, b: str, base: str = "bits") -> InfoQuantity:
    """I(a; b) = H(a) + H(b) - H(a, b)."""
    h = _entropy_in(t, base)
    if a == b:
        raise AxisError(f"mutual information needs two distinct axes, got {a!r} twice")
    return InfoQuantity(h(a) + h(b) - h(a, b), base)


def conditional_mi(
    t: JointTable, a: str, b: str, given: list[str], base: str = "bits"
) -> InfoQuantity:
    """I(a; b | given) = H(a | given) - H(a | b, given)."""
    h = _entropy_in(t, base)
    if a == b or a in given or b in given:
        raise AxisError(f"axes must be distinct: a={a!r} b={b!r} given={given}")
    return InfoQuantity((h(a, *given) - h(*given)) - (h(a, b, *given) - h(b, *given)), base)


def interaction_information(
    t: JointTable, a: str, b: str, c: str, base: str = "bits"
) -> InfoQuantity:
    """Three-way shared information I(a; b; c) = I(a; b) - I(a; b | c).

    Positive values mean redundancy, negative values synergy (an XOR triple
    gives -1 bit).
    """
    h = _entropy_in(t, base)
    if len({a, b, c}) < 3:
        raise AxisError(f"axes must be distinct: a={a!r} b={b!r} c={c!r}")
    i_ab = h(a) + h(b) - h(a, b)
    return InfoQuantity(i_ab - ((h(a, c) - h(c)) - (h(a, b, c) - h(b, c))), base)


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
    if not (np.all(kernel >= 0) and np.all(np.abs(kernel.sum(axis=1) - 1.0) <= _PMF_TOL)):
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
