import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pragcomm.planes import any_last, sum_planes

PLANE_SHAPES = st.sampled_from([(), (1,), (3,), (2, 5), (4, 1, 3)])
ODD = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]


class TestSumPlanes:
    """``sum_planes`` against the index-order reduce over the same planes."""

    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(1, 300), shape=PLANE_SHAPES, seed=st.integers(0, 2**32 - 1),
           p_odd=st.floats(0.0, 1.0))
    def test_matches_sum_over_the_last_axis(self, n, shape, seed, p_odd):
        # magnitudes far apart, so any other order rounds differently
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, *shape)) * 10.0 ** rng.integers(-12, 12, (n, *shape))
        x = np.where(rng.uniform(size=x.shape) < p_odd, rng.choice(ODD, size=x.shape), x)
        before = x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            got = np.asarray(sum_planes(x))
            want = np.asarray(functools.reduce(np.add, x))
        assert got.shape == want.shape and got.dtype == want.dtype
        # a NaN's sign and payload follow the compiled loop numpy picks
        # (scalar or array), so only where the NaNs are is compared
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert x.tobytes() == before


class TestAnyLast:
    @settings(max_examples=300, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (4,), (3, 5)]), n=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0), strided=st.booleans())
    def test_matches_any_over_the_last_axis(self, lead, n, seed, p, strided):
        # all-False and sparse rows, lengths off and on the 8-flag words,
        # and views that are not contiguous
        rng = np.random.default_rng(seed)
        flags = rng.uniform(size=(*lead, 2 * n if strided else n)) < p
        if strided:
            flags = flags[..., ::2]
        got, want = any_last(flags), flags.any(axis=-1)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
