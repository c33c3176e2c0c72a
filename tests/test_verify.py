"""``pragcomm.verify``'s stages, called directly (``tests/test_cli.py``
runs the ``verify-theory`` command).  It is the one home of the theory
checks: the other trees call its public stages, and importing the CLI
starts no thread pool."""

import copy
import inspect
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pragcomm import bayes_risk as br
from pragcomm import cli, verify
from pragcomm import infotheory as it
from pragcomm import rd_oracle as rd

import frontier_oracle as oracle
from test_bayes_risk import traced_peak

ROOT = Path(__file__).resolve().parents[1]
SMALL = cli.parse_config(str(ROOT / "configs" / "small.cfg")).verify
# the [verify] section of test_cli.FAST_CFG
FAST = verify.VerifyConfig(sources=6, tables=40, mc_draws=200_000, z_max=3, seed=7)


def test_no_file_names_a_private_function_of_cli_or_verify():
    # the data table cli._TABLE is no function, so tests may read it
    private = sorted(
        name
        for module in (cli, verify)
        for name, value in vars(module).items()
        if name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )
    named = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, private)))
    found = [
        f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
        for tree in ("tests", "demos", "perfbench")
        for path in sorted((ROOT / tree).rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if named.search(line)
    ]
    assert private and found == []


def test_importing_the_cli_loads_no_thread_pool():
    # verify.checks imports concurrent.futures itself, so that the other
    # commands, which start no thread, do not pay for the import
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, pragcomm.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"


class TestChecks:
    def test_nan_rate_fails_bound_soundness(self, monkeypatch):
        real = rd.frontier_columns
        stacks = []

        def nan_rates_after_the_first_stack(source, z):
            # source 0's stack stays finite, so a min() that skips NaN would pass
            columns = real(source, z)
            stacks.append(source)
            if len(stacks) > 1:
                columns[0][:] = np.nan
            return columns

        monkeypatch.setattr(rd, "frontier_columns", nan_rates_after_the_first_stack)
        checks = {name: (margin, ok) for name, margin, _, ok in verify.checks(FAST)}
        margin, ok = checks["bound_soundness"]
        assert len(stacks) > 1
        assert math.isnan(margin) and not ok
        assert checks["bound_tightness_conditions"][1]

    def test_one_worker_runs_the_laplace_and_cross_entropy_checks(self, monkeypatch):
        threads = {}

        def spy(name):
            real = getattr(br, name)

            def recorded(*args):
                threads[name] = threading.current_thread(), threading.active_count()
                return real(*args)

            monkeypatch.setattr(br, name, recorded)

        for name in ("mc_l1_gaussian", "mc_l1_laplace", "mc_ce"):
            spy(name)
        before = threading.active_count()
        list(verify.checks(FAST))
        assert threading.active_count() == before
        assert threads["mc_l1_gaussian"] == (threading.main_thread(), before + 1)
        assert threads["mc_l1_laplace"][0] is threads["mc_ce"][0] is not threading.main_thread()
        assert threads["mc_ce"][1] == before + 1

    def test_cross_entropy_table_follows_the_distortion_channels(self, monkeypatch):
        # the main generator draws in the same order as when every check ran on it
        real_stack, real_ce = verify.channel_stack, br.mc_ce
        after_stack, scored = [], []

        def stack(rng, *args):
            ext = real_stack(rng, *args)
            after_stack.append(copy.deepcopy(rng))
            return ext

        def ce(t, *args):
            scored.append(t)
            return real_ce(t, *args)

        monkeypatch.setattr(verify, "channel_stack", stack)
        monkeypatch.setattr(br, "mc_ce", ce)
        list(verify.checks(FAST))
        want = it.random_joint([("Y", 3), ("X", 3)], after_stack[-1])
        assert len(after_stack) == 2 and len(scored) == 1
        assert scored[0].pmf.tobytes() == want.pmf.tobytes()

    def test_closing_after_the_first_check_joins_the_worker(self):
        before = threading.active_count()
        checks = verify.checks(FAST)
        assert next(checks)[0] == "identity_rate_decomposition"
        assert threading.active_count() == before + 1
        checks.close()
        assert threading.active_count() == before

    def test_traced_peak_on_small_config(self):
        # measured 1.25 MB, so 1.6x headroom; a buffer of one check's 10^6
        # draws alone is 8 MB
        assert SMALL.mc_draws == 1_000_000
        assert traced_peak(lambda: list(verify.checks(SMALL))) < 2_000_000


class _OneShape:
    """Draws as a Generator does, except that every source gets ``sizes``."""

    def __init__(self, seed, sizes):
        self.rng, self.sizes = np.random.default_rng(seed), sizes

    def integers(self, low, high, size):
        return np.array(self.sizes)

    def dirichlet(self, alpha, size=None):
        return self.rng.dirichlet(alpha, size)


class TestRandomDrawsMatchOracle:
    """The sources and channels verify-theory draws, grouped and stacked,
    against the per-table loops kept in ``tests/frontier_oracle.py``."""

    @staticmethod
    def assert_same_frontiers(got, want):
        assert len(got) == len(want)
        for (columns, bounds), (want_columns, want_bounds) in zip(got, want):
            for a, b in zip((*columns, bounds), (*want_columns, want_bounds), strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert (a == b).all()

    def check_frontiers(self, seed, n, z_max=SMALL.z_max):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = list(verify.random_frontiers(rng, n, z_max))
        self.assert_same_frontiers(got, list(oracle.random_frontiers(want_rng, n, z_max)))
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 10, 50])
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    def test_sources_in_draw_order(self, seed, n):
        self.check_frontiers(seed, n)

    @pytest.mark.parametrize("z_max", [1, 2, 3])
    def test_every_z_cap(self, z_max):
        self.check_frontiers(5, 30, z_max)

    def test_sources_in_several_chunks(self, monkeypatch):
        monkeypatch.setattr(verify, "SOURCE_CHUNK", 7)
        self.check_frontiers(11, 50)

    @pytest.mark.parametrize("sizes", [(3, 4, 2), (2, 2, 2)])
    def test_every_source_of_one_shape(self, sizes):
        got = list(verify.random_frontiers(_OneShape(3, sizes), 20, SMALL.z_max))
        want = list(oracle.random_frontiers(_OneShape(3, sizes), 20, SMALL.z_max))
        self.assert_same_frontiers(got, want)

    @pytest.mark.parametrize(
        "axes, n_z", [([("Y", 3), ("X_s", 4)], 3), ([("Y", 2), ("X_s", 3), ("X_r", 2)], 2)]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_channel_stack_matches_per_table_draws(self, axes, n_z, seed):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify.channel_stack(rng, axes, n_z, 50)
        want = oracle.channel_stack(want_rng, axes, n_z, 50)
        assert got.axes == want.axes and got.pmf.shape == want.pmf.shape
        assert got.pmf.tobytes() == want.pmf.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state
