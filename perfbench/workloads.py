"""The four benchmark workloads and their output checks.

Every workload is a closed loop with one caller: ``prepare`` builds the
next operation's input (untimed), ``call`` runs the program on it (timed),
``check`` verifies the output (untimed) and returns the names of the
checks that failed.  ``setup`` runs before the loop and is timed as set-up.

Inputs come from the workload seed.  The program receives only the config
text generated here (the ``configs/small.cfg`` settings with the seeds
and the discriminator step count replaced) and the worlds it generates
from that config.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pragcomm import cli
from pragcomm import entropy_coder as ec
from pragcomm import mi_estimator as mie
from pragcomm import pipeline as pl
from pragcomm import vq

# The configs/small.cfg settings.  Training is cut from 2000 discriminator
# steps (about 78 s on 2 cores) to TRAIN_STEPS so one training run lasts
# about 2 s and a measured run holds several of them.
SMALL_CFG = """\
[world]
h = 32
w = 32
classes = 4
agents = 2
noise = 0.05,0.25
density = 0.6
rect_min = 3
rect_max = 7
seed = {world_seed}
fov_0 = rect 0 0 32 28
fov_1 = rect 0 4 32 32

[codebook]
n_base = 6
n_res = 64
iters = 25
seed = 101

[discriminator]
steps = {disc_steps}
lr = 0.5
hidden = 64
seed = 202

[train]
worlds = 4
seed = {train_seed}
tau_c_choices = 0.2,0.5,0.8

[sweep]
tau_c = 0.3,0.9
tau_mi = -1.0,0.0,0.6,inf
seeds = {sweep_seeds}
coder = task_entropy
selector = mi

[verify]
sources = 50
tables = 200
mc_draws = 1000000
z_max = 4
seed = 7
"""

TRAIN_STEPS = 40
TRAIN_SEED = 9000  # small.cfg's; sweep and wire train the stack `pragcomm sweep` trains
WORLDS_PER_PASS = 2
INF = math.inf

# The three criterion-8 grids: (selector, coder, tau_mi grid), each run at
# tau_c {0.3, 0.9}.
SWEEP_GRIDS = (
    ("mi", "task_entropy", (-1.0, 0.0, 0.3, 0.6, 1.0, INF)),
    ("none", "fixed", (INF,)),
    ("confidence_only", "task_entropy", (0.3, 0.7, 0.9, INF)),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_config(tmp: Path, name: str, seed: int, train_seed: int) -> Path:
    """Generated config for one workload seed; returns its path."""
    world_seeds = [1000 * seed + k for k in range(1, WORLDS_PER_PASS + 1)]
    text = SMALL_CFG.format(
        world_seed=world_seeds[0],
        disc_steps=TRAIN_STEPS,
        train_seed=train_seed,
        sweep_seeds=",".join(str(s) for s in world_seeds),
    )
    path = tmp / f"{name}.cfg"
    path.write_text(text)
    return path


def cold_import(src: Path) -> None:
    """Import the whole package in a fresh interpreter, as every CLI call does.

    No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    would round the set-up time.
    """
    subprocess.run(
        [sys.executable, "-c", "import pragcomm.cli"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )


def sweep_pass(rc: cli.RunConfig, stack: pl.TrainedStack) -> list:
    """One criterion-8 comparison: the three grids over the configured worlds."""
    results = []
    for selector, coder, tau_mi in SWEEP_GRIDS:
        cfg = replace(rc.sweep, tau_mi_grid=tau_mi, coder=coder, selector=selector)
        results.extend(pl.run_sweep(rc.world, stack, cfg, jobs=1))
    return results


class Workload:
    name = ""
    op_span = ""  # span that starts one operation in a traced run

    def __init__(self, seed: int, tmp: Path, src: Path):
        self.seed = seed
        self.tmp = tmp
        self.src = src
        self.digests: dict[str, str] = {}
        self.outputs: dict[str, float] = {}

    def setup(self) -> None:
        cold_import(self.src)

    def prepare(self, i: int):
        return None

    def call(self, inp):
        raise NotImplementedError

    def check(self, i: int, inp, out) -> list[str]:
        return []

    def finish(self) -> dict[int, list[str]]:
        """Checks that run once after the loop, keyed by the operation checked."""
        return {}

    def user_lines(self, loop, p50_ms: float, per_s: float) -> list[str]:
        """The end-to-end metrics under the names the workload's users know."""
        return []


def _codebook_text(cb: vq.LayeredCodebook, path: Path) -> bytes:
    vq.save_codebook(cb, str(path))
    return path.read_bytes()


class Train(Workload):
    """``pipeline.train_all``; each operation trains on a fresh seed."""

    name = "train"
    op_span = "pipeline.train_all"

    def config(self, i: int) -> cli.RunConfig:
        train_seed = 100_000 + 10_000 * self.seed + 10 * i
        return cli.parse_config(str(write_config(self.tmp, "train", self.seed, train_seed)))

    def setup(self) -> None:
        super().setup()
        self.first = self.config(0)

    def prepare(self, i: int):
        return self.config(i)

    def call(self, rc):
        return pl.train_all(rc.world, rc.train)

    def check(self, i, rc, stack) -> list[str]:
        failed = []
        world = rc.world
        cells = rc.train.n_train_worlds * world.n_agents * world.h * world.w
        for layer in (stack.codebook.base, stack.codebook.res):
            if layer.occ_freq.sum() != cells:
                failed.append("occ_freq_sum")
            if not np.all(np.isfinite(layer.conf_freq)):
                failed.append("conf_freq_finite")
        for w, b in stack.discriminator.weights:
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                failed.append("weights_finite")
        if i == 0:
            self.first_stack = stack
        return failed

    def finish(self) -> dict[int, list[str]]:
        """Replay operation 0 with its loss curve captured.

        ``train_all`` discards the curve, and no wrapper may run inside a
        measured operation, so the curve comes from this untimed replay.
        The replay must reproduce operation 0's codebooks exactly.
        """
        curves = []
        original = mie.train

        def capture(*args, **kwargs):
            d, losses = original(*args, **kwargs)
            curves.append(losses)
            return d, losses

        mie.train = capture
        try:
            stack = pl.train_all(self.first.world, self.first.train)
        finally:
            mie.train = original
        failed = []
        losses = np.asarray(curves[0]) if curves else np.array([np.nan])
        first = getattr(self, "first_stack", None)
        if not np.all(np.isfinite(losses)):
            failed.append("loss_finite")
        elif not losses[-1] < losses[0]:
            failed.append("loss_decreases")
        text = _codebook_text(stack.codebook, self.tmp / "replay.txt")
        if first is None or _codebook_text(first.codebook, self.tmp / "cb0.txt") != text:
            failed.append("codebook_reproducible")
        self.digests["codebook_sha256"] = sha256(text)
        self.outputs["first_loss"] = float(losses[0])
        self.outputs["last_loss"] = float(losses[-1])
        return {0: failed} if failed else {}

    def user_lines(self, loop, p50_ms, per_s):
        return [f"train_s {p50_ms / 1e3:.6g} s (median of {loop.attempted} training runs)"]


class Sweep(Workload):
    """``pipeline.run_sweep`` over the three criterion-8 grids."""

    name = "sweep"
    op_span = "pipeline.run_round"

    def setup(self) -> None:
        super().setup()
        path = write_config(self.tmp, self.name, self.seed, TRAIN_SEED)
        self.rc = cli.parse_config(str(path))
        self.stack = pl.train_all(self.rc.world, self.rc.train)
        self.csv = None

    def call(self, _):
        return sweep_pass(self.rc, self.stack)

    def check(self, i, _, results) -> list[str]:
        failed = []
        for r in results:
            if r.total_bits != r.payload_bits + r.abstract_bits + r.mask_bits:
                failed.append("bits_add_up")
            if not 0.0 <= r.mean_iou <= 1.0:
                failed.append("iou_in_unit_interval")
        csv = pl.results_csv(results, self.rc.world.n_classes)
        if self.csv is None:
            self.csv = csv
            self.digests["results_csv_sha256"] = sha256(csv.encode())
            self.outputs["rounds_per_pass"] = len(results)
            self.outputs["bits_per_round"] = float(np.mean([r.total_bits for r in results]))
            self.outputs["mean_iou"] = float(np.mean([r.mean_iou for r in results]))
        elif csv != self.csv:
            failed.append("results_csv_identical")
        return failed

    def user_lines(self, loop, p50_ms, per_s):
        rounds = self.outputs["rounds_per_pass"]
        return [
            f"rounds_per_s {per_s * rounds:.6g} 1/s ({loop.attempted} passes of {rounds} rounds)",
            f"round_mean_ms {p50_ms / rounds:.6g} ms (median pass / rounds)",
            f"bits_per_round {self.outputs['bits_per_round']:.17g} bits",
            f"mean_iou {self.outputs['mean_iou']:.17g} ratio",
        ]


@dataclass(frozen=True)
class WireItem:
    blob: bytes  # what the operation parses
    codes: tuple
    expected_blob: bytes  # the captured blob
    expected: vq.IndexGrid  # decode of the captured message


def capture_messages(rc: cli.RunConfig, stack: pl.TrainedStack) -> list[WireItem]:
    """Every message ``entropy_coder.encode`` returns during one sweep pass."""
    captured = []
    original = ec.encode

    def capture(idx, masks, codes, abstract=True):
        msg = original(idx, masks, codes, abstract=abstract)
        captured.append((msg, codes))
        return msg

    ec.encode = capture
    try:
        sweep_pass(rc, stack)
    finally:
        ec.encode = original
    items = []
    for msg, codes in captured:
        blob = ec.message_to_bytes(msg)
        items.append(WireItem(blob, codes, blob, ec.decode(msg, codes)))
    return items


class Wire(Workload):
    """Bit-level wire format: parse, decode and re-serialize captured messages."""

    name = "wire"
    op_span = "bench.op"

    def setup(self) -> None:
        super().setup()
        path = write_config(self.tmp, self.name, self.seed, TRAIN_SEED)
        rc = cli.parse_config(str(path))
        stack = pl.train_all(rc.world, rc.train)
        self.items = capture_messages(rc, stack)
        blobs = b"".join(item.blob for item in self.items)
        self.digests["wire_blobs_sha256"] = sha256(blobs)
        self.outputs["messages"] = len(self.items)
        self.outputs["bytes_per_message"] = len(blobs) / len(self.items)

    def prepare(self, i: int):
        return self.items[i % len(self.items)]

    def call(self, item: WireItem):
        msg, table_id = ec.message_from_bytes(item.blob)
        grid = ec.decode(msg, item.codes)
        return grid, ec.message_to_bytes(msg, table_id)

    def check(self, i, item: WireItem, out) -> list[str]:
        grid, blob = out
        failed = []
        if blob != item.expected_blob:
            failed.append("reserialized_blob_identical")
        if not (
            np.array_equal(grid.base_idx, item.expected.base_idx)
            and np.array_equal(grid.res_idx, item.expected.res_idx)
        ):
            failed.append("decoded_grid_identical")
        return failed

    def user_lines(self, loop, p50_ms, per_s):
        n = loop.attempted
        lines = [
            f"messages_per_s {per_s:.6g} 1/s",
            f"message_p50_ms {p50_ms:.6g} ms (of {n} messages)",
        ]
        if n >= 200:  # at least ten samples beyond the 95th percentile
            lines.append(f"message_p95_ms {1e3 * loop.quantile(0.95):.6g} ms (of {n} messages)")
        return lines


class Theory(Workload):
    """``pragcomm verify-theory`` on the configs/small.cfg [verify] settings.

    The oracle's random tables are drawn inside the program from the
    config's own verify seed, which stays at 7 for every workload seed:
    other verify seeds change the enumerated encoder count (seeds 1-8 took
    3.1-5.7 s in one series that timed seed 7 at 4.2 s), which is input
    variation, not program speed.
    """

    name = "theory"
    op_span = "cli.main"

    def setup(self) -> None:
        super().setup()
        self.config = write_config(self.tmp, self.name, self.seed, TRAIN_SEED)
        self.out = self.tmp / "verify"

    def call(self, _):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(
                ["verify-theory", "--config", str(self.config), "--out", str(self.out)]
            )

    def check(self, i, _, code) -> list[str]:
        failed = [] if code == 0 else ["exit_code_0"]
        lines = (self.out / "report.txt").read_text().splitlines()
        if not lines or lines[-1] != "OK" or not all(
            line.startswith("PASS ") for line in lines[:-1]
        ):
            failed.append("report_all_pass")
        digest = sha256((self.out / "frontier.csv").read_bytes())
        if self.digests.setdefault("frontier_csv_sha256", digest) != digest:
            failed.append("frontier_csv_identical")
        self.outputs["report_checks"] = len(lines) - 1
        return failed

    def user_lines(self, loop, p50_ms, per_s):
        return [f"verify_s {p50_ms / 1e3:.6g} s (median of {loop.attempted} verify runs)"]


WORKLOADS = {w.name: w for w in (Train, Sweep, Wire, Theory)}
