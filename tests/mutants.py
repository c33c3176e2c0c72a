"""A catalogue of faults the tests must catch, and a driver that tries them.

Each mutant names a file, an exact text that occurs once in it, the text
that replaces it, and the test ids that must fail once it is applied.
``tests/test_mutants.py`` checks in tier-1 that every old text still
occurs exactly once and that every listed test still exists, so the
catalogue cannot go stale silently.

Running this file applies each mutant to its own temporary copy of the
tree, runs that mutant's tests there and reports it as killed (every
listed test failed), survived, or hung (still running after ``TIMEOUT_S``
seconds, when it is stopped).  Hypothesis runs with a fixed seed, so a
mutant's failing example is found and shrunk the same way on every run:

    python tests/mutants.py [name ...]

It exits with status 1 if any mutant survived or hung.  A change that
adds a fault worth keeping adds it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120  # per mutant; its tests take a few seconds at HEAD


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest ids that must all fail, a parametrized one with its case


PAIR_ORACLE = "tests/test_pipeline.py::TestPairBatch::test_matches_loop_oracle"
PAIR_ORDER = "tests/test_pipeline.py::TestPairBatch::test_rows_in_world_pair_cell_order"
PAIR_TIE = "tests/test_pipeline.py::TestPairBatch::test_confidence_equal_to_tau_is_dropped"
TRAIN_PIN = "tests/test_cli.py::TestTrainAndSweep::test_train_bytes_pinned"
SWEEP_PIN = "tests/test_cli.py::TestTrainAndSweep::test_sweep_bytes_pinned"
STACK_FILES = "tests/test_cli.py::TestTrainAndSweep::test_stack_scores_the_same_through_its_files"
FLOAT32_TRAIN = (
    "tests/test_pipeline.py::TestTrainAll::test_trains_a_float32_copy_and_returns_it_in_float64"
)
DRAW_ORDER = "tests/test_verify.py::TestRandomDrawsMatchOracle::test_sources_in_several_chunks"
CHECKS = "tests/test_verify.py::TestChecks::"
CE_STREAM = CHECKS + "test_cross_entropy_table_follows_the_distortion_channels"
NAN_RATE = CHECKS + "test_nan_rate_fails_bound_soundness"
VERIFY = "tests/test_cli.py::TestVerifyTheory::"
VERIFY_PIN = VERIFY + "test_small_config_outputs_pinned"
VERIFY_FAST_PIN = VERIFY + "test_outputs_pinned"
STACKED_BOUND = "tests/test_rd_oracle.py::TestStackedSources::test_bound_rows_are_the_tables_own"
MC = "tests/test_bayes_risk.py::TestMonteCarloMatchesNaiveOracle::"
MC_CE, MC_L1 = MC + "test_cross_entropy_same_float", MC + "test_l1_same_float"
MC_BLOCKS = MC + "test_many_draw_blocks_same_float[shape0]"  # a (3, 3) table, as verify's
MC_BLOCKS_LARGE = MC + "test_many_draw_blocks_same_float[shape1]"
MC_LEAVES = MC + "test_many_leaves_same_float"
MC_BLOCK_PIN = MC + "test_draw_block_at_least_numpys_pairwise_block"
CDF_STEP = MC + "test_a_uniform_on_a_cdf_step[3-0]"  # [cells-seed]: a uint8 draw index
CDF_STEP_LARGE = MC + "test_a_uniform_on_a_cdf_step[300-0]"
SWEEP = "tests/test_pipeline.py::TestSweep::"
EQUAL_MASKS = SWEEP + "test_senders_with_equal_masks_decode_apart"
RECEIVE_ONCE = SWEEP + "test_receive_runs_once_per_distinct_masks[confidence_only]"
RECEIVE_RING = SWEEP + "test_receive_keys_on_the_confidence_mask"
FRESH_WORLDS = SWEEP + "test_matches_rounds_on_fresh_worlds[mi-task_entropy]"
CEILINGS = (
    "tests/test_pipeline.py::TestCeilings::test_solo_and_uncompressed_equal_the_raw_fusion_oracle"
)
CEILINGS_2, CEILINGS_3 = CEILINGS + "[two_agents]", CEILINGS + "[three_agents]"
CODER = "tests/test_entropy_coder.py::"
CAPPED = CODER + "TestPrefixCode::test_built_code_is_huffman_capped_at_16_bits"
GEOMETRIC = CODER + "TestVectorizedCoder::test_geometric_code_capped_at_16_bits"
KERNEL = CODER + "TestVectorizedCoder::test_kernel_matches_the_per_length_oracle"
CRITERION_7 = "tests/test_acceptance.py::test_criterion_7_lossless_regime"
SUM_PLANES = "tests/test_planes.py::TestSumPlanes::test_matches_sum_over_the_last_axis"
SQ_DISTS = "tests/test_vq.py::TestSqDistsOracle::"
SQ_DISTS_ORACLE = SQ_DISTS + "test_same_distances"
NEAREST_BLOCKS = SQ_DISTS + "test_nearest_is_the_argmin_of_every_block"
QUANTIZE_AT_SCALE = "tests/test_vq.py::TestNearestAtScale::test_quantize_matches_the_per_cell_search"
KMEANS_ORACLE = "tests/test_vq.py::TestKmeansOracle::test_same_centroids_assignment_and_history"
KMEANS_NAIVE = "tests/test_vq.py::TestKmeans::test_sse_matches_naive_reference"
KMEANS_EVERY_POINT = (
    "tests/test_vq.py::TestKmeans::test_duplicate_rows_match_every_point_search[4-0]"
)
POSTERIOR_ALONE = (
    "tests/test_simworld.py::TestPosteriorOracle::test_each_cell_equals_its_own_decode"
)
SECTOR_WRAP = "tests/test_simworld.py::TestGenerate::test_sector_wrapping_through_zero_degrees"
RECT_LOOP = "tests/test_simworld.py::TestGenerateOracle::test_matches_the_rectangle_loop"
STACKED_INFO = (
    "tests/test_infotheory.py::TestStackedTables::test_every_quantity_matches_the_tables_alone"
)
UNIT_CONVERSION = "tests/test_infotheory.py::TestEntropy::test_unit_conversion"
FULL_WIDTH_SCORES = (
    "tests/test_pipeline.py::TestReceiveOnFullGrid::test_scores_match_the_full_width_oracle"
)
TRADEOFF_DIGEST = (
    "tests/test_pipeline.py::TestTradeoffSweepBytes::test_results_csv_digest[confidence_only]"
)
DECODE_TABLE = CODER + "TestVectorizedCoder::test_tables_cached_per_code"
INVALID_WALK = CODER + "TestDecodeErrors::test_invalid_codeword_walk"
ROUND_TRIP = CODER + "TestEncode::test_lossless_round_trip_many_seeds"
LAPLACE_RISK = "tests/test_bayes_risk.py::TestLaplaceL1Risk::test_unit_scale_identity"
MIE = "tests/test_mi_estimator.py::"
DISC_ORACLE = MIE + "TestInPlaceStep::test_train_equals_allocating_oracle"
KEEPS_SAMPLES = MIE + "TestMergedRows::test_make_batch_keeps_every_sample"
FINITE_DIFFS = MIE + "TestGradients::test_analytic_matches_finite_differences"
REPEATED_FORWARD_MODE = MIE + "TestGradients::test_repeated_rows_match_forward_mode"
MERGED = MIE + "TestMergedRows::"

MUTANTS = (
    Mutant(
        "pair_batch_tie_kept",
        "src/pragcomm/pipeline.py",
        "sel = conf[:, senders] > np.reshape(",
        "sel = conf[:, senders] >= np.reshape(",
        (PAIR_ORACLE, PAIR_TIE),
    ),
    Mutant(
        "pair_batch_sender_receiver_swapped",
        "src/pragcomm/pipeline.py",
        "senders, receivers = np.array(",
        "receivers, senders = np.array(",
        (PAIR_ORACLE, PAIR_ORDER, TRAIN_PIN),
    ),
    Mutant(
        "pair_batch_taus_pair_major",
        "src/pragcomm/pipeline.py",
        "np.reshape(taus, (len(conf), len(senders), 1, 1))",
        "np.reshape(taus, (len(senders), len(conf), 1, 1)).swapaxes(0, 1)",
        (PAIR_ORACLE, PAIR_ORDER, TRAIN_PIN),
    ),
    Mutant(
        "train_all_in_float64",
        "src/pragcomm/pipeline.py",
        "mie.train(disc.astype(np.float32), batch,",
        "mie.train(disc, batch,",
        (FLOAT32_TRAIN, TRAIN_PIN),
    ),
    Mutant(
        "trained_weights_left_float32",
        "src/pragcomm/pipeline.py",
        "discriminator=disc.astype(np.float64),",
        "discriminator=disc,",
        (FLOAT32_TRAIN, STACK_FILES),
    ),
    Mutant(
        "random_frontiers_group_order",
        "src/pragcomm/verify.py",
        "        yield from results\n",
        "        yield from (results[k] for members in groups.values() for k in members)\n",
        (DRAW_ORDER, VERIFY_PIN),
    ),
    Mutant(
        "entropy_ignores_base",
        "src/pragcomm/infotheory.py",
        'unit = LN2 if base == "bits" else 1.0',
        "unit = 1.0",
        (STACKED_INFO, UNIT_CONVERSION, VERIFY + "test_passes_and_reports",
         VERIFY + "test_check_that_raises_ends_the_report[bound_soundness]"),
    ),
    Mutant(
        "bound_stack_one_table_broadcast",
        "src/pragcomm/rd_oracle.py",
        "i_bits = i_bits.reshape(",
        "i_bits = i_bits[:1].reshape(",
        (STACKED_BOUND, DRAW_ORDER, VERIFY_PIN),
    ),
    Mutant(
        "verify_ce_table_drawn_early",
        "src/pragcomm/verify.py",
        '        ext = channel_stack(rng, [("Y", 2), ("X_s", 3), ("X_r", 2)], 2, 50)\n'
        '        ce_table = it.random_joint([("Y", 3), ("X", 3)], rng)\n',
        '        ce_table = it.random_joint([("Y", 3), ("X", 3)], rng)\n'
        '        ext = channel_stack(rng, [("Y", 2), ("X_s", 3), ("X_r", 2)], 2, 50)\n',
        (CE_STREAM, VERIFY_PIN, VERIFY_FAST_PIN),
    ),
    Mutant(
        "bound_soundness_min_skips_nan",
        "src/pragcomm/verify.py",
        "worst = float(np.min(margins))",
        "worst = float(min(margins))",
        (NAN_RATE,),
    ),
    Mutant(
        "draw_block_below_numpys_pairwise_block",
        "src/pragcomm/bayes_risk.py",
        "_DRAW_BLOCK = 1 << 16",
        "_DRAW_BLOCK = 1 << 6",
        (MC_BLOCK_PIN, MC_CE, MC_L1, MC_BLOCKS),
    ),
    Mutant(
        "pairwise_split_not_a_multiple_of_8",
        "src/pragcomm/bayes_risk.py",
        "half = n // 2 - (n // 2) % 8",
        "half = n // 2",
        (MC_LEAVES,),
    ),
    Mutant(
        "draw_leaves_in_a_running_total",
        "src/pragcomm/bayes_risk.py",
        "    half = n // 2 - (n // 2) % 8\n"
        "    return _pairwise_sum(half, block) + _pairwise_sum(n - half, block)\n",
        "    total = np.float64(0.0)\n"
        "    for start in range(0, n, _DRAW_BLOCK):\n"
        "        total += np.add.reduce(block(min(_DRAW_BLOCK, n - start)))\n"
        "    return total\n",
        (MC_LEAVES, MC_BLOCKS, MC_BLOCKS_LARGE),
    ),
    Mutant(
        "mc_ce_uniform_on_a_step_counted_below",
        "src/pragcomm/bayes_risk.py",
        "draws += np.greater_equal(u, c, out=above)",
        "draws += np.greater(u, c, out=above)",
        (CDF_STEP, CDF_STEP_LARGE),
    ),
    Mutant(
        "laplace_risk_is_its_standard_deviation",
        "src/pragcomm/bayes_risk.py",
        "    return float(b)\n",
        "    return math.sqrt(2.0) * b\n",
        (LAPLACE_RISK, VERIFY + "test_passes_and_reports", VERIFY_PIN),
    ),
    Mutant(
        "receive_key_without_sender",
        "src/pragcomm/pipeline.py",
        "(s, *(np.packbits(m).tobytes() for m in (msg.conf_mask, *ec.carried(msg))))",
        "(*(np.packbits(m).tobytes() for m in (msg.conf_mask, *ec.carried(msg))),)",
        (EQUAL_MASKS,),
    ),
    Mutant(
        "receive_key_without_confidence_mask",
        "src/pragcomm/pipeline.py",
        "for m in (msg.conf_mask, *ec.carried(msg))",
        "for m in ec.carried(msg)",
        (RECEIVE_ONCE, RECEIVE_RING),
    ),
    Mutant(
        "raw_key_without_senders",
        "src/pragcomm/pipeline.py",
        '("raw", r, senders)',
        '("raw", r)',
        (CEILINGS_2, CEILINGS_3, EQUAL_MASKS),
    ),
    Mutant(
        "receive_smooths_outside_the_candidate_mask",
        "src/pragcomm/pipeline.py",
        "sw.smooth(received[box]), where=msg.conf_mask[box][..., None])",
        "sw.smooth(received[box]))",
        (FULL_WIDTH_SCORES, TRADEOFF_DIGEST),
    ),
    Mutant(
        "received_grid_without_trust",
        "src/pragcomm/pipeline.py",
        "return received * _trust(scene.world.cfg, s, r)",
        "return received",
        (FULL_WIDTH_SCORES,),
    ),
    Mutant(
        "scenes_all_on_the_template_world",
        "src/pragcomm/pipeline.py",
        "Scene(make_world(replace(world_template, seed=seed)), stack)",
        "Scene(make_world(world_template), stack)",
        (FRESH_WORLDS,),
    ),
    Mutant(
        "redundancy_score_constant",
        "src/pragcomm/pipeline.py",
        "mie.redundancy_map(self.stack.discriminator, abstract, self.feats[r])",
        "mie.redundancy_map(self.stack.discriminator, abstract, self.feats[r]) * 0.0",
        (CRITERION_7, SWEEP_PIN),
    ),
    Mutant(
        "merged_side_weights_assigned_not_summed",
        "src/pragcomm/mi_estimator.py",
        "    return np.bincount(inverse, minlength=n) / len(inverse)\n",
        "    merged = np.zeros(n)\n    merged[inverse] = 1\n    return merged / len(inverse)\n",
        (KEEPS_SAMPLES, MERGED + "test_a_shared_row_runs_once"),
    ),
    Mutant(
        "side_weights_over_the_merged_row_count",
        "src/pragcomm/mi_estimator.py",
        "np.bincount(inverse, minlength=n) / len(inverse)",
        "np.bincount(inverse, minlength=n) / n",
        (DISC_ORACLE,),
    ),
    Mutant(
        "dscore_without_the_marginal_term",
        "src/pragcomm/mi_estimator.py",
        "dscore = pm * _sigmoid(t) - pj * _sigmoid(-t)",
        "dscore = -pj * _sigmoid(-t)",
        (FINITE_DIFFS, REPEATED_FORWARD_MODE),
    ),
    Mutant(
        "step_on_the_stacked_sides_unmerged",
        "src/pragcomm/mi_estimator.py",
        "    rows, inverse = vq.unique_rows(rows)\n",
        "    inverse = np.arange(len(rows))\n",
        (MERGED + "test_a_shared_row_runs_once",),
    ),
    Mutant(
        "capped_lengths_handed_out_in_reverse",
        "src/pragcomm/entropy_coder.py",
        'capped[np.argsort(lengths, kind="stable")] =',
        'capped[np.argsort(lengths, kind="stable")[::-1]] =',
        (CAPPED, GEOMETRIC),
    ),
    Mutant(
        "window_ignores_the_bit_offset",
        "src/pragcomm/entropy_coder.py",
        "words[:, None] << np.arange(8, dtype=np.uint64)",
        "words[:, None] << np.zeros(8, dtype=np.uint64)",
        (KERNEL, ROUND_TRIP),
    ),
    Mutant(
        "decode_table_spans_one_short",
        "src/pragcomm/entropy_coder.py",
        "(value + 1) << (width - L))",
        "((value + 1) << (width - L)) - 1)",
        (DECODE_TABLE, KERNEL, ROUND_TRIP),
    ),
    Mutant(
        "unmatched_window_not_sunk",
        "src/pragcomm/entropy_coder.py",
        "    jump[length == 0] = n + 2\n",
        "",
        (INVALID_WALK, KERNEL),
    ),
    Mutant(
        "jumps_without_the_tail_sink",
        "src/pragcomm/entropy_coder.py",
        "    tail[tail > n] = n + 1\n",
        "",
        (KERNEL,),
    ),
    Mutant(
        "sum_planes_in_numpys_order",
        "src/pragcomm/planes.py",
        "    total = x[0].copy()\n"
        "    for plane in x[1:]:\n"
        "        total += plane\n"
        "    return total\n",
        "    return x.sum(axis=0)\n",
        (SUM_PLANES, POSTERIOR_ALONE),
    ),
    Mutant(
        "kmeans_mean_ignores_counts",
        "src/pragcomm/vq.py",
        "weighted = np.ascontiguousarray(uniq.T) * w",
        "weighted = np.ascontiguousarray(uniq.T)",
        (KMEANS_ORACLE, KMEANS_NAIVE, KMEANS_EVERY_POINT),
    ),
    Mutant(
        "kmeans_seeding_ignores_counts",
        "src/pragcomm/vq.py",
        "        p = w * d2\n",
        "        p = d2\n",
        (KMEANS_ORACLE, KMEANS_NAIVE),
    ),
    Mutant(
        "nearest_drops_the_last_partial_block",
        "src/pragcomm/vq.py",
        "    for start in range(0, len(points), step):\n",
        "    for start in range(0, len(points) - step + 1, step):\n",
        (NEAREST_BLOCKS, QUANTIZE_AT_SCALE),
    ),
    Mutant(
        "sq_dists_planes_from_the_last_channel",
        "src/pragcomm/vq.py",
        "    pts, cts = points.T, centroids.T\n",
        "    pts, cts = points.T[::-1], centroids.T[::-1]\n",
        (SQ_DISTS_ORACLE,),
    ),
    Mutant(
        "sector_wrap_intersects",
        "src/pragcomm/simworld.py",
        "span = (ang >= lo) | (ang <= hi)",
        "span = (ang >= lo) & (ang <= hi)",
        (SECTOR_WRAP,),
    ),
    Mutant(
        "generate_slices_wrapping_rects",
        "src/pragcomm/simworld.py",
        "if r0 + a <= cfg.h and c0 + b <= cfg.w:",
        "if True:",
        (RECT_LOOP,),
    ),
)


def _failed_ids(output: str) -> set:
    """Test ids that pytest's ``-rfE`` summary reports as failed or errored."""
    failed = set()
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    return failed


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``hung``, from one copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text must occur once in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "hung"
    return "killed" if set(mutant.tests) <= _failed_ids(done.stdout) else "survived"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
