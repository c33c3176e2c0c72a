"""Per-layer metrics derived from one traced run.

Each metric names the end-to-end metric and workload it should move in
``perfbench/README.md``.  Times are per call (median over spans) unless the
name says per operation; counts and ratios are exact.  A layer that the
workload never calls reports 0.
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

LAYERS = (
    "simworld", "vq", "mi_estimator", "entropy_coder", "pipeline",
    "infotheory", "rd_oracle", "bayes_risk", "cli",
)

# Private helpers that are a stage of their own: the posterior entropy that
# gives a round's distortion.  Left unwrapped, it would count as round glue.
PRIVATE_STAGES = (("pipeline", "_mean_entropy_nats"),)


def targets():
    """The layer modules and the private stages, as ``instrument`` takes them."""
    modules = [sys.modules[f"pragcomm.{layer}"] for layer in LAYERS]
    private = [(sys.modules[f"pragcomm.{m}"], attr) for m, attr in PRIVATE_STAGES]
    return modules, private


# Return values the metrics below read; only these are kept by the tracer.
KEEP_RESULTS = (
    "vq.kmeans",
    "mi_estimator.make_batch",
    "entropy_coder.encode",
    "entropy_coder.message_from_bytes",
    "entropy_coder.message_to_bytes",
    "rd_oracle.enumerate_frontier",
)


class Summary:
    """Span statistics of one traced run, indexed by span name."""

    def __init__(self, tracer):
        self.tracer = tracer
        self_times = tracer.self_times()
        self.durations: dict[str, list[float]] = {}
        self.selfs: dict[str, list[float]] = {}
        for i, name in enumerate(tracer.names):
            self.durations.setdefault(name, []).append(tracer.ends[i] - tracer.starts[i])
            self.selfs.setdefault(name, []).append(self_times[i])
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(tracer.names):
            layer = name.partition(".")[0]
            if layer in self.layer_self:
                self.layer_self[layer] += self_times[i]
        roots = tracer.op_roots()
        self.n_ops = len(roots)
        kids = tracer.children()
        self.coverage = [
            tracer.covered(i, kids[i]) / (tracer.ends[i] - tracer.starts[i])
            for i in roots
            if tracer.ends[i] > tracer.starts[i]
        ]

    def calls(self, *names: str) -> int:
        return sum(len(self.durations.get(n, ())) for n in names)

    def ms(self, *names: str) -> float:
        """Median duration per call, in ms."""
        values = [v for n in names for v in self.durations.get(n, ())]
        return 1e3 * statistics.median(values) if values else 0.0

    def self_ms(self, name: str) -> float:
        values = self.selfs.get(name, ())
        return 1e3 * statistics.median(values) if values else 0.0

    def per_op(self, count: float) -> float:
        return count / self.n_ops if self.n_ops else 0.0

    def per_call(self, count: float, name: str) -> float:
        n = self.calls(name)
        return count / n if n else 0.0

    def results(self, name: str) -> list:
        return self.tracer.results.get(name, [])

    def messages(self) -> list:
        """Every message the run encoded or parsed."""
        parsed = [msg for msg, _ in self.results("entropy_coder.message_from_bytes")]
        return self.results("entropy_coder.encode") + parsed


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distinct_rows(batches) -> float:
    distinct = rows = 0
    for b in batches:
        for pairs in (b.joint_pairs, b.marginal_pairs):
            distinct += len(np.unique(pairs, axis=0))
            rows += len(pairs)
    return _ratio(distinct, rows)


def _drop_ratio(messages) -> float:
    candidates = sum(int(m.conf_mask.sum()) for m in messages)
    dropped = sum(int((m.conf_mask & ~m.redund_mask).sum()) for m in messages)
    return _ratio(dropped, candidates)


def _encoders_per_s(s: Summary) -> float:
    encoders = sum(len(points) for points in s.results("rd_oracle.enumerate_frontier"))
    seconds = sum(s.durations.get("rd_oracle.enumerate_frontier", ()))
    return _ratio(encoders, seconds)


ROUND = "pipeline.run_round"
CODE_BUILDS = ("entropy_coder.build_code", "entropy_coder.fixed_code")

# (name, unit, value from a Summary)
PER_LAYER = (
    ("simworld.generate_ms", "ms", lambda s: s.ms("simworld.generate")),
    ("simworld.generate_calls_per_round", "count",
     lambda s: s.per_call(s.calls("simworld.generate"), ROUND)),
    ("simworld.extract_features_ms", "ms", lambda s: s.ms("simworld.extract_features")),
    ("simworld.extract_features_calls_per_round", "count",
     lambda s: s.per_call(s.calls("simworld.extract_features"), ROUND)),
    ("simworld.confidence_ms", "ms", lambda s: s.ms("simworld.confidence")),
    ("simworld.smooth_ms", "ms", lambda s: s.ms("simworld.smooth")),
    ("simworld.fuse_ms", "ms", lambda s: s.ms("simworld.fuse")),
    ("simworld.posterior_ms", "ms", lambda s: s.ms("simworld.posterior_from_features")),
    ("simworld.score_iou_ms", "ms", lambda s: s.ms("simworld.score_iou")),
    ("vq.kmeans_s", "s", lambda s: s.ms("vq.kmeans") / 1e3),
    ("vq.kmeans_iters", "count",
     lambda s: _mean([len(history) for _, _, history in s.results("vq.kmeans")])),
    ("vq.quantize_ms", "ms", lambda s: s.ms("vq.quantize")),
    ("vq.quantize_calls_per_round", "count",
     lambda s: s.per_call(s.calls("vq.quantize"), ROUND)),
    ("vq.reconstruct_ms", "ms", lambda s: s.ms("vq.reconstruct_base", "vq.reconstruct_full")),
    ("mi_estimator.step_ms", "ms", lambda s: s.ms("mi_estimator.train_step")),
    ("mi_estimator.steps", "count",
     lambda s: s.per_call(s.calls("mi_estimator.train_step"), "mi_estimator.train")),
    ("mi_estimator.batch_rows", "count",
     lambda s: _mean([len(b.joint_pairs) + len(b.marginal_pairs)
                      for b in s.results("mi_estimator.make_batch")])),
    ("mi_estimator.distinct_row_ratio", "ratio",
     lambda s: _distinct_rows(s.results("mi_estimator.make_batch"))),
    ("mi_estimator.redundancy_map_ms", "ms", lambda s: s.ms("mi_estimator.redundancy_map")),
    ("mi_estimator.drop_ratio", "ratio", lambda s: _drop_ratio(s.messages())),
    ("entropy_coder.build_code_ms", "ms", lambda s: s.ms(*CODE_BUILDS)),
    ("entropy_coder.build_code_calls_per_round", "count",
     lambda s: s.per_call(s.calls(*CODE_BUILDS), ROUND)),
    ("entropy_coder.encode_ms", "ms", lambda s: s.ms("entropy_coder.encode")),
    ("entropy_coder.decode_ms", "ms", lambda s: s.ms("entropy_coder.decode")),
    ("entropy_coder.to_bytes_ms", "ms", lambda s: s.ms("entropy_coder.message_to_bytes")),
    ("entropy_coder.from_bytes_ms", "ms", lambda s: s.ms("entropy_coder.message_from_bytes")),
    ("entropy_coder.payload_bits", "bits",
     lambda s: _mean([m.payload_bits for m in s.messages()])),
    ("entropy_coder.abstract_bits", "bits",
     lambda s: _mean([m.abstract_bits for m in s.messages()])),
    ("entropy_coder.mask_bits", "bits",
     lambda s: _mean([m.mask_bits for m in s.messages()])),
    ("entropy_coder.mask_share", "ratio",
     lambda s: _ratio(sum(m.mask_bits for m in s.messages()),
                      sum(m.total_bits for m in s.messages()))),
    ("entropy_coder.bytes_per_message", "bytes",
     lambda s: _mean([len(b) for b in s.results("entropy_coder.message_to_bytes")])),
    ("pipeline.run_round_ms", "ms", lambda s: s.ms(ROUND)),
    ("pipeline.round_self_ms", "ms", lambda s: s.self_ms(ROUND)),
    ("pipeline.train_all_self_s", "s", lambda s: s.self_ms("pipeline.train_all") / 1e3),
    ("infotheory.mutual_information_ms", "ms",
     lambda s: s.ms("infotheory.mutual_information")),
    ("infotheory.mutual_information_calls", "count",
     lambda s: s.per_op(s.calls("infotheory.mutual_information"))),
    ("infotheory.conditional_entropy_ms", "ms",
     lambda s: s.ms("infotheory.conditional_entropy")),
    ("infotheory.conditional_entropy_calls", "count",
     lambda s: s.per_op(s.calls("infotheory.conditional_entropy"))),
    ("infotheory.extend_with_channel_ms", "ms",
     lambda s: s.ms("infotheory.extend_with_channel")),
    ("infotheory.conditional_mi_calls", "count",
     lambda s: s.per_op(s.calls("infotheory.conditional_mi"))),
    ("rd_oracle.enumerate_frontier_ms", "ms", lambda s: s.ms("rd_oracle.enumerate_frontier")),
    ("rd_oracle.encoders_per_s", "1/s", _encoders_per_s),
    ("rd_oracle.pareto_flags_ms", "ms", lambda s: s.ms("rd_oracle.pareto_flags")),
    ("rd_oracle.theoretical_bound_ms", "ms", lambda s: s.ms("rd_oracle.theoretical_bound")),
    ("rd_oracle.theoretical_bound_calls", "count",
     lambda s: s.per_op(s.calls("rd_oracle.theoretical_bound"))),
    ("bayes_risk.pragmatic_distortion_ms", "ms",
     lambda s: s.ms("bayes_risk.pragmatic_distortion")),
    ("bayes_risk.mc_ms", "ms",
     lambda s: s.ms("bayes_risk.mc_l1_gaussian", "bayes_risk.mc_l1_laplace", "bayes_risk.mc_ce")),
    ("cli.verify_self_s", "s", lambda s: s.per_op(s.layer_self["cli"])),
) + tuple(
    (f"{layer}.self_ms_per_op", "ms",
     lambda s, layer=layer: 1e3 * s.per_op(s.layer_self[layer]))
    for layer in LAYERS
) + (
    ("trace.ops", "count", lambda s: s.n_ops),
    ("trace.op_coverage_min", "ratio", lambda s: min(s.coverage, default=0.0)),
    ("trace.op_coverage_p50", "ratio",
     lambda s: statistics.median(s.coverage) if s.coverage else 0.0),
)

# Filled in from the untraced and traced halves of the run, not from spans.
OVERHEAD = (("trace.overhead_ms", "ms"), ("trace.overhead_share", "ratio"))


def per_layer_metrics(tracer, untraced_p50_s: float, traced_p50_s: float) -> dict:
    s = Summary(tracer)
    metrics = {name: {"value": float(fn(s)), "unit": unit} for name, unit, fn in PER_LAYER}
    overhead = traced_p50_s - untraced_p50_s
    metrics["trace.overhead_ms"] = {"value": 1e3 * overhead, "unit": "ms"}
    metrics["trace.overhead_share"] = {
        "value": _ratio(overhead, untraced_p50_s), "unit": "ratio"
    }
    return metrics
