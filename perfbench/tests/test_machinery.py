"""Tests for the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from pragcomm import entropy_coder as ec  # noqa: E402
from pragcomm import infotheory as it  # noqa: E402
from pragcomm import rd_oracle as rd  # noqa: E402
from pragcomm import vq  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES, PRIVATE = layers.targets()


def _bindings():
    return {
        (m.__name__, attr): value
        for m in MODULES
        for attr, value in vars(m).items()
        if inspect.isfunction(value)
    }


def test_wrappers_are_restored_after_a_traced_run():
    before = _bindings()
    tracer = tracing.Tracer("rd_oracle.theoretical_bound")
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer, MODULES, "pragcomm", PRIVATE):
            assert rd.theoretical_bound is not before[("pragcomm.rd_oracle", "theoretical_bound")]
            t = it.random_joint([("Y", 2), ("X_s", 3), ("X_r", 2)], np.random.default_rng(0))
            rd.theoretical_bound(t, 0.1)
            raise RuntimeError("leave the block by an error")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # rd_oracle imports conditional_mi by name; the call went through its wrapper
    names = set(tracer.names)
    assert {"rd_oracle.theoretical_bound", "infotheory.conditional_mi"} <= names
    root = tracer.names.index("rd_oracle.theoretical_bound")
    assert tracer.ops == [root if i >= root else -1 for i in range(len(tracer.names))]


def _synthetic(spans):
    """Tracer filled with (name, start, end, parent) tuples."""
    tracer = tracing.Tracer("op")
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.ops.append(-1)
    return tracer


def test_self_time_on_nested_spans():
    tracer = _synthetic(
        [
            ("op", 0.0, 10.0, -1),  # 0
            ("a", 1.0, 4.0, 0),  # 1
            ("b", 3.0, 6.0, 0),  # 2: overlaps a, so the union counts
            ("a.inner", 2.0, 3.0, 1),  # 3
            ("c", 9.0, 12.0, 0),  # 4: runs past its parent; only 9..10 counts
            ("c.inner", 9.5, 9.5, 4),  # 5: empty
        ]
    )
    assert tracer.self_times() == pytest.approx([10 - 6, 2, 3, 1, 3, 0])
    assert tracer.covered(0, tracer.children()[0]) == pytest.approx(6.0)


def test_per_layer_summary_on_nested_spans():
    tracer = _synthetic(
        [
            ("pipeline.run_round", 0.0, 10.0, -1),
            ("vq.quantize", 1.0, 3.0, 0),
            ("vq.quantize", 4.0, 8.0, 0),
            ("simworld.smooth", 5.0, 6.0, 2),
        ]
    )
    tracer.ops = [0, 0, 0, 0]
    s = layers.Summary(tracer)
    assert s.n_ops == 1
    assert s.coverage == [pytest.approx(0.6)]
    assert s.layer_self["pipeline"] == pytest.approx(4.0)
    assert s.layer_self["vq"] == pytest.approx(5.0)
    assert s.layer_self["simworld"] == pytest.approx(1.0)
    assert s.ms("vq.quantize") == pytest.approx(3000.0)
    assert s.per_call(s.calls("vq.quantize"), "pipeline.run_round") == 2


def _wire_items():
    rng = np.random.default_rng(3)
    h, w = 4, 5
    grid = vq.IndexGrid(rng.integers(0, 3, (h, w)), rng.integers(0, 6, (h, w)))
    masks = (rng.random((h, w)) < 0.7, rng.random((h, w)) < 0.6)
    codes = (ec.build_code(np.array([5.0, 2.0, 1.0])), ec.build_code(rng.random(6) + 0.1))
    msg = ec.encode(grid, masks, codes)
    blob = ec.message_to_bytes(msg)
    content_bits = 8 * 10 + 2 * h * w + 32 + msg.abstract_bits + 32 + msg.payload_bits
    return workloads.WireItem(blob, codes, blob, ec.decode(msg, codes)), content_bits


class _FixedWire(workloads.Wire):
    def __init__(self, items):
        self.items = items


def test_bit_flipped_wire_blob_is_counted_as_failure_not_raised(capsys):
    item, content_bits = _wire_items()
    flipped = []
    for bit in range(content_bits):
        blob = bytearray(item.blob)
        blob[bit // 8] ^= 0x80 >> (bit % 8)
        flipped.append(workloads.WireItem(bytes(blob), item.codes, item.blob, item.expected))
    wl = _FixedWire([item] + flipped)
    loops = [measure.measure(wl, seconds=0.0, first=i) for i in range(len(wl.items))]
    assert all(lp.attempted == 1 for lp in loops)
    assert loops[0].failed == {}
    assert all(lp.failed == {0: lp.failed[0]} for lp in loops[1:])
    capsys.readouterr()


def test_benchmark_json_lists_the_metrics_the_driver_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(measure.END_TO_END)
    per_layer = [(name, unit) for name, unit, _ in layers.PER_LAYER] + list(layers.OVERHEAD)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
