"""Closed-loop measurement: one caller, each operation after the last."""

from __future__ import annotations

import statistics
import sys
import time
import traceback

# The end-to-end metrics of a measured run, in the order BENCHMARK.json lists
# them.  With one caller in a closed loop, throughput and mean latency are
# the same measurement; throughput is the one gated, and the median and tail
# latencies are printed beside it.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Loop:
    """Outcome of one closed-loop measurement."""

    def __init__(self):
        self.samples: list[float] = []
        self.failed: dict[int, list[str]] = {}

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def merge(self, other: "Loop") -> None:
        offset = self.attempted
        self.samples.extend(other.samples)
        self.failed.update({offset + i: p for i, p in other.failed.items()})

    def p50(self) -> float:
        return statistics.median(self.samples)

    def quantile(self, q: float) -> float:
        return statistics.quantiles(self.samples, n=100, method="inclusive")[round(100 * q) - 1]


def measure(wl, seconds: float, loop: Loop | None = None, first: int = 0, tracer=None) -> Loop:
    """Run operations on inputs ``first``, ``first + 1``, ... back to back
    for ``seconds`` (at least one), appending to ``loop``.

    With a tracer, each operation runs inside a ``bench.op`` span.
    """
    loop = Loop() if loop is None else loop
    start = time.perf_counter()
    i = first
    while i == first or time.perf_counter() - start < seconds:
        attempt = loop.attempted
        inp = wl.prepare(i)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.call(inp)
            else:
                with tracer.span("bench.op"):
                    out = wl.call(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            loop.samples.append(time.perf_counter() - t0)
            loop.failed[attempt] = [f"raised {type(exc).__name__}: {exc}"]
            if len(loop.failed) <= 3:
                traceback.print_exc(file=sys.stderr)
        else:
            loop.samples.append(time.perf_counter() - t0)
            problems = wl.check(i, inp, out)
            if problems:
                loop.failed[attempt] = problems
        i += 1
    return loop
