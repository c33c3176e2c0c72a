"""Benchmark driver for pragcomm.

    python3 perfbench/run.py --workload {train,sweep,wire,theory} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process, one caller, a closed loop:
each operation starts when the previous one returns (``jobs=1``), with no
more BLAS threads than the process may use cores.

``--trace 0`` sets up at least SETUP_REPS times, then measures for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` sets up
once, then alternates untraced chunks of operations with chunks in which
every public pragcomm function is wrapped in a span, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines
(machine, digests, outputs, the metrics by their workload names) come
first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from measure import END_TO_END, Loop, measure

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_REPS = 3  # at least, and until SETUP_MIN_S of set-up has been timed
SETUP_MIN_S = 2.0
TRACE_CHUNK_S = 0.5
CORES = len(os.sched_getaffinity(0))

# BLAS reads these once, when numpy is first imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(CORES)


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import pragcomm from this checkout's src/ and nowhere else."""
    if not (SRC / "pragcomm" / "__init__.py").is_file():
        _fail(f"no pragcomm sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import pragcomm

    if Path(pragcomm.__file__).resolve().parent != (SRC / "pragcomm").resolve():
        _fail(f"pragcomm imported from {pragcomm.__file__}, not from {SRC}")


def machine() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": CORES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_untraced(wl, seconds: float) -> tuple[dict, Loop]:
    setup = []
    while len(setup) < SETUP_REPS or sum(setup) < SETUP_MIN_S:
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    loop = measure(wl, seconds)
    for i, problems in wl.finish().items():
        loop.failed.setdefault(i, []).extend(problems)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.attempted / sum(loop.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END}, loop


def run_traced(wl, seconds: float) -> tuple[dict, Loop]:
    """Alternate untraced and traced chunks of operations for ``seconds``.

    Alternating on the same inputs keeps slow drifts of the machine and
    differences between inputs out of the overhead estimate.  The collector
    runs between chunks, not inside operations, so a collection does not
    land in whichever span happened to allocate.
    """
    from layers import KEEP_RESULTS, per_layer_metrics, targets
    from tracing import Tracer, instrument

    wl.setup()
    tracer = Tracer(wl.op_span, KEEP_RESULTS)
    modules, private = targets()
    untraced, traced = Loop(), Loop()
    first = 0
    start = time.perf_counter()
    while not traced.samples or time.perf_counter() - start < seconds:
        done = untraced.attempted
        gc.collect()
        gc.disable()
        try:
            measure(wl, TRACE_CHUNK_S, untraced, first)
            # the traced chunk repeats the untraced chunk's inputs
            with instrument(tracer, modules, "pragcomm", private):
                measure(wl, TRACE_CHUNK_S, traced, first, tracer)
        finally:
            gc.enable()
        first += untraced.attempted - done
    loop = Loop()
    loop.merge(untraced)
    loop.merge(traced)
    for i, problems in wl.finish().items():
        loop.failed.setdefault(i, []).extend(problems)
    return per_layer_metrics(tracer, untraced.p50(), traced.p50()), loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "sweep", "wire", "theory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be >= 0")
    if not args.seconds > 0:
        _fail("--seconds must be positive")

    _import_program()
    from workloads import WORKLOADS

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp, SRC)
        run = run_traced if args.trace else run_untraced
        metrics, loop = run(wl, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "load": "closed loop, 1 caller, jobs=1",
        "machine": machine(),
        "digests": wl.digests,
        "outputs": wl.outputs,
        "failed_checks": {str(i): p for i, p in sorted(loop.failed.items())},
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(f"error_rate {len(loop.failed) / loop.attempted:.6g} ratio")
    if not args.trace:
        print(f"op_p50_ms {1e3 * loop.p50():.6g} ms (of {loop.attempted} operations)")
        for line in wl.user_lines(loop, 1e3 * loop.p50(), metrics["ops_per_s"]["value"]):
            print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not loop.failed,
        "attempted": loop.attempted,
        "failed": len(loop.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
