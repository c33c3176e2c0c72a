"""Rerun the acceptance criteria and every pinned test under settings that
stand in for other machines, and print what fails under each.

Each variant sets environment variables for its own test process only:
one OpenBLAS thread, the OpenBLAS kernel that an AVX2 or an AVX machine
picks, or numpy without its AVX-512 loops or at its SSE4.2 baseline.  No
machine setting, pin or test changes.  Per variant one pytest process
runs ``tests/test_acceptance.py`` and every test that ``-k "pinned or
digest"`` selects, after a probe process that prints the OpenBLAS kernel,
its thread count and the numpy loops in effect, so a variant that did not
take is seen as such:

    python tests/machines.py [variant ...]

It exits with status 1 if any test failed under any variant run.
``tests/goldens.py`` names the machine the pins were made on, and the
README lists what holds under which variant.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900  # per variant; about 60 s on 2 cores by default

NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
VARIANTS = {
    "default": {},
    "one_blas_thread": {"OPENBLAS_NUM_THREADS": "1"},
    "haswell_kernel": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge_kernel": {"OPENBLAS_CORETYPE": "SandyBridge"},
    "numpy_without_avx512": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
    "numpy_baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + NO_AVX512},
}

PROBE = """
import ctypes, glob, os
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
core = threads = "?"
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    name = getattr(lib, "scipy_openblas_get_corename64_", None)
    count = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if name is not None and count is not None:
        name.restype, count.restype = ctypes.c_char_p, ctypes.c_int
        core, threads = name().decode(), count()
loops = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
print(f"OpenBLAS {core} x{threads}, numpy {np.__version__} dispatch {' '.join(loops) or 'none'}")
"""


def _failed_ids(output: str) -> list:
    """Test ids that pytest's ``-rfE`` summary reports as failed or errored."""
    return [
        line.partition(" ")[2].split(" - ")[0]
        for line in output.splitlines()
        if line.partition(" ")[0] in ("FAILED", "ERROR")
    ]


def run(name: str) -> bool:
    """Print the variant's settings and its failures; True if none failed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **VARIANTS[name]}
    probe = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    print(f"{name}: {probe.stdout.strip() or probe.stderr.strip()}", flush=True)
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "tests", "perfbench/tests", "-k", "test_acceptance or pinned or digest"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  hung after {TIMEOUT_S} s", flush=True)
        return False
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr
    print(f"  {summary} ({time.perf_counter() - start:.1f} s)", flush=True)
    failed = _failed_ids(done.stdout)
    for test in failed:
        print(f"  FAILED {test}", flush=True)
    return done.returncode == 0 and not failed


def main(names) -> int:
    unknown = set(names) - set(VARIANTS)
    if unknown:
        print(f"unknown variants: {sorted(unknown)}", file=sys.stderr)
        return 2
    results = [run(name) for name in VARIANTS if not names or name in names]
    return int(not all(results))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
