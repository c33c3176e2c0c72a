"""The benchmark's workloads, each driven in process through one operation.

Every workload in ``perfbench/workloads.py`` runs its set-up, operation 0
(``prepare``, ``call``, ``check``) and its closing checks, untraced, at
workload seed 11.  No check may fail, and each digest must equal its pin in
``tests/goldens.py``.  The theory workload runs configs/small.cfg's
``[verify]`` settings, so its ``frontier.csv`` is that config's pin.  A
change to the package API that would break ``python3 perfbench/run.py``
fails here first.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402
from goldens import GOLDENS  # noqa: E402

SEED = 11
DIGESTS = {
    "train": {"codebook_sha256": GOLDENS["bench/codebook_sha256"]},
    "sweep": {"results_csv_sha256": GOLDENS["bench/results_csv_sha256"]},
    "wire": {"wire_blobs_sha256": GOLDENS["bench/wire_blobs_sha256"]},
    "theory": {"frontier_csv_sha256": GOLDENS["small-verify/frontier.csv"]},
}


def test_every_workload_is_covered():
    assert DIGESTS.keys() == workloads.WORKLOADS.keys()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_first_operation_passes_its_checks_and_digests(name, tmp_path):
    wl = workloads.WORKLOADS[name](SEED, tmp_path, ROOT / "src")
    wl.setup()
    inp = wl.prepare(0)
    failed = {0: wl.check(0, inp, wl.call(inp))}
    for i, problems in wl.finish().items():
        failed.setdefault(i, []).extend(problems)
    assert not any(failed.values()), failed
    assert wl.digests == DIGESTS[name]
