"""The benchmark's workloads, each driven in process through one operation.

Every workload in ``perfbench/workloads.py`` runs its set-up, operation 0
(``prepare``, ``call``, ``check``) and its closing checks, untraced, at
workload seed 11.  No check may fail, and each digest must equal the one
``BENCH_pr13.json`` records.  A change to the package API that would break
``python3 perfbench/run.py`` fails here first.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 11
DIGESTS = {
    "train": {
        "codebook_sha256": "87bfc66d853a95842ea990ab3915d8729bf9400e1a0a3ade121a785e94507457"
    },
    "sweep": {
        "results_csv_sha256": "951d6a0e8d08dda79d042da3783e700253c10f38def4ecb2f44205be11f2f773"
    },
    "wire": {
        "wire_blobs_sha256": "353e593fa907f8b871ac43ccdd5319f0b64b1ea333825457542bbff3e7278c2b"
    },
    "theory": {
        "frontier_csv_sha256": "88029e94e5702db54af010685f9ae70f2716a3b5005d31ec387c6699f535d88a"
    },
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
