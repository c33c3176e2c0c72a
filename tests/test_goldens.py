"""Every pinned digest of the suite lives in ``tests/goldens.py``: no other
file of the suite or of the benchmark's tests holds a sha256 literal."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_sha256_literal_outside_the_table():
    found = [
        f"{path.relative_to(ROOT)}:{n}"
        for folder in ("tests", "perfbench/tests")
        for path in sorted((ROOT / folder).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and path != ROOT / "tests" / "goldens.py"
        for n, line in enumerate(path.read_bytes().splitlines(), 1)
        if re.search(rb"[0-9a-f]{64}", line)
    ]
    assert not found
