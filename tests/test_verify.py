"""``pragcomm.verify`` is the one home of the theory checks: the other
trees call its public stages, and importing the CLI starts no thread pool."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

from pragcomm import cli, verify

ROOT = Path(__file__).resolve().parents[1]


def test_no_file_names_a_private_function_of_cli_or_verify():
    # the data table cli._TABLE is no function, so tests may read it
    private = sorted(
        name
        for module in (cli, verify)
        for name, value in vars(module).items()
        if name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )
    named = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, private)))
    found = [
        f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
        for tree in ("tests", "demos", "perfbench")
        for path in sorted((ROOT / tree).rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if named.search(line)
    ]
    assert private and found == []


def test_importing_the_cli_loads_no_thread_pool():
    # verify.checks imports concurrent.futures itself, so that the other
    # commands, which start no thread, do not pay for the import
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, pragcomm.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
