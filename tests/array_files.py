"""Shared checks for the package's array files (``pragcomm.textio``)."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

# a line to append: anything without a newline
extra_lines = st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=12)


def float_arrays(shape, elements=st.floats(allow_nan=False, allow_infinity=False)):
    return hnp.arrays(np.float64, shape, elements=elements)


def assert_same_bits(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def corruptions(text: str, extra_line: str) -> list[str]:
    """Every truncation of ``text``; ``text`` with each of its lines,
    ``extra_line`` or an empty line appended; and ``text`` with the first
    value of a row replaced by nan, inf or -inf."""
    lines = text.splitlines()
    bad = [text[:cut] for cut in range(len(text))]
    bad += [text + line + "\n" for line in [*lines, extra_line, ""]]
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens and not tokens[0][0].isalpha():  # a row of values
            for value in ("nan", "inf", "-inf"):
                edited = [*lines[:i], " ".join([value, *tokens[1:]]), *lines[i + 1 :]]
                bad.append("\n".join(edited) + "\n")
    return bad


def assert_corruptions_rejected(path: Path, load, extra_line: str) -> None:
    """``load`` raises ValueError (never IndexError) on every corruption of
    the file at ``path``."""
    text = path.read_text()
    for bad in corruptions(text, extra_line):
        path.write_text(bad)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(str(path))
    path.write_text(text)
