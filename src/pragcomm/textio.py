"""The package's two text formats: named-array files and CSV rows.

An array file starts with the line ``arrays N`` and one header line per
array, ``name n`` (a vector) or ``name rows cols`` (a matrix).  The values
follow, array by array, one line per matrix row (a vector is one line),
with 17 significant digits so float64 values round-trip bit for bit.
Every line ends with a newline.  CSV cells are strings as they are,
integers in decimal and other numbers with 17 significant digits.
"""

from __future__ import annotations

import numpy as np


def save_arrays(path: str, arrays: dict) -> None:
    """Write named finite vectors and matrices, in the dict's order."""
    header, rows = [f"arrays {len(arrays)}"], []
    for name, values in arrays.items():
        a = np.asarray(values, dtype=np.float64)
        if not name.isidentifier() or a.ndim not in (1, 2) or not np.all(np.isfinite(a)):
            raise ValueError(f"{path}: {name!r} is not a finite vector or matrix")
        header.append(" ".join([name, *(str(n) for n in a.shape)]))
        rows.extend(" ".join(format(v, ".17g") for v in r) for r in np.atleast_2d(a).tolist())
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in header + rows))


def load_arrays(path: str, names=None) -> dict[str, np.ndarray]:
    """Every array of an array file, in file order, as float64 arrays.

    With ``names``, the file must hold exactly those arrays in that order.
    A malformed, truncated or extended file, or a non-finite value, raises
    ``ValueError`` naming the file.
    """
    try:
        with open(path) as fh:
            arrays = _parse(fh.read())
    except ValueError as exc:  # UnicodeDecodeError too
        raise ValueError(f"{path}: {exc}") from None
    if names is not None and list(arrays) != list(names):
        raise ValueError(f"{path}: expected arrays {list(names)}, found {list(arrays)}")
    return arrays


def _parse(text: str) -> dict[str, np.ndarray]:
    lines = text.split("\n")[:-1]  # a last line without its newline is missing
    first = lines[0].split() if lines else []
    if len(first) != 2 or first[0] != "arrays" or not first[1].isdecimal():
        raise ValueError("expected an 'arrays N' first line")
    pos = 1 + int(first[1])
    if pos > len(lines):
        raise ValueError("truncated header")
    arrays: dict[str, np.ndarray] = {}
    for line in lines[1:pos]:
        name, *dims = line.split() or [""]
        if not (name.isidentifier() and name not in arrays and len(dims) in (1, 2)
                and all(d.isdecimal() for d in dims)):
            raise ValueError(f"bad array header {line!r}")
        shape = tuple(int(d) for d in dims)
        n_rows = shape[0] if len(shape) == 2 else 1
        rows = [row.split() for row in lines[pos : pos + n_rows]]
        if len(rows) < n_rows:
            raise ValueError(f"truncated in {name}")
        if any(len(row) != shape[-1] for row in rows):
            raise ValueError(f"every row of {name} must hold {shape[-1]} values")
        a = np.array([[float(t) for t in row] for row in rows], dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} has non-finite values")
        arrays[name] = a.reshape(shape)
        pos += n_rows
    if pos != len(lines):
        raise ValueError(f"line {pos + 1}: lines after the last array")
    return arrays


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def csv_text(header, rows) -> str:
    """A header line plus one line per row of cells, each newline-terminated."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
