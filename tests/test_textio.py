"""``textio.load_arrays`` names each fault of a malformed array file."""

import pytest

from pragcomm.textio import load_arrays


@pytest.mark.parametrize(
    "text, fault",
    [
        ("arrays 1\nx 2 y\n1 2\n", "bad array header 'x 2 y'"),
        ("arrays 1\n2x 2\n1 2\n", "bad array header '2x 2'"),
        ("arrays 1\nx 2 3\n1 2 3\n4 5\n", "every row of x must hold 3 values"),
    ],
    ids=["dimension", "name", "short-row"],
)
def test_fault_named_with_its_path(text, fault, tmp_path):
    path = tmp_path / "arrays.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_arrays(str(path))
    assert str(err.value) == f"{path}: {fault}"
