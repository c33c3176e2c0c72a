"""The mutant catalogue stays applicable: ``python tests/mutants.py`` runs it."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_listed_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *classes, func = test_id.split("[")[0].split("::")
        source = (ROOT / path).read_text()
        for name in classes:
            assert f"class {name}" in source, test_id
        assert f"def {func}(" in source, test_id


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
