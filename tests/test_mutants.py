"""The mutant list of ``tests/mutants.py`` cannot rot silently: each text
still occurs exactly once in its file, and each test it names still exists.
Whether the tests kill the mutants is the runner's job
(``python tests/mutants.py``), not tier-1's."""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_the_mutant_list_only_grows():
    assert len(MUTANTS) >= 30


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_text_occurs_once_and_its_tests_exist(mutant):
    assert mutant.text != mutant.replacement
    assert (ROOT / "src" / mutant.file).read_text().count(mutant.text) == 1
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        source = (ROOT / path).read_text()
        assert Path(path).name.startswith("test_")
        if name:
            assert re.search(rf"^def {re.escape(name)}\(", source, re.M), test
