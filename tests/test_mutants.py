"""The known mutants of `tests/mutants.py` still name the program's text."""

from pathlib import Path

import pytest

import roomflow
from mutants import MUTANTS

SRC = Path(roomflow.__file__).resolve().parent


@pytest.mark.parametrize("file, old, new, tests", MUTANTS,
                         ids=[str(i) for i in range(len(MUTANTS))])
def test_old_text_occurs_once(file, old, new, tests):
    # a refactor that rewrites a mutant's text ports the mutant
    assert (SRC / file).read_text().count(old) == 1
    assert new != old
