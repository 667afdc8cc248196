"""The known mutants of `tests/mutants.py` still name the program's text
and existing tests."""

import ast
from pathlib import Path

import pytest

import roomflow
from mutants import MUTANTS

SRC = Path(roomflow.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
TEST_IDS = sorted({t for _, _, _, tests in MUTANTS for t in tests})


@pytest.mark.parametrize("file, old, new, tests", MUTANTS,
                         ids=[str(i) for i in range(len(MUTANTS))])
def test_old_text_occurs_once(file, old, new, tests):
    # a refactor that rewrites a mutant's text ports the mutant
    assert (SRC / file).read_text().count(old) == 1
    assert new != old


@pytest.mark.parametrize("test_id", TEST_IDS)
def test_killing_test_exists(test_id):
    # read statically: a renamed or deleted test otherwise shows only as an
    # "error" of a minutes-long run_mutants.py
    path, *names = test_id.split("::")
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(
            n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        assert node is not None, f"{path} defines no {'::'.join(names)}"
        body = node.body
