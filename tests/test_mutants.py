"""``scripts/mutants.py`` names each mutant by a text that occurs exactly
once in its file, and tests that exist; running the mutants is the
script's job, not the suite's."""
import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import mutants  # noqa: E402


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_at_exactly_one_place(mutant):
    text = (mutants.ROOT / "src" / "gkw" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for target in mutant.tests:
        path, _, name = target.partition("::")
        source = (mutants.ROOT / path).read_text()
        if name:
            assert name in {f.name for f in ast.walk(ast.parse(source))
                            if isinstance(f, ast.FunctionDef)}


def test_each_equivalent_mutant_is_listed_once_with_a_one_line_proof():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    assert set(mutants.EQUIVALENT) <= set(names)
    assert all(proof.strip() and "\n" not in proof for proof in mutants.EQUIVALENT.values())
