"""The mutant list stays live: a refactor that moves a mutant's text fails
here instead of leaving the mutant inert (the harness is ``mutants.py``)."""
import ast

import pytest

from mutants import KILLED, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_parses(mutant):
    text = (ROOT / "src" / "drlines" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    ast.parse(text.replace(mutant.old, mutant.new))
    assert mutant.old != mutant.new and mutant.mark.strip()
    assert [m.name for m in MUTANTS].count(mutant.name) == 1
    # the control, first, edits a comment and must survive
    assert MUTANTS[0].name == "control" and MUTANTS[0].mark != KILLED
