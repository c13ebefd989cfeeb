"""The mutants of ``tests/mutants.py`` still aim at live code: checked
without running any of them, so a mutant whose target text is gone shows
up here rather than only in the opt-in mutation run."""

import pytest

from .mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_targets_one_place_and_names_its_checks(name):
    m = MUTANTS[name]
    assert (ROOT / "src" / "unilim" / m.path).read_text().count(m.old) == 1
    assert (ROOT / "tests" / m.test_file).is_file()
    assert set(m.killers) <= {"verify", "tests"}
    assert bool(m.killers) != bool(m.equivalent)


def test_no_two_mutants_make_the_same_substitution():
    """A merged pair of mutants cannot keep the count by listing one
    substitution twice."""
    edits = [(m.path, m.old, m.new) for m in MUTANTS.values()]
    assert len(set(edits)) == len(edits)
