"""The mutant register stays applicable: each mutant's text and killers still exist.

Running the mutants is `python tests/mutants.py`, outside tier 1.
"""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_still_applies(mutant):
    # an edit that moves or rewrites the old text would leave the mutant applying nowhere, or twice
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node_id in mutant.killers:
        path, _, test = node_id.partition("::")
        name = test.partition("[")[0]
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), node_id
