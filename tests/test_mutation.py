"""The mutation runner (``tools/mutation.py``) keeps its word: every mutant
of its catalog still applies to the source, and the cheapest one is killed
by its named test, which passes in the runner's copy of the tree when the
edit changes nothing."""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import mutation  # noqa: E402


def test_every_mutant_edits_the_source_once():
    for name, m in mutation.CATALOG.items():
        assert mutation.mutated(m) != (mutation.ROOT / m.path).read_text(), name


def test_the_cheapest_mutant_is_killed():
    m = mutation.CATALOG["worst-nan"]
    assert mutation.run(m) == "killed"
    assert mutation.run(dataclasses.replace(m, new=m.old)) == "survived"
