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


def _test_names(path):
    """The names of the test functions a pytest file defines, ``Class::name``
    for a method of a test class."""
    import ast
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return names


def test_every_catalog_node_id_names_a_test():
    # a renamed or deleted test would leave its mutant at "error", which
    # only a run of the whole catalog shows; this reads the files instead
    for name, m in mutation.CATALOG.items():
        for node_id in m.tests:
            path, _, function = node_id.partition("::")
            assert (mutation.ROOT / path).is_file(), (name, node_id)
            if function:
                assert function.split("[")[0] in _test_names(mutation.ROOT / path), (name, node_id)
