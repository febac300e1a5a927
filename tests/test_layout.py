"""The library holds only what the package, the benchmark or the acceptance
criteria use: every public name in ``src/gcms`` has a caller outside the
unit tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _public_definitions(path: Path):
    """(name, node) of each public top-level definition and public method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _references(path: Path):
    """(identifier, line) of every name, attribute, import and dotted string
    in a file; a string such as ``"verification.setexpr_count_vec"`` names
    what the benchmark's tracer wraps."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            yield from ((part, node.lineno) for part in node.value.split("."))


def test_every_public_name_has_a_caller():
    src = sorted((ROOT / "src" / "gcms").glob("*.py"))
    callers = [*src, *sorted((ROOT / "perfbench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in callers:
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    unused = []
    for path in src:
        for qualname, node in _public_definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("_"):
                continue
            # a reference inside the definition itself is no caller
            if not any(not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, line in refs.get(name, [])):
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, f"public names only the unit tests use: {unused}"
