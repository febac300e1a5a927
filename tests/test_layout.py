"""The library holds only what the package, the benchmark or the acceptance
criteria use: every public name in ``src/gcms`` has a caller outside the
unit tests, every public dataclass field has a reader, and every parameter
with a default is set by some call and left out by another.

A top-level name counts as referenced only where the reference resolves to
its module: a bare name inside the module itself, ``from .m import name``
or ``from gcms.m import name``, an attribute on an alias of the module
(``th.z_n`` after ``from gcms import thermo as th``), or a dotted string
``"m.name"``, which is how the benchmark's tracer names what it wraps.
A method counts as referenced only through an attribute access
``<expr>.name`` or a string constant equal to its name (the tracer's
``METHODS`` tuples); a bare name, an import alias or a dotted string is a
top-level name's reference, not a method's.  The receiver of ``obj.n`` is
not resolved, so it counts for every method named ``n``.  A field counts
where an attribute of its name is read.  A parameter counts as set where a
call of its function's name (its method's attribute name; its class's name
for ``__init__``) passes it by keyword, by position or through ``*``/``**``,
and its default counts as relied on where such a call does none of these.

A module of ``src/gcms`` reads no underscore name of another gcms module,
neither through ``from .m import _x`` nor as ``alias._x``: a name that two
modules share is public.

What differs between matrix kinds lives in ``matrices.KINDS``; a switch on
a kind's name stays at the sites named in ``KIND_SWITCHES``: a comparison
of ``<expr>.kind``, a table looked up by it (``<x>.get(<expr>.kind)`` or
``<x>[<expr>.kind]``), or a matrix named by a literal,
``by_kind("<name>")``.  numpy is imported only by the modules in
``NUMPY_MODULES``, a set that may shrink and may not grow.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gcms"
MODULES = frozenset(p.stem for p in SRC.glob("*.py"))
CALLERS = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py")),
           ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level definition and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _gcms_module(dotted: str | None) -> str | None:
    """``m`` for ``gcms.m``, "" for ``gcms`` itself, None outside the package."""
    package, _, module = (dotted or "").partition(".")
    return module if package == "gcms" else None


def _source_module(node: ast.ImportFrom) -> str | None:
    """The gcms module a ``from`` import reads: "" for the package, None outside it."""
    return (node.module or "") if node.level == 1 else _gcms_module(node.module)


def _module_references(path: Path, tree: ast.Module):
    """((module, name), line) of every reference in a file that resolves to
    a top-level name of a gcms module."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (src := _source_module(node)) is not None:
            for a in node.names:
                if src:
                    yield (src, a.name), node.lineno
                elif a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            aliases.update((a.asname, _gcms_module(a.name)) for a in node.names
                           if a.asname and _gcms_module(a.name) in MODULES)
    own = path.stem if path.parent == SRC else None
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and own:
            yield (own, node.id), node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield (aliases[node.value.id], node.attr), node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value) and "." in node.value
              and node.value.split(".")[0] in MODULES):
            yield tuple(node.value.split(".")[:2]), node.lineno


def _method_references(tree: ast.Module):
    """(identifier, line) of every attribute access and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _trees(paths):
    return {path: ast.parse(path.read_text()) for path in paths}


def test_every_public_name_has_a_caller():
    trees = _trees(CALLERS)
    refs: dict[object, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for key, line in (*_module_references(path, tree), *_method_references(tree)):
            refs.setdefault(key, []).append((path, line))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _public_definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("_"):
                continue
            key = name if "." in qualname else (path.stem, name)
            # a reference inside the definition itself is no caller
            if not any(not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, line in refs.get(key, [])):
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, f"public names only the unit tests use: {unused}"


def test_no_module_reads_another_modules_private_names():
    reads = sorted(f"{path.stem}:{line} reads {module}.{name}"
                   for path, tree in _trees(sorted(SRC.glob("*.py"))).items()
                   for (module, name), line in _module_references(path, tree)
                   if module != path.stem and name.startswith("_")
                   and not name.startswith("__"))
    assert not reads, f"private names read across modules: {reads}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    trees = _trees(CALLERS)
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.name}.{item.target.id}"
              for path in sorted(SRC.glob("*.py")) for cls in trees[path].body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and not item.target.id.startswith("_") and item.target.id not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def _optional_parameters(tree: ast.Module):
    """((name, is_method), parameter, positional index or None) of every
    parameter with a default on a top-level function or a method.  An
    ``__init__`` or ``__new__`` is keyed as its class is called, and a
    method's positional index does not count ``self`` or ``cls``."""
    defs = [((node.name, False), 0, node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [((cls.name, False) if sub.name in ("__init__", "__new__") else (sub.name, True),
              1, sub)
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for sub in cls.body if isinstance(sub, ast.FunctionDef)]
    for key, skip, node in defs:
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, p in enumerate(positional[first:], first):
            yield key, p.arg, i - skip
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield key, p.arg, None


def _calls_by_name() -> dict[tuple[str, bool], list[ast.Call]]:
    """Every call in ``CALLERS``, keyed as ``_optional_parameters`` keys a
    definition: a call ``obj.n(...)`` counts for a function and a method
    named ``n``."""
    calls: dict[tuple[str, bool], list[ast.Call]] = {}
    for tree in _trees(CALLERS).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    calls.setdefault((f.id, False), []).append(node)
                elif isinstance(f, ast.Attribute):
                    calls.setdefault((f.attr, False), []).append(node)
                    calls.setdefault((f.attr, True), []).append(node)
    return calls


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` may pass the parameter: by keyword, through ``*`` or
    ``**``, or with enough positional arguments to reach it."""
    return (any(k.arg in (param, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or index is not None and index < len(call.args))


def _defaults_failing(check) -> list[str]:
    """The defaulted parameters whose calls fail ``check(calls, param, index)``."""
    calls = _calls_by_name()
    return [f"{path.stem}.{key[0]}({param})"
            for path in sorted(SRC.glob("*.py"))
            for key, param, index in _optional_parameters(ast.parse(path.read_text()))
            if not check(calls.get(key, []), param, index)]


def test_every_optional_parameter_is_set():
    unset = _defaults_failing(lambda calls, param, index:
                            any(_sets(c, param, index) for c in calls))
    assert not unset, f"optional parameters no caller sets: {unset}"


def test_every_default_is_relied_on():
    # the dual: some call plainly leaves the parameter out, so its default is used
    unused = _defaults_failing(lambda calls, param, index:
                             any(not _sets(c, param, index) for c in calls))
    assert not unused, f"defaults no caller relies on: {unused}"


# function -> number of switches on a kind in it
KIND_SWITCHES = {"thermo.gurevich_pressure": 1, "thermo.jn_tn": 1, "measures._matrix": 1,
                 "verification.pressure_suite": 1,
                 # lookups: the measures a kind has, and the renewal log-ratio series
                 "measures._phase_picture": 1, "thermo.first_return_rows": 1}


def _is_kind(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "kind"


def _is_kind_switch(node: ast.AST) -> bool:
    """A comparison of ``<expr>.kind``, a lookup ``<x>.get(<expr>.kind)`` or
    ``<x>[<expr>.kind]``, or a matrix named by a literal, ``by_kind("<name>")``."""
    if isinstance(node, ast.Compare):
        return any(map(_is_kind, (node.left, *node.comparators)))
    if isinstance(node, ast.Subscript):
        return _is_kind(node.slice)
    if isinstance(node, ast.Call) and node.args:
        f, arg = node.func, node.args[0]
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        return (name == "get" and _is_kind(arg)
                or name == "by_kind" and isinstance(arg, ast.Constant)
                and isinstance(arg.value, str))
    return False


def _kind_switches(tree: ast.AST, scope: str):
    """The enclosing qualified name of every switch on a kind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _kind_switches(node, f"{scope}.{node.name}")
        else:
            yield from (scope for sub in ast.walk(node) if _is_kind_switch(sub))


def test_kind_switches_stay_at_the_known_sites():
    found: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        for site in _kind_switches(ast.parse(path.read_text()), path.stem):
            found[site] = found.get(site, 0) + 1
    assert found == KIND_SWITCHES, "a switch on a kind name belongs in matrices.KINDS"


# the modules of src/gcms that import numpy
NUMPY_MODULES = {"matrices", "verification"}


def _imports_numpy(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.Import) and any(
                   a.name.partition(".")[0] == "numpy" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module or "").partition(".")[0] == "numpy"
               for node in ast.walk(tree))


def test_numpy_stays_in_the_modules_that_import_it():
    found = {path.stem for path in SRC.glob("*.py")
             if _imports_numpy(ast.parse(path.read_text()))}
    assert found == NUMPY_MODULES


def _unit_constants(tree: ast.AST):
    """The line of every call ``Constant(1.0)`` or ``Constant(-1.0)``, by
    name or as ``<alias>.Constant``, whatever the spelling of the number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name == "Constant":
                for arg in (*node.args, *(k.value for k in node.keywords)):
                    try:
                        value = ast.literal_eval(arg)
                    except ValueError:
                        continue
                    if value in (1, -1):
                        yield node.lineno


def test_the_unit_potential_is_written_once():
    # thermo.UNIT_POTENTIAL is the unit potential, and measures.negate gives
    # its weight -1: no other module spells either as a literal
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py")) if path.stem != "thermo"
             for line in _unit_constants(ast.parse(path.read_text()))]
    assert not found, f"unit potentials written as literals: {found}"
