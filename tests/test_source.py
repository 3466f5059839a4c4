"""Static checks over the library source."""

import ast
import re
from pathlib import Path

import unital

SRC = Path(__file__).resolve().parent.parent / "src" / "unital"


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # `python -O` strips asserts, so library invariants must raise explicitly;
    # and an AssertionError is no named check, so nor may they raise that
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert) or isinstance(node, ast.Raise)
             and node.exc is not None and _raises_assertion_error(node)]
    assert not found, f"asserts or AssertionErrors in src/unital: {found}"


LAYERS = unital._LAYERS
LAZY = set(LAYERS)


def _imports(path):
    """The unital modules a source file imports names from, and those it
    binds as modules."""
    by_name, as_module = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("unital")):
            module = (node.module or "").removeprefix("unital").lstrip(".")
            if module:
                by_name.add(module.split(".")[0])
            else:
                as_module.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            as_module.update(alias.name.split(".")[1] for alias in node.names
                             if alias.name.startswith("unital."))
    return by_name, as_module


def test_no_name_imports_from_lazy_modules():
    # `from .cech import x` executes cech; the modules every command
    # imports bind the lazy ones as modules and look names up when called
    found = [f"{path.name} from {module}"
             for path in sorted(SRC.glob("*.py")) if path.stem not in LAZY
             for module in _imports(path)[0] & LAZY]
    assert not found, f"names imported from lazy modules: {found}"


def test_lazy_modules_import_only_lower_layers():
    # each lazy module imports the lazy modules its _LAYERS row lists, no
    # more and no fewer, and those it imports names from are lower layers
    found = []
    for rank, (stem, (by_name, as_module)) in enumerate(LAYERS.items()):
        names, modules = (got & LAZY for got in _imports(SRC / f"{stem}.py"))
        if (names, modules - names) != (set(by_name), set(as_module)):
            found.append(f"{stem} imports names from {sorted(names)} and "
                         f"modules {sorted(modules - names)}")
        found += [f"{stem} imports names from higher layer {module}"
                  for module in by_name if module not in list(LAYERS)[:rank]]
    assert not found, f"imports off the layer table: {found}"


def test_parsing_binds_only_the_value_layers():
    # every input is parsed, so a computation layer that specfile binds
    # would be compiled by every command that reaches it, whether it runs
    # that layer or not
    found = set().union(*_imports(SRC / "specfile.py")) & LAZY - \
        {"groups", "tables", "covers"}
    assert not found, f"specfile binds computation layers {sorted(found)}"


def _layer_sentence(text, quote):
    """The modules a document names, in order, before `as lazy modules`."""
    sentence = next(s for s in re.split(r"(?<=\.) ", " ".join(text.split()))
                    if "as lazy modules" in s).split("as lazy modules")[0]
    return re.findall(rf"{quote}(\w+){quote}", sentence)


def test_docs_name_the_layers_in_table_order():
    # README's layer paragraph and the package docstring list the lazy
    # modules as _LAYERS registers them
    readme = (SRC.parent.parent / "README.md").read_text()
    assert _layer_sentence(readme, "`") == list(LAYERS)
    assert _layer_sentence(unital.__doc__, "``") == list(LAYERS)


def test_parses_as_python_3_10():
    # the requires-python floor; a newer-only syntax would break its users
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_records_not_dataclasses():
    # importing dataclasses costs every command `inspect` and generated
    # code; and Record.__init__ is what runs __post_init__, so on any other
    # class that validation would be skipped without an error
    imports, unchecked = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "dataclasses" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) \
                    and node.module == "dataclasses":
                imports.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                    for f in node.body) and not any(
                    isinstance(b, ast.Name) and b.id == "Record"
                    for b in node.bases):
                unchecked.append(f"{path.name}:{node.name}")
    assert not imports, f"dataclasses imported in src/unital: {imports}"
    assert not unchecked, f"__post_init__ outside a Record: {unchecked}"


def test_records_are_the_one_value_record():
    # importing typing costs a verdict milliseconds, and a NamedTuple or
    # namedtuple is a second kind of value record beside Record
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "typing" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) \
                    and (node.module or "").split(".")[0] == "typing" \
                    or isinstance(node, (ast.Name, ast.Attribute)) \
                    and getattr(node, "id", getattr(node, "attr", None)) \
                    in ("namedtuple", "NamedTuple"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"typing or named tuples in src/unital: {found}"


def test_only_cli_touches_the_collector():
    # the collector and the exit hooks are the process's, not the library's:
    # cli.main, which owns the process it runs in, freezes the heap at exit,
    # and no module a library caller imports may change either
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Import) and any(
                 a.name in ("gc", "atexit") for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and node.module in ("gc", "atexit")]
    assert not found, f"gc or atexit imported outside cli.py: {found}"


def _names_max_states(node):
    return any(isinstance(n, ast.Name) and n.id == "max_states"
               or isinstance(n, ast.Attribute) and n.attr == "max_states"
               for n in ast.walk(node))


def test_state_cap_compared_only_in_charge():
    # one cap policy: every scan hands its count to verification.charge,
    # so no other code compares anything with max_states
    found, in_charge = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        charge = {id(n) for f in tree.body if path.stem == "verification"
                  and isinstance(f, ast.FunctionDef) and f.name == "charge"
                  for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and _names_max_states(node):
                if id(node) in charge:
                    in_charge += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, \
        f"max_states compared outside verification.charge: {found}"
    assert in_charge == 1


# GroupElem, which abelian re-exports from groups for perfbench's tracer
REEXPORTS = {"abelian": {"GroupElem"}}


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in sorted(imported.items())
                  if name not in used | REEXPORTS.get(path.stem, set())]
    assert not found, f"unused imports in src/unital: {found}"


def _builds_an_element(node):
    """A call of GroupElem, of an ``element`` or ``generator`` method, or
    of ``zero`` with no arguments (``FgAbGroup.zero``; ``GroupHom.zero``
    takes its endpoints)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = getattr(func, "id", getattr(func, "attr", None))
    return name == "GroupElem" or isinstance(func, ast.Attribute) and (
        name in ("element", "generator")
        or name == "zero" and not node.args and not node.keywords)


def test_only_groups_builds_element_objects():
    # the algebra computes on coordinate tuples; GroupElem is value API
    # that groups defines, not a second value form for the computing paths
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.stem != "groups"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _builds_an_element(node)]
    assert not found, f"element objects built outside groups: {found}"
