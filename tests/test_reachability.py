"""Every library function serves a command.

Presentation 0 of every corpus slot of the three benchmark workloads runs
through ``cli.main`` in process, once with ``--json`` and once with
``--text``, under ``sys.setprofile``.  Every function and method defined
in ``src/unital`` must then have been called, or be listed in
``UNREACHED`` with the reason no command calls it.  So a library function
that only tests use fails here: it belongs with the tests.  Nothing under
``perfbench/`` is written.
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import unital
from unital.cli import main

from test_golden_digests import _corpus

PACKAGE = Path(unital.__file__).resolve().parent

VALUE_API = "value-type API: building, printing or hashing a value"
PERFBENCH_PIN = "perfbench binds or times it by name"
EPOCH_B = "epoch-B check candidate (ROADMAP items 7, 8, 9, 11 and 12)"
QISO = "qiso's check path: runs only when a model is not a quasi-isomorphism"
FAILING = "runs only when a check fails"
IMPORT_TIME = "called at import time, before any command runs"
EXPORTS = "the package's lazy export table, for `from unital import name`"
NAMED_COVER = ("names the parts of a cover with containments or of a "
               "refused one, and the corpus has neither")
FALLBACK = ("argparse's parser: only a command line that cli._parse "
            "declines gets here")

UNREACHED = {
    "__init__.__dir__": EXPORTS,
    "__init__.__getattr__": EXPORTS,
    "__init__._lazy": IMPORT_TIME,
    "abelian.smith_normal_form": PERFBENCH_PIN,
    "abelian.solve": EPOCH_B,
    "cech.CocycleError.__init__": FAILING,
    "cech._group_from_orders.killed": FAILING,
    "cech._unit_frame": EPOCH_B,
    "cech.cocycle_of_unit": EPOCH_B,
    "cech.unit_of_cocycle": EPOCH_B,
    "complexes.HomologyData._solver": QISO,
    "complexes.HomologyData.classify": QISO,
    "complexes.HomologyData.representative": QISO,
    "complexes.StrictMorphism.identity": EPOCH_B,
    "complexes.cone": EPOCH_B,
    "complexes.cone_comparison": EPOCH_B,
    "complexes.is_complex_isomorphism": EPOCH_B,
    "complexes.sum_model": PERFBENCH_PIN,
    "complexes.truncate_shift": EPOCH_B,
    "console._build_parser": FALLBACK,
    "console._build_parser.state_cap": FALLBACK,
    "covers.Cover._named": NAMED_COVER,
    "covers.Nerve.__str__": VALUE_API,
    "crossed.h0_group_law": PERFBENCH_PIN,
    "groups.Complex.__str__": VALUE_API,
    "groups.FgAbGroup.__repr__": VALUE_API,
    "groups.FgAbGroup.cyclic": VALUE_API,
    "groups.FgAbGroup.elements": PERFBENCH_PIN,
    "groups.FgAbGroup.free": VALUE_API,
    "groups.FgAbGroup.trivial": IMPORT_TIME,
    "groups.GroupElem.__add__": PERFBENCH_PIN,
    "groups.GroupElem.__neg__": PERFBENCH_PIN,
    "groups.GroupElem.__post_init__": VALUE_API,
    "groups.GroupElem.__sub__": PERFBENCH_PIN,
    "groups.GroupElem._check": VALUE_API,
    "groups.GroupHom.__call__": PERFBENCH_PIN,
    "groups.GroupHom.__str__": VALUE_API,
    "record.Record.__delattr__": VALUE_API,
    "record.Record.__hash__": VALUE_API,
    "record.Record.__init_subclass__": IMPORT_TIME,
    "record.Record.__repr__": VALUE_API,
    "record.Record.__setattr__": VALUE_API,
    "record.Record._bind": VALUE_API,
    "tables.FiniteGroup.cyclic": VALUE_API,
    "tables.FiniteGroup.mul": PERFBENCH_PIN,
    "tables.FiniteGroup.symmetric": PERFBENCH_PIN,
    "tables.FiniteGroup.symmetric.mul": PERFBENCH_PIN,
    "tables.FiniteGroup.trivial": VALUE_API,
    "verification.Report.digest": PERFBENCH_PIN,
    "verification.Report.failures": FAILING,
}


def _definitions():
    """{(file, first line of the code object): qualified name} for every
    function and method in the package; a decorated function's code
    starts at its first decorator."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, path.stem)
    return defs


def _reached(tmp_path):
    """(file, first line) of every code object called while the corpus
    runs through the CLI."""
    for name in unital.__all__:  # execute every lazy module beforehand
        getattr(unital, name)
    corpus = _corpus()
    items = [item for workload in corpus.WORKLOADS
             for item in corpus.all_variants(workload)
             if item["variant"] == 0]
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for k, item in enumerate(items):
            path = tmp_path / f"{k}.json"
            path.write_text(item["spec"])
            for fmt in ("--json", "--text"):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main([item["command"], "--in", str(path), fmt,
                          *item["args"]])
    finally:
        sys.setprofile(None)
    return len(items), {(os.path.realpath(f), line) for f, line in calls}


def test_every_library_function_is_reached_by_a_command(tmp_path):
    runs, reached = _reached(tmp_path)
    assert runs == 68
    unreached = {name for key, name in _definitions().items()
                 if key not in reached}
    assert not unreached - set(UNREACHED), \
        f"reached by no command: {sorted(unreached - set(UNREACHED))}"
    assert not set(UNREACHED) - unreached, \
        f"reached, or gone; drop from UNREACHED: " \
        f"{sorted(set(UNREACHED) - unreached)}"
