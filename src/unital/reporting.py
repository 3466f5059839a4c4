"""Machine-readable reports for the command surface.

A report is the command echo, a digest of the canonicalized input, a list
of named checks with witnesses, and result tables.  Everything except the
timing field is deterministic for a fixed input and enters the report
digest; timing is kept outside the checked body.

``HANDLERS`` maps each command to the input kinds it accepts and the
handler that fills the report for that kind.
"""

from __future__ import annotations

import hashlib
import time
from types import SimpleNamespace

from .abelian import CapExceeded
from .cech import (
    cech_nerve,
    classify_h0,
    point_cover,
    torsor_classes,
    unit_cocycles,
)
from .complexes import (
    Complex2,
    homology,
    identity_model,
    is_quasi_isomorphism,
    kernel_model,
    kernel_sum_model,
    sum_model,
    unit_complex_1,
    unit_complex_2,
)
from .crossed import (
    MAX_CODED_ORDER,
    enumerate_unit_triples,
    enumerate_units_nonabelian,
    h0_group_law,
    identity_triple,
    pi0_order,
    pi1_order,
    unit_crossed_module,
    verify_crossed_module,
)
from .point_models import (
    PicardModel1,
    PicardModel2,
    count_unit_morphisms_1,
    enumerate_units_1,
    enumerate_units_2,
    verify_contractible_1,
    verify_contractible_2,
)
from .specfile import ComplexSpecFile, SpecError
from .verification import Report


def _check_caps(spec):
    if spec.kind == "crossed_module":  # its tables are capped when parsed
        return
    X = spec.payload
    for G in map(X.group_at, X.degrees):
        # every group a command accepts can be table-coded for enumeration
        if G.is_finite and G.order() > MAX_CODED_ORDER:
            raise CapExceeded(
                f"group of order {G.order()} exceeds the cap {MAX_CODED_ORDER}")


def _homology_table(X):
    return {str(d): homology(X, d) for d in X.degrees}


def _nerve(opts):
    """The nerve of the --nerve cover, else of the input's, else a point."""
    try:
        return cech_nerve(opts.cover or point_cover())
    except ValueError as exc:  # faces the cover's containments cannot resolve
        raise SpecError(f"nerve: {exc}") from None


# --------------------------------------------------------------------------
# handlers: each fills ``report`` from the payload X and the run's options


def _homology(report, X, opts):
    report.data["homology"] = _homology_table(X)
    report.add("complex is well formed", True)


def _units_1(report, X, opts):
    model = PicardModel1(X)
    units = enumerate_units_1(model)
    report.data["units"] = [u.key() for u in units]
    morphisms = count_unit_morphisms_1(model)
    report.data["unique_morphisms"] = morphisms
    report.add("unit count equals |A|", len(units) == X.A.order(), len(units))
    report.add("one morphism per ordered pair", morphisms == len(units) ** 2,
               morphisms)


def _units_2(report, X, opts):
    units = enumerate_units_2(PicardModel2(X))
    report.data["units"] = [u.key() for u in units]
    report.add("unit count equals |B|", len(units) == X.B.order(), len(units))


def _contractible_1(report, X, opts):
    report.merge(verify_contractible_1(PicardModel1(X),
                                       max_states=opts.max_states))


def _contractible_2(report, X, opts):
    report.merge(verify_contractible_2(PicardModel2(X),
                                       max_states=opts.max_states))


def _unit_complex(report, X, opts):
    U = unit_complex_1(X)[0] if isinstance(X, Complex2) else unit_complex_2(X)
    report.data["terms"] = {str(d): U.group_at(d) for d in U.degrees}
    table = _homology_table(U)
    report.data["homology"] = table
    if opts.check_acyclic:
        for d, H in table.items():
            report.add(f"homology in degree {d} is trivial", H.is_trivial, H)
    else:
        report.add("unit complex computed", True)


def _qiso(report, X, opts):
    if isinstance(X, Complex2):
        builders = {"idA": identity_model, "idker": kernel_model}
    else:
        builders = {"idA": sum_model, "idker": kernel_sum_model}
    for name in (opts.against,) if opts.against else tuple(builders):
        if name not in builders:
            raise SpecError(f"against: unknown model {name!r}")
        _, mor = builders[name](X)
        res = is_quasi_isomorphism(mor)
        report.add(f"comparison with {name} is a quasi-isomorphism",
                   res.is_qiso)
        report.data[f"induced_{name}"] = {
            str(d): {"source": g.source, "target": g.target,
                     "matrix": [list(r) for r in g.matrix]}
            for d, g in res.induced.items()}


def _cech_classify(report, X, opts):
    nerve = _nerve(opts)
    report.data["nerve_levels"] = [len(nerve.level(n)) for n in range(4)]
    if isinstance(X, Complex2):
        tc = torsor_classes(nerve, X, max_states=opts.max_states)
        report.data["torsor_classes"] = tc.count
        classes, group = unit_cocycles(nerve, X, max_states=opts.max_states)
        report.data["unit_cocycle_classes"] = len(classes)
        report.data["unit_class_group"] = group
        report.add("unit cocycles form a single class", len(classes) == 1,
                   len(classes))
        report.add("unit class group is trivial", group.is_trivial, group)
        U, _ = unit_complex_1(X)
    else:
        U = unit_complex_2(X)
    h0u = classify_h0(nerve, U)
    report.data["h0_of_unit_complex"] = h0u
    report.add("classification group of the unit complex is trivial",
               h0u.is_trivial, h0u)
    report.data["h0_of_coefficients"] = classify_h0(nerve, X)


def _crossed_verify(report, X, opts):
    report.merge(verify_crossed_module(X))


def _crossed_units(report, X, opts):
    axioms = verify_crossed_module(X)
    if not axioms.passed:  # no unit module or descent data to build
        report.checks += axioms.failures
        return
    units, rep = enumerate_units_nonabelian(X)
    report.data["units"] = [u.key() for u in units]
    report.merge(rep)
    U = unit_crossed_module(X)
    report.merge(verify_crossed_module(U), prefix="unit module: ")
    report.add("unit module has trivial pi0", pi0_order(U) == 1, pi0_order(U))
    report.add("unit module has trivial pi1", pi1_order(U) == 1, pi1_order(U))
    nerve = _nerve(opts)
    triples = enumerate_unit_triples(X, nerve, max_states=opts.max_states)
    ident = identity_triple(X, nerve)
    ok = all(h0_group_law(t, ident, nerve).key() == t.key() for t in triples)
    report.add("descent triples: (1,1,1) is the identity", ok, len(triples))


_COMPLEXES = ("complex2", "complex3")
HANDLERS = {
    "homology": dict.fromkeys(_COMPLEXES, _homology),
    "units": {"complex2": _units_1, "complex3": _units_2},
    "contractible": {"complex2": _contractible_1, "complex3": _contractible_2},
    "unit-complex": dict.fromkeys(_COMPLEXES, _unit_complex),
    "qiso": dict.fromkeys(_COMPLEXES, _qiso),
    "cech-classify": dict.fromkeys(_COMPLEXES, _cech_classify),
    "crossed-verify": {"crossed_module": _crossed_verify},
    "crossed-units": {"crossed_module": _crossed_units},
}
COMMANDS = tuple(HANDLERS)


def run(command, spec: ComplexSpecFile, cover=None, max_states=10 ** 7,
        against=None, check_acyclic=False) -> Report:
    """Execute one command against a parsed input; returns the report."""
    if command not in HANDLERS:
        raise SpecError(f"command: unknown command {command!r}")
    _check_caps(spec)
    handlers = HANDLERS[command]
    if spec.kind not in handlers:
        raise SpecError(f"kind: command {command!r} needs one of "
                        f"{tuple(handlers)}, got {spec.kind!r}")
    started = time.monotonic()
    report = Report(command,
                    hashlib.sha256(spec.canonical_text().encode()).hexdigest())
    handlers[spec.kind](report, spec.payload, SimpleNamespace(
        cover=cover or spec.cover, max_states=max_states, against=against,
        check_acyclic=check_acyclic))
    report.timing_seconds = time.monotonic() - started
    return report
