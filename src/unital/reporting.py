"""Machine-readable reports for the command surface.

A report is the command echo, a digest of the canonicalized input, a list
of named checks with witnesses, and result tables.  Everything except the
timing field is deterministic for a fixed input and enters the report
digest; timing is kept outside the checked body.

``HANDLERS`` maps each command to the input kinds it accepts and the
handler that fills the report for that kind.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from . import cech, complexes, covers, crossed, point_models
from .specfile import ComplexSpecFile, SpecError, _built
from .verification import (
    MAX_CODED_ORDER, MAX_STATES, CapExceeded, Report, charge, sha256)


def _check_caps(spec):
    if spec.kind == "crossed_module":  # its tables are capped when parsed
        return
    for G in spec.payload.terms:
        # every group a command accepts can be table-coded for enumeration
        if G.is_finite and G.order() > MAX_CODED_ORDER:
            bits = G.order().bit_length()
            # str() refuses integers past the interpreter's digit limit,
            # which is never below 640 digits
            order = G.order() if bits <= 1024 else f"at least 2^{bits - 1}"
            raise CapExceeded(
                f"group of order {order} exceeds the cap {MAX_CODED_ORDER}")


def _homology_table(X):
    return {str(d): complexes.homology(X, d) for d in X.degrees}


def _nerve(opts):
    """The nerve of the --nerve cover, else of the input's, else a point."""
    # cech_nerve refuses faces the cover's containments cannot resolve
    return _built("nerve", cech.cech_nerve,
                  opts.cover or covers.point_cover())


# --------------------------------------------------------------------------
# handlers: each fills ``report`` from the payload X and the run's options


def _homology(report, X, opts):
    report.data["homology"] = _homology_table(X)
    report.add("complex is well formed", True)


def _order(G):
    """|G| for a unit scan's charge; an infinite G charges nothing here
    and is refused by the scan itself."""
    return G.order() if G.is_finite else 0


def _units_1(report, X, opts):
    # the morphism count scans every ordered pair of units
    A = X.terms[0]
    charge("unit scan", _order(A) ** 2, "|A|^2", opts.max_states)
    units, morphisms = point_models.units_and_morphism_count_1(X)
    report.data["units"] = units
    report.data["unique_morphisms"] = morphisms
    report.add("unit count equals |A|", len(units) == A.order(), len(units))
    report.add("one morphism per ordered pair", morphisms == len(units) ** 2,
               morphisms)


def _units_2(report, X, opts):
    B = X.terms[1]
    charge("unit scan", _order(B), "|B|", opts.max_states)
    units = point_models.enumerate_units_2(X)
    report.data["units"] = units
    report.add("unit count equals |B|", len(units) == B.order(), len(units))


def _contractible_1(report, X, opts):
    report.merge(point_models.verify_contractible_1(
        X, max_states=opts.max_states))


def _contractible_2(report, X, opts):
    report.merge(point_models.verify_contractible_2(
        X, max_states=opts.max_states))


def _unit_complex(report, U, opts):
    report.data["terms"] = {str(d): U.group_at(d) for d in U.degrees}
    table = _homology_table(U)
    report.data["homology"] = table
    if opts.check_acyclic:
        for d, H in table.items():
            report.add(f"homology in degree {d} is trivial", H.is_trivial, H)
    else:
        report.add("unit complex computed", True)


def _unit_complex_1(report, X, opts):
    _unit_complex(report, complexes.unit_complex_1(X)[0], opts)


def _unit_complex_2(report, X, opts):
    _unit_complex(report, complexes.unit_complex_2(X)[0], opts)


def _qiso(report, X, opts, builders):
    for name in (opts.against,) if opts.against else tuple(builders):
        if name not in builders:
            raise SpecError(f"against: unknown model {name!r}")
        _, mor = builders[name](X)
        res = complexes.is_quasi_isomorphism(mor)
        report.add(f"comparison with {name} is a quasi-isomorphism",
                   res.is_qiso)
        report.data[f"induced_{name}"] = {
            str(d): {"source": g.source, "target": g.target,
                     "matrix": [list(r) for r in g.matrix]}
            for d, g in res.induced.items()}


def _qiso_1(report, X, opts):
    _qiso(report, X, opts, {"idA": complexes.identity_model,
                            "idker": complexes.kernel_model})


def _qiso_2(report, X, opts):
    _qiso(report, X, opts, {"idA": complexes.sum_model,
                            "idker": complexes.kernel_sum_model})


def _recorded_nerve(report, opts):
    """``_nerve(opts)``, with the sizes of its levels in the report."""
    nerve = _nerve(opts)
    report.data["nerve_levels"] = [len(nerve.level(n)) for n in range(4)]
    return nerve


def _classify(report, nerve, X, U):
    h0u = cech.classify_h0(nerve, U)
    report.data["h0_of_unit_complex"] = h0u
    report.add("classification group of the unit complex is trivial",
               h0u.is_trivial, h0u)
    report.data["h0_of_coefficients"] = cech.classify_h0(nerve, X)


def _cech_classify_1(report, X, opts):
    nerve = _recorded_nerve(report, opts)
    # the torsor scan is charged before any Smith form
    tc = cech.torsor_classes(nerve, X, max_states=opts.max_states)
    report.data["torsor_classes"] = tc.count
    U, _ = complexes.unit_complex_1(X)
    classes, group = cech.unit_cocycles(nerve, U, max_states=opts.max_states)
    report.data["unit_cocycle_classes"] = len(classes)
    report.data["unit_class_group"] = group
    report.add("unit cocycles form a single class", len(classes) == 1,
               len(classes))
    report.add("unit class group is trivial", group.is_trivial, group)
    _classify(report, nerve, X, U)


def _cech_classify_2(report, X, opts):
    nerve = _recorded_nerve(report, opts)
    _classify(report, nerve, X, complexes.unit_complex_2(X)[0])


def _crossed_verify(report, X, opts):
    report.merge(crossed.verify_crossed_module(X))


def _crossed_units(report, X, opts):
    """Units of X and their contractibility, the axioms and homotopy groups
    of the unit module U, and the identity law of the descent triples over
    the nerve, checked on the tables (``crossed.descent_identity_check``).
    X's axioms are checked once, by the guard of ``unit_crossed_module``;
    only when it refuses X are they checked again, to name the failures."""
    try:  # its guard is the one axiom check of X
        U = crossed.unit_crossed_module(X)
    except ValueError:  # name the failed axioms; nothing more to build
        axioms = crossed.verify_crossed_module(X)
        if axioms.passed:
            raise
        report.checks += axioms.failures
        return
    units, rep = crossed.enumerate_units_nonabelian(X)
    report.data["units"] = units
    report.merge(rep)
    report.merge(crossed.verify_crossed_module(U), prefix="unit module: ")
    pi0, pi1 = crossed.pi0_order(U), crossed.pi1_order(U)
    report.add("unit module has trivial pi0", pi0 == 1, pi0)
    report.add("unit module has trivial pi1", pi1 == 1, pi1)
    holds, count = crossed.descent_identity_check(
        X, _nerve(opts), max_states=opts.max_states)
    report.add("descent triples: (1,1,1) is the identity", holds, count)


HANDLERS = {
    "homology": dict.fromkeys(("complex2", "complex3"), _homology),
    "units": {"complex2": _units_1, "complex3": _units_2},
    "contractible": {"complex2": _contractible_1, "complex3": _contractible_2},
    "unit-complex": {"complex2": _unit_complex_1, "complex3": _unit_complex_2},
    "qiso": {"complex2": _qiso_1, "complex3": _qiso_2},
    "cech-classify": {"complex2": _cech_classify_1,
                      "complex3": _cech_classify_2},
    "crossed-verify": {"crossed_module": _crossed_verify},
    "crossed-units": {"crossed_module": _crossed_units},
}
COMMANDS = tuple(HANDLERS)


def run(command, spec: ComplexSpecFile, cover=None, max_states=MAX_STATES,
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
    digest = sha256(spec.canonical_text().encode()).hexdigest()
    report = Report(command, digest)
    handlers[spec.kind](report, spec.payload, SimpleNamespace(
        cover=cover or spec.cover, max_states=max_states, against=against,
        check_acyclic=check_acyclic))
    report.timing_seconds = time.monotonic() - started
    return report
