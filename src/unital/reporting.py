"""Machine-readable reports for the command surface.

A report is the command echo, a digest of the canonicalized input, a list
of named checks with witnesses, and result tables.  Everything except the
timing field is deterministic for a fixed input and enters the report
digest; timing is kept outside the checked body.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from .abelian import CapExceeded, FgAbGroup
from .cech import (
    cech_nerve,
    classify_h0,
    cocycle_of_unit,
    point_cover,
    torsor_classes,
    unit_cocycles,
)
from .complexes import (
    Complex2,
    Complex3,
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

COMMANDS = ("homology", "units", "contractible", "unit-complex", "qiso",
            "cech-classify", "crossed-verify", "crossed-units")


def _check_caps(spec):
    payload = spec.payload
    groups = ()
    if spec.kind == "complex2":
        groups = (payload.A, payload.B)
    elif spec.kind == "complex3":
        groups = (payload.A, payload.B, payload.C)
    for G in groups:
        # every group a command accepts can be table-coded for enumeration
        if G.is_finite and G.order() > MAX_CODED_ORDER:
            raise CapExceeded(
                f"group of order {G.order()} exceeds the cap {MAX_CODED_ORDER}")


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, FgAbGroup):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


@dataclass
class Report:
    command: str
    input_digest: str
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    timing_seconds: float = 0.0

    def add_check(self, name, passed, witness=None):
        self.checks.append({"name": name,
                            "status": "pass" if passed else "fail",
                            "witness": _jsonable(witness)})

    def merge(self, verification, prefix=""):
        for c in verification.checks:
            self.add_check(prefix + c.name, c.passed, c.witness)

    @property
    def passed(self):
        return all(c["status"] == "pass" for c in self.checks)

    def body(self):
        return {"command": self.command,
                "input_digest": self.input_digest,
                "checks": self.checks,
                "data": _jsonable(self.data)}

    def digest(self):
        text = json.dumps(self.body(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def to_json(self):
        out = self.body()
        out["schema"] = "unital-report/1"
        out["report_digest"] = self.digest()
        out["timing"] = {"seconds": self.timing_seconds}
        return json.dumps(out, sort_keys=True, indent=2)

    def to_text(self):
        lines = [f"unital {self.command}",
                 f"input digest {self.input_digest[:16]}"]
        for c in self.checks:
            line = f"  {c['status'].upper():4s} {c['name']}"
            if c["witness"] is not None:
                line += f"  [{c['witness']}]"
            lines.append(line)
        for key, val in self.data.items():
            lines.append(f"  {key}: {json.dumps(_jsonable(val), sort_keys=True)}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        lines.append(f"time: {self.timing_seconds:.3f}s")
        return "\n".join(lines)


def _input_digest(spec: ComplexSpecFile):
    return hashlib.sha256(spec.canonical_text().encode()).hexdigest()


def _require_kind(spec, command, kinds):
    if spec.kind not in kinds:
        raise SpecError(
            f"kind: command {command!r} needs one of {kinds}, got {spec.kind!r}")


def _homology_table(X):
    return {str(d): homology(X, d) for d in X.degrees}


def run(command, spec: ComplexSpecFile, cover=None, max_states=10 ** 7,
        against=None, check_acyclic=False) -> Report:
    """Execute one command against a parsed input; returns the report."""
    if command not in COMMANDS:
        raise SpecError(f"command: unknown command {command!r}")
    _check_caps(spec)
    started = time.monotonic()
    report = Report(command, _input_digest(spec))
    X = spec.payload

    if command == "homology":
        _require_kind(spec, command, ("complex2", "complex3"))
        report.data["homology"] = _homology_table(X)
        report.add_check("complex is well formed", True)

    elif command == "units":
        if spec.kind == "complex2":
            model = PicardModel1(X)
            units = enumerate_units_1(model)
            report.data["units"] = [u.key() for u in units]
            morphisms = count_unit_morphisms_1(model)
            report.data["unique_morphisms"] = morphisms
            report.add_check("unit count equals |A|",
                             len(units) == X.A.order(), len(units))
            report.add_check("one morphism per ordered pair",
                             morphisms == len(units) ** 2, morphisms)
        elif spec.kind == "complex3":
            units = enumerate_units_2(PicardModel2(X))
            report.data["units"] = [u.key() for u in units]
            report.add_check("unit count equals |B|",
                             len(units) == X.B.order(), len(units))
        else:
            _require_kind(spec, command, ("complex2", "complex3"))

    elif command == "contractible":
        if spec.kind == "complex2":
            report.merge(verify_contractible_1(PicardModel1(X),
                                               max_states=max_states))
        elif spec.kind == "complex3":
            report.merge(verify_contractible_2(PicardModel2(X),
                                               max_states=max_states))
        else:
            _require_kind(spec, command, ("complex2", "complex3"))

    elif command == "unit-complex":
        _require_kind(spec, command, ("complex2", "complex3"))
        U = unit_complex_1(X)[0] if spec.kind == "complex2" \
            else unit_complex_2(X)
        report.data["terms"] = {str(d): U.group_at(d) for d in U.degrees}
        table = _homology_table(U)
        report.data["homology"] = table
        if check_acyclic:
            for d, H in table.items():
                report.add_check(f"homology in degree {d} is trivial",
                                 H.is_trivial, H)
        else:
            report.add_check("unit complex computed", True)

    elif command == "qiso":
        _require_kind(spec, command, ("complex2", "complex3"))
        if spec.kind == "complex2":
            builders = {"idA": identity_model, "idker": kernel_model}
        else:
            builders = {"idA": sum_model, "idker": kernel_sum_model}
        chosen = (against,) if against else tuple(builders)
        for name in chosen:
            if name not in builders:
                raise SpecError(f"against: unknown model {name!r}")
            _, mor = builders[name](X)
            res = is_quasi_isomorphism(mor)
            report.add_check(f"comparison with {name} is a quasi-isomorphism",
                             res.is_qiso)
            report.data[f"induced_{name}"] = {
                str(d): {"source": g.source, "target": g.target,
                         "matrix": [list(r) for r in g.matrix]}
                for d, g in res.induced.items()}

    elif command == "cech-classify":
        _require_kind(spec, command, ("complex2", "complex3"))
        nerve = cech_nerve(cover or spec.cover or point_cover())
        report.data["nerve_levels"] = [len(nerve.level(n)) for n in range(4)]
        if spec.kind == "complex2":
            tc = torsor_classes(nerve, X, max_states=max_states)
            report.data["torsor_classes"] = tc.count
            classes, group = unit_cocycles(nerve, X, max_states=max_states)
            report.data["unit_cocycle_classes"] = len(classes)
            report.data["unit_class_group"] = group
            report.add_check("unit cocycles form a single class",
                             len(classes) == 1, len(classes))
            report.add_check("unit class group is trivial", group.is_trivial,
                             group)
            U, _ = unit_complex_1(X)
            h0u = classify_h0(nerve, U)
            report.data["h0_of_unit_complex"] = h0u
            report.add_check("classification group of the unit complex is "
                             "trivial", h0u.is_trivial, h0u)
            report.data["h0_of_coefficients"] = classify_h0(nerve, X)
        else:
            U = unit_complex_2(X)
            h0u = classify_h0(nerve, U)
            report.data["h0_of_unit_complex"] = h0u
            report.add_check("classification group of the unit complex is "
                             "trivial", h0u.is_trivial, h0u)
            report.data["h0_of_coefficients"] = classify_h0(nerve, X)

    elif command == "crossed-verify":
        _require_kind(spec, command, ("crossed_module",))
        report.merge(verify_crossed_module(X))

    elif command == "crossed-units":
        _require_kind(spec, command, ("crossed_module",))
        units, rep = enumerate_units_nonabelian(X)
        report.data["units"] = [u.key() for u in units]
        report.merge(rep)
        U = unit_crossed_module(X)
        report.merge(verify_crossed_module(U), prefix="unit module: ")
        report.add_check("unit module has trivial pi0", pi0_order(U) == 1,
                         pi0_order(U))
        report.add_check("unit module has trivial pi1", pi1_order(U) == 1,
                         pi1_order(U))
        nerve = cech_nerve(cover or spec.cover or point_cover())
        triples = enumerate_unit_triples(X, nerve, max_states=max_states)
        ident = identity_triple(X, nerve)
        ok = all(h0_group_law(t, ident, nerve).key() == t.key()
                 for t in triples)
        report.add_check("descent triples: (1,1,1) is the identity", ok,
                         len(triples))

    report.timing_seconds = time.monotonic() - started
    return report
