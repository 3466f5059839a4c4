"""Machine-readable reports for the command surface.

A report is the command echo, a digest of the canonicalized input, a list
of named checks with witnesses, and result tables.  Everything except the
timing field is deterministic for a fixed input and enters the report
digest; timing is kept outside the checked body.

``HANDLERS`` maps each command to the input kinds it accepts and, for
each kind, the handler that fills the report: a lazy layer bound as a
module, and the name of the handler in it.  Each handler lives in the
layer its command runs (``point_models``, ``complexes``, ``cech`` or
``crossed``), so a verdict compiles no other command's layer, and the
handler is looked up only when the command runs.  A handler is called as
``handler(report, payload, opts)``, with the run's options in ``opts``.
Where only the level differs, one handler serves every kind of
``specfile.COMPLEX_KINDS`` and reads the level from ``len(X.maps)``: so
for ``homology``, ``contractible``, ``unit-complex`` and ``qiso``.
``units`` and ``cech-classify`` keep one handler per kind, since their
checks, data and charges differ by level.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from . import cech, complexes, crossed, point_models
from .specfile import COMPLEX_KINDS, ComplexSpecFile, SpecError
from .verification import (
    MAX_CODED_ORDER, MAX_STATES, CapExceeded, Report, sha256)


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


HANDLERS = {
    "homology": dict.fromkeys(COMPLEX_KINDS, (complexes, "_homology")),
    "units": {"complex2": (point_models, "_units_1"),
              "complex3": (point_models, "_units_2")},
    "contractible": dict.fromkeys(COMPLEX_KINDS,
                                  (point_models, "_contractible")),
    "unit-complex": dict.fromkeys(COMPLEX_KINDS,
                                  (complexes, "_unit_complex")),
    "qiso": dict.fromkeys(COMPLEX_KINDS, (complexes, "_qiso")),
    "cech-classify": {"complex2": (cech, "_cech_classify_1"),
                      "complex3": (cech, "_cech_classify_2")},
    "crossed-verify": {"crossed_module": (crossed, "_crossed_verify")},
    "crossed-units": {"crossed_module": (crossed, "_crossed_units")},
}
COMMANDS = tuple(HANDLERS)
MODELS = ("idA", "idker")  # what qiso's --against names


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
    layer, name = handlers[spec.kind]
    getattr(layer, name)(report, spec.payload, SimpleNamespace(
        cover=cover or spec.cover, max_states=max_states, against=against,
        check_acyclic=check_acyclic))
    report.timing_seconds = time.monotonic() - started
    return report
