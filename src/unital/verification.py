"""Pass/fail reports and the run contract every command shares.

A report is an ordered list of named checks; a failed check carries a
witness (a counterexample, or whatever identifies the violation).  A
command report adds the digest of its canonicalized input and result
data.  Reports are deterministic for a fixed input: check order is fixed
and witnesses use the library's canonical enumeration order.  Everything
except the timing field enters the report digest.  ``Report.to_text`` is
rendered by the lazy ``console``, which no ``--json`` verdict executes.

Digests are SHA-256 from the interpreter's built-in module (``_sha2``, or
``_sha256`` before Python 3.12), so no verdict process loads OpenSSL;
``hashlib``, which does, is the fallback only where neither exists.  The
values are those of ``hashlib.sha256`` either way.

The run contract lives here too, so that a command which builds no abelian
group never executes ``abelian``: the two refusals a command maps to exit
codes (``FinitenessError``, exit 2, and ``CapExceeded``, exit 3), the
state-cap gate ``charge`` with the default cap ``MAX_STATES``, the
table-coding cap ``MAX_CODED_ORDER``, and ``read_cap``, which reads a
``--max-states`` value for both command-line parsers.
"""

from __future__ import annotations

import json
import sys

from . import console
from .record import Record

try:  # hashlib is heavy to load: its _hashlib loads OpenSSL
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without the module
    from hashlib import sha256


class FinitenessError(ValueError):
    """An operation that enumerates elements was given an infinite group."""


class CapExceeded(RuntimeError):
    """An exhaustive search would exceed the configured state cap."""


def charge(phase, states, formula, max_states):
    """Admit a scan of ``states`` states, counted by ``formula``, or refuse
    it before it does the work: the one place a count meets the cap."""
    if states > max_states:
        raise CapExceeded(f"{phase} needs {states} states ({formula}), "
                          f"above the cap {max_states}")


MAX_STATES = 10 ** 7  # the default cap of every scan and of --max-states
MAX_CODED_ORDER = 256  # the command cap; a 256 x 256 table has 65k entries


def read_cap(text):
    """A --max-states value, a nonnegative integer; None if text is not
    one."""
    try:
        cap = int(text)
    except ValueError:
        return None
    return cap if cap >= 0 else None


class Check(Record):
    name: str
    passed: bool
    witness: object = None


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


def _digest(body):
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()


class Report:
    """``command`` is the command run, or the structure a library check
    verifies; ``input_digest`` is empty for the latter.  A report is built
    up in place, and compares by identity."""

    def __init__(self, command, input_digest=""):
        self.command = command
        self.input_digest = input_digest
        self.checks: list[Check] = []
        self.data = {}
        self.timing_seconds = 0.0

    def add(self, name, passed, witness=None):
        self.checks.append(Check(name, bool(passed), witness))

    def merge(self, other, prefix=""):
        """Append the checks of ``other``; its data stays out of this one."""
        self.checks += [Check(prefix + c.name, c.passed, c.witness)
                        for c in other.checks]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    def body(self):
        return {"command": self.command,
                "input_digest": self.input_digest,
                "checks": [{"name": c.name,
                            "status": "pass" if c.passed else "fail",
                            "witness": _jsonable(c.witness)}
                           for c in self.checks],
                "data": _jsonable(self.data)}

    def digest(self):
        return _digest(self.body())

    def to_json(self):
        out = self.body()
        out["report_digest"] = _digest(out)
        out["schema"] = "unital-report/1"
        out["timing"] = {"seconds": self.timing_seconds}
        return json.dumps(out, sort_keys=True, indent=2)

    def to_text(self):
        return console.report_text(self)
