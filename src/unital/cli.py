"""Command-line entry point.

    unital <command> --in <file> [--nerve <file>] [--json|--text]
           [--max-states N] [--against idA|idker] [--check-acyclic]

A command line of exactly this form is parsed without argparse: one
command, each option at most once, a value as the next argument or after
``=`` that is not empty and does not start with ``-``, and ``--json`` and
``--text`` not together.  Anything else (``-h``, an abbreviated or
repeated option, a usage error) goes to the argparse parser, which gives
the same namespace on what both accept and argparse's help and messages
on the rest.

Exit codes: 0 all checks pass, 1 a check failed (the report carries the
witness), 2 bad input, a usage error or an unwritable stdout, 3 a cap was
exceeded or memory ran out.

``main`` registers ``gc.freeze`` as an exit hook on its first call.  At
interpreter exit it moves every live object out of the collector's reach,
so the collections of finalization skip the heap of a finished verdict
(3-7 ms of a verdict's exit) instead of sweeping it.  Finalization still
runs the other exit hooks, flushes stdout and stderr and tears the modules
down, freeing what reference counts free; what sits in a reference cycle
is left to the ending process, finalizer unrun, so no output may wait on a
cycle's finalizer (files close in ``with`` blocks).  A caller that runs
``main`` in process is frozen only when its own interpreter exits.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from types import SimpleNamespace

from . import console, covers
from .reporting import COMMANDS, MODELS, run
from .specfile import SpecError, load_json, parse_spec
from .verification import MAX_STATES, CapExceeded, FinitenessError, read_cap

# the fields of the options that take a value, and of the flags
_VALUED = {"--in": "infile", "--nerve": "nervefile",
           "--max-states": "max_states", "--against": "against"}
_FLAGS = {"--json": "json", "--text": "text",
          "--check-acyclic": "check_acyclic"}
_DEFAULTS = {"nervefile": None, "json": False, "text": False,
             "max_states": MAX_STATES, "against": None, "check_acyclic": False}
# whether main has registered its exit hook; the interpreter's exit table
# is process-wide, and registering again would add a slot to it per call
_hooked = False


def _parse(argv):
    """The namespace argparse gives a command line of the documented form;
    None for any other command line."""
    got, tokens = {}, iter(argv)
    for token in tokens:
        option, eq, value = token.partition("=")
        if token in _FLAGS:
            field, value = _FLAGS[token], True
        elif option in _VALUED:
            field, value = _VALUED[option], value if eq else next(tokens, "")
            if not value or value[0] == "-":
                return None
        elif token in COMMANDS:
            field, value = "command", token
        else:
            return None
        if field in got:
            return None
        got[field] = value
    if "max_states" in got:
        got["max_states"] = read_cap(got["max_states"])
    if {"command", "infile"} - got.keys() or {"json", "text"} <= got.keys() \
            or got.get("max_states", 0) is None \
            or got.get("against") not in (None, *MODELS):
        return None
    return SimpleNamespace(**{**_DEFAULTS, **got})


def _read(path):
    """The text of an input file; bytes that are not UTF-8 are bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not UTF-8 ({exc.reason} at byte "
                        f"{exc.start})") from None


def main(argv=None):
    global _hooked
    if not _hooked:  # once per process: see the module docstring
        atexit.register(gc.freeze)
        _hooked = True
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or console._build_parser().parse_args(argv)
    try:
        spec = parse_spec(_read(args.infile))
        cover = None
        if args.nervefile:
            cover = covers._parse_cover(
                load_json(_read(args.nervefile), "nerve"), "nerve")
        report = run(args.command, spec, cover=cover,
                     max_states=args.max_states, against=args.against,
                     check_acyclic=args.check_acyclic)
    except (SpecError, FinitenessError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # the state cap counts states, not bytes
        report = None  # the scan's frames are freed once this block ends
    if report is None:
        print("cap exceeded: memory", file=sys.stderr)
        return 3
    # an exact group may have more digits than the interpreter's
    # int-to-string limit (0: none) lets it print, so the limit is lifted
    # while the report renders; load_json still refuses such an integer
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(report.to_json() if args.json else report.to_text())
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe, a full disk
        try:
            print(f"output error: {exc}", file=sys.stderr)
            # what is left in the buffer would fail again in the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # stderr is unwritable too, or stdout has no fd
            pass
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
