"""What only a person at a console reads: the text report, and argparse.

``report_text`` renders a report as ``--text`` prints it (and
``Report.to_text`` returns it).  ``_build_parser`` is the argparse parser
of the command line, which ``cli.main`` uses for a command line that
``cli._parse`` declines: help, an abbreviated or repeated option, or a
usage error.

This lazy layer imports no other; a verdict with ``--json`` and a command
line of the documented form never executes it.
"""

from __future__ import annotations

import json

from .reporting import COMMANDS, MODELS
from .verification import MAX_STATES, _jsonable, read_cap


def report_text(report):
    lines = [f"unital {report.command}",
             f"input digest {report.input_digest[:16]}"]
    for c in report.checks:
        line = f"  {'PASS' if c.passed else 'FAIL'} {c.name}"
        if c.witness is not None:
            line += f"  [{_jsonable(c.witness)}]"
        lines.append(line)
    for key, val in report.data.items():
        lines.append(f"  {key}: {json.dumps(_jsonable(val), sort_keys=True)}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    lines.append(f"time: {report.timing_seconds:.3f}s")
    return "\n".join(lines)


def _build_parser():
    """The argparse parser of the command line, for what ``cli._parse``
    declines."""
    import argparse  # with gettext and locale, which --text needs none of

    def state_cap(text):
        cap = read_cap(text)
        if cap is None:
            raise argparse.ArgumentTypeError(
                f"expected a nonnegative integer, got {text!r}")
        return cap

    parser = argparse.ArgumentParser(
        prog="unital",
        description="exact computations with units of Picard groupoids, "
                    "2-groupoids, and their nonabelian relatives")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="infile", required=True,
                        help="input JSON file")
    parser.add_argument("--nerve", dest="nervefile",
                        help="JSON cover description overriding the input's")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report")
    fmt.add_argument("--text", action="store_true",
                     help="plain-text report (default)")
    parser.add_argument("--max-states", type=state_cap, default=MAX_STATES,
                        help="cap on exhaustive-search states")
    parser.add_argument("--against", choices=MODELS,
                        help="which comparison model qiso should check")
    parser.add_argument("--check-acyclic", action="store_true",
                        help="unit-complex: assert all homology vanishes")
    return parser
