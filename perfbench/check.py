"""Verdict checking against a corpus input's known answer.

A verdict is wrong if the exit code differs from the known answer, a
known-answer field of the report differs, a traceback is printed, or the
command timed out.  ``check`` returns the list of problems (empty when the
verdict is right) plus the parsed report, if there is one.
"""

from __future__ import annotations

import json


def group_order(text):
    """Order of a group as a report prints it ("0", "Z/2 x Z/4"); None if
    it is infinite or unreadable."""
    if text == "0":
        return 1
    n = 1
    for part in text.split(" x "):
        if not part.startswith("Z/") or not part[2:].isdigit():
            return None
        n *= int(part[2:])
    return n


def _witness(report, name):
    for c in report.get("checks", ()):
        if c.get("name") == name:
            return c.get("witness")
    return "<missing check>"


def check(known, exit_code, stdout, stderr, timed_out=False):
    """(problems, report) for one verdict."""
    if timed_out:
        return ["timed out"], None
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback printed")
    if exit_code != known["exit"]:
        problems.append(f"exit {exit_code}, expected {known['exit']}")
    report = None
    if stdout.strip():
        try:
            report = json.loads(stdout)
        except ValueError:
            pass
    if known["exit"] in (0, 1):
        if report is None:
            problems.append("no JSON report on stdout")
            return problems, None
        data = report.get("data", {})
        for key, want in known.get("data", {}).items():
            if data.get(key) != want:
                problems.append(f"data.{key} = {data.get(key)!r}, "
                                f"expected {want!r}")
        for key, want in known.get("data_len", {}).items():
            got = len(data.get(key, ()))
            if got != want:
                problems.append(f"len(data.{key}) = {got}, expected {want}")
        for name, want in known.get("witness", {}).items():
            got = _witness(report, name)
            if got != want:
                problems.append(f"witness of {name!r} = {got!r}, "
                                f"expected {want!r}")
        for key, table in known.get("group_orders", {}).items():
            got = {d: group_order(g) for d, g in data.get(key, {}).items()}
            if got != table:
                problems.append(f"orders of data.{key} = {got}, "
                                f"expected {table}")
        for key in known.get("all_trivial", ()):
            groups = data.get(key, {})
            if not groups or any(g != "0" for g in groups.values()):
                problems.append(f"data.{key} not all trivial: {groups}")
    elif exit_code == known["exit"]:
        if not stderr.startswith(known["stderr"]):
            problems.append(f"stderr {stderr[:60]!r} does not start with "
                            f"{known['stderr']!r}")
        if stdout.strip():
            problems.append("refusal printed a report")
    return problems, report
