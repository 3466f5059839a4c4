"""Golden report digests over the benchmark corpus.

Every `units` and `contractible` input of the desk-mix and point-enum
workloads with a known exit code 0, in all of its presentations, is run in
process and its report digest compared with the one recorded in
``perfbench/digests.json``.  A refactor of the enumeration layer must leave
these byte-identical.  A second set covers the six other commands: their
desk-mix inputs, the descent workload's crossed-module and point-nerve
inputs in every presentation, and presentation 0 of each circle-nerve
`cech-classify` input, where the Smith forms modulo an exponent work
hardest.  A third set covers presentations 1-7 of those circle-nerve
inputs.  Every (command, input kind) pair of ``reporting.HANDLERS`` has an
input among the first two sets.  Nothing under ``perfbench/`` is written.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from unital.console import _build_parser
from unital.reporting import HANDLERS, run
from unital.specfile import parse_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("desk-mix", "point-enum")
COMMANDS = ("units", "contractible")


def _corpus():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("corpus")
    finally:
        sys.path.remove(str(PERFBENCH))


def _cases():
    corpus = _corpus()
    for workload in WORKLOADS:
        for item in corpus.all_variants(workload):
            if item["command"] in COMMANDS and item["known"]["exit"] == 0:
                yield workload, item


def _other_cases():
    corpus = _corpus()
    for item in corpus.all_variants("desk-mix"):
        if item["command"] not in COMMANDS and item["known"]["exit"] == 0:
            yield "desk-mix", item
    for item in corpus.all_variants("descent"):
        circle = "nerve" in json.loads(item["spec"])
        if item["command"] != "cech-classify" or not circle \
                or item["variant"] == 0:
            yield "descent", item


def _circle_cases():
    for item in _corpus().all_variants("descent"):
        if item["command"] == "cech-classify" and item["variant"] != 0 \
                and "nerve" in json.loads(item["spec"]):
            yield item


def _run(item):
    args = _build_parser().parse_args(
        [item["command"], "--in", "-", *item["args"]])
    return run(item["command"], parse_spec(item["spec"]),
               max_states=args.max_states, against=args.against,
               check_acyclic=args.check_acyclic)


DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
CASES = list(_cases())
OTHER_CASES = list(_other_cases())
CIRCLE_CASES = list(_circle_cases())


def test_corpus_covers_both_workloads_and_commands():
    assert {w for w, _ in CASES} == set(WORKLOADS)
    assert {item["command"] for _, item in CASES} == set(COMMANDS)
    assert len(CASES) == 8 * 22  # 4 desk-mix and 18 point-enum slots


@pytest.mark.parametrize("workload,item", CASES,
                         ids=[item["id"] for _, item in CASES])
def test_report_digest_is_unchanged(workload, item):
    assert _run(item).digest() == DIGESTS[workload][item["id"]]


def test_other_commands_are_all_covered():
    commands = {"homology", "unit-complex", "qiso", "cech-classify",
                "crossed-verify", "crossed-units"}
    assert {item["command"] for _, item in OTHER_CASES} == commands
    desk = [item for w, item in OTHER_CASES if w == "desk-mix"]
    assert len(desk) == 8 * 12  # two slots per command
    circle = [item for w, item in OTHER_CASES
              if w == "descent" and item["command"] == "cech-classify"
              and "nerve" in json.loads(item["spec"])]
    assert len(circle) == 6


def test_every_handler_has_a_golden_digest():
    covered = {(item["command"], json.loads(item["spec"])["kind"])
               for _, item in CASES + OTHER_CASES}
    assert covered == {(command, kind) for command, kinds in HANDLERS.items()
                       for kind in kinds}


@pytest.mark.parametrize("workload,item", OTHER_CASES,
                         ids=[f"{w}:{item['id']}" for w, item in OTHER_CASES])
def test_other_report_digest_is_unchanged(workload, item):
    assert _run(item).digest() == DIGESTS[workload][item["id"]]


def test_circle_presentations_are_all_covered():
    assert len(CIRCLE_CASES) == 6 * 7
    assert all(item["known"]["exit"] == 0 for item in CIRCLE_CASES)


@pytest.mark.parametrize("item", CIRCLE_CASES,
                         ids=[item["id"] for item in CIRCLE_CASES])
def test_circle_report_digest_is_unchanged(item):
    assert _run(item).digest() == DIGESTS["descent"][item["id"]]
