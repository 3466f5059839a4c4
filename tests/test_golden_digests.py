"""Golden report digests over the benchmark corpus.

Every `units` and `contractible` input of the desk-mix and point-enum
workloads with a known exit code 0, in all of its presentations, is run in
process and its report digest compared with the one recorded in
``perfbench/digests.json``.  A refactor of the enumeration layer must leave
these byte-identical.  Nothing under ``perfbench/`` is written.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from unital.cli import _build_parser
from unital.reporting import run
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


DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
CASES = list(_cases())


def test_corpus_covers_both_workloads_and_commands():
    assert {w for w, _ in CASES} == set(WORKLOADS)
    assert {item["command"] for _, item in CASES} == set(COMMANDS)
    assert len(CASES) == 8 * 22  # 4 desk-mix and 18 point-enum slots


@pytest.mark.parametrize("workload,item", CASES,
                         ids=[item["id"] for _, item in CASES])
def test_report_digest_is_unchanged(workload, item):
    args = _build_parser().parse_args(
        [item["command"], "--in", "-", *item["args"]])
    report = run(item["command"], parse_spec(item["spec"]),
                 max_states=args.max_states, against=args.against,
                 check_acyclic=args.check_acyclic)
    assert report.digest() == DIGESTS[workload][item["id"]]
