import ast
import atexit
import contextlib
import gc
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import unital
from unital import cech, cli, coded, console, crossed
from unital.cli import main
from unital.reporting import COMMANDS, HANDLERS, run
from unital.specfile import SpecError, parse_spec
from unital.verification import sha256

from test_golden_digests import _corpus

TIMES2 = {"kind": "complex2",
          "groups": {"A": {"inv": [2]}, "B": {"inv": [4]}},
          "maps": {"lambda": [[2]]}}

THREE_TERM = {"kind": "complex3",
              "groups": {"A": {"inv": [2]}, "B": {"inv": [2]},
                         "C": {"inv": [2]}},
              "maps": {"delta": [[0]], "lambda": [[1]]}}

CIRCLE_NERVE = {"parts": ["a0", "a1", "a2"],
                "intersections": [
                    {"parts": ["a0", "a1"], "components": ["c"]},
                    {"parts": ["a1", "a2"], "components": ["c"]},
                    {"parts": ["a0", "a2"], "components": ["c"]}]}

# four parts in a cycle: levels [4, 12, 28, 60]
RING_NERVE = {"parts": ["a0", "a1", "a2", "a3"],
              "intersections": [
                  {"parts": ["a0", "a1"]}, {"parts": ["a1", "a2"]},
                  {"parts": ["a2", "a3"]}, {"parts": ["a0", "a3"]}]}

Z2_ZERO = {"kind": "complex2",
           "groups": {"A": {"inv": [2]}, "B": {"inv": [2]}},
           "maps": {"lambda": [[0]]}}

# U has two components, so the faces of U n V into U need a containment
SPLIT_U = {"parts": ["U", "V"],
           "intersections": [{"parts": ["U"], "components": ["x", "y"]},
                             {"parts": ["U", "V"]}]}

INVERSION = {"kind": "crossed_module",
             "G": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "name": "Z/3"},
             "H": {"table": [[0, 1], [1, 0]], "name": "Z/2"},
             "boundary": [0, 0, 0],
             "action": [[0, 0], [1, 2], [2, 1]]}

# the crossed-module tables fail equivariance
NOT_CROSSED = {"kind": "crossed_module",
               "G": {"table": [[0, 1], [1, 0]]},
               "H": {"table": [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3],
                               [2, 0, 1, 5, 3, 4], [3, 5, 4, 0, 2, 1],
                               [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0]]},
               "boundary": [0, 3],
               "action": [[0] * 6, [1] * 6]}

# (command, input of another kind, the kinds it needs, the input's kind)
WRONG_KIND = [
    (command, INVERSION, "('complex2', 'complex3')", "crossed_module")
    for command in ("homology", "units", "contractible", "unit-complex",
                    "qiso", "cech-classify")
] + [("crossed-verify", TIMES2, "('crossed_module',)", "complex2"),
     ("crossed-units", THREE_TERM, "('crossed_module',)", "complex3")]


def _replaced(doc, path, value):
    """A deep copy of doc with the entry at path (keys and indices) set."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    return doc


class TestParse:
    def test_times2(self):
        spec = parse_spec(json.dumps(TIMES2))
        assert spec.kind == "complex2"
        assert str(spec.payload.terms[0]) == "Z/2"
        assert spec.payload.maps[0].matrix == ((2,),)

    def test_round_trip(self):
        spec = parse_spec(json.dumps(TIMES2))
        again = parse_spec(spec.canonical_text())
        assert again.raw == spec.raw
        assert again.payload == spec.payload

    def test_empty_groups_is_trivial_complex(self):
        spec = parse_spec(json.dumps({"kind": "complex2", "groups": {},
                                      "maps": {}}))
        assert all(G.is_trivial for G in spec.payload.terms)
        assert len(spec.payload.terms) == 2

    def test_missing_map_is_zero_and_null_is_refused(self):
        doc = {"kind": "complex3",
               "groups": {"A": {"inv": [2]}, "B": {"inv": [4]},
                          "C": {"free": 1}},
               "maps": {"delta": [[2]]}}
        X = parse_spec(json.dumps(doc)).payload
        assert (X.maps[1].source, X.maps[1].target) == X.terms[1:]
        assert X.maps[1].matrix == ((0,),)
        doc["maps"]["lambda"] = None
        with pytest.raises(SpecError, match=r"^maps\.lambda: expected a "
                                            r"row-major integer matrix$"):
            parse_spec(json.dumps(doc))

    def test_composite_nonzero_rejected(self):
        doc = {"kind": "complex3",
               "groups": {"A": {"inv": [2]}, "B": {"inv": [2]},
                          "C": {"inv": [2]}},
               "maps": {"delta": [[1]], "lambda": [[1]]}}
        with pytest.raises(SpecError, match="composite nonzero at generator 0"):
            parse_spec(json.dumps(doc))

    def test_deeply_nested_json_is_a_spec_error(self):
        with pytest.raises(SpecError, match=r"^\$: JSON nested too deeply$"):
            parse_spec("[" * 100000)

    def test_schema_violations_carry_paths(self):
        with pytest.raises(SpecError, match="groups.A.inv"):
            parse_spec(json.dumps({"kind": "complex2",
                                   "groups": {"A": {"inv": [2.5]},
                                              "B": {}},
                                   "maps": {}}))
        with pytest.raises(SpecError, match="maps.lambda"):
            parse_spec(json.dumps({"kind": "complex2",
                                   "groups": {"A": {"inv": [2]},
                                              "B": {"inv": [4]}},
                                   "maps": {"lambda": [[1]]}}))
        with pytest.raises(SpecError, match="kind"):
            parse_spec(json.dumps({"kind": "nonsense"}))


class TestRun:
    def test_units_report(self):
        spec = parse_spec(json.dumps(TIMES2))
        report = run("units", spec)
        assert report.passed
        assert report.data["units"] == [((0,), (0,)), ((2,), (1,))]
        assert report.data["unique_morphisms"] == 4

    def test_homology(self):
        spec = parse_spec(json.dumps(TIMES2))
        report = run("homology", spec)
        assert report.body()["data"]["homology"] == {"-1": "0", "0": "Z/2"}

    def test_unit_complex_acyclic(self):
        spec = parse_spec(json.dumps(TIMES2))
        report = run("unit-complex", spec, check_acyclic=True)
        assert report.passed
        assert set(report.body()["data"]["homology"].values()) == {"0"}

    def test_qiso(self):
        spec = parse_spec(json.dumps(TIMES2))
        report = run("qiso", spec, against="idA")
        assert report.passed
        assert "induced_idA" in report.data

    def test_qiso_both_models_three_term(self):
        spec = parse_spec(json.dumps(THREE_TERM))
        report = run("qiso", spec)
        assert report.passed
        assert "induced_idker" in report.data

    def test_contractible_three_term(self):
        spec = parse_spec(json.dumps(THREE_TERM))
        report = run("contractible", spec)
        assert report.passed

    def test_cech_classify(self):
        spec = parse_spec(json.dumps(TIMES2))
        report = run("cech-classify", spec)
        assert report.passed
        assert report.data["unit_cocycle_classes"] == 1
        assert report.body()["data"]["h0_of_unit_complex"] == "0"
        assert report.data["torsor_classes"] == 2  # |coker| of times-2

    def test_kind_mismatch(self):
        spec = parse_spec(json.dumps(TIMES2))
        with pytest.raises(SpecError, match="crossed-verify"):
            run("crossed-verify", spec)

    @pytest.mark.parametrize("command,doc,kinds,kind", WRONG_KIND)
    def test_wrong_kind_message(self, command, doc, kinds, kind):
        with pytest.raises(SpecError) as exc:
            run(command, parse_spec(json.dumps(doc)))
        assert str(exc.value) == \
            f"kind: command {command!r} needs one of {kinds}, got {kind!r}"

    def test_wrong_kind_cases_cover_every_command(self):
        assert tuple(case[0] for case in WRONG_KIND) == COMMANDS

    def test_unknown_command(self):
        with pytest.raises(SpecError) as exc:
            run("units2", parse_spec(json.dumps(TIMES2)))
        assert str(exc.value) == "command: unknown command 'units2'"

    @pytest.mark.parametrize("doc", [TIMES2, THREE_TERM])
    def test_unknown_against_model(self, doc):
        with pytest.raises(SpecError) as exc:
            run("qiso", parse_spec(json.dumps(doc)), against="idB")
        assert str(exc.value) == "against: unknown model 'idB'"

    def test_crossed_commands(self):
        spec = parse_spec(json.dumps(INVERSION))
        assert run("crossed-verify", spec).passed
        report = run("crossed-units", spec)
        assert report.passed
        assert len(report.data["units"]) == 3

    def test_merged_reports_add_checks_only(self):
        report = run("contractible", parse_spec(json.dumps(TIMES2)))
        assert len(report.checks) == 3 and report.data == {}

    def test_text_prints_witnesses_as_json(self):
        text = run("crossed-units", parse_spec(json.dumps(INVERSION))).to_text()
        assert "  PASS units over the identity are the kernel of the " \
               "boundary  [[[0, 1, 2], [0, 1, 2]]]\n" in text

    def test_report_determinism(self):
        spec = parse_spec(json.dumps(TIMES2))
        r1 = run("units", spec)
        r2 = run("units", spec)
        assert r1.digest() == r2.digest()
        assert r1.body() == r2.body()
        assert r1.to_json() != ""  # timing differs but not the digest


class TestCliProcess:
    def _write(self, tmp_path, doc, name="in.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_and_text(self, tmp_path, capsys):
        code = main(["units", "--in", self._write(tmp_path, TIMES2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out

    def test_json_output(self, tmp_path, capsys):
        code = main(["homology", "--in", self._write(tmp_path, TIMES2),
                     "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["schema"] == "unital-report/1"
        assert out["data"]["homology"]["0"] == "Z/2"

    def test_qiso_fails_its_named_check_on_a_wrong_model(self, tmp_path,
                                                         capsys, monkeypatch):
        # every model the library builds is a quasi-isomorphism, so a wrong
        # one is patched in: the zero endomorphism of X.  X = Z/2 -2-> Z/4
        # has H^0 = Z/2, so the induced map is the 1 x 1 zero matrix, and
        # computing it classifies a chosen representative of each class
        from unital import complexes
        from unital.groups import GroupHom

        def zero_model(X):
            return X, complexes.StrictMorphism(X, X, tuple(
                GroupHom.zero(G, G) for G in map(X.group_at, X.degrees)))

        monkeypatch.setattr(complexes, "identity_model", zero_model)
        code = main(["qiso", "--in", self._write(tmp_path, TIMES2), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(c["name"], c["status"]) for c in out["checks"]] == [
            ("comparison with idA is a quasi-isomorphism", "fail"),
            ("comparison with idker is a quasi-isomorphism", "pass")]
        assert out["data"]["induced_idA"] == {
            "-1": {"source": "0", "target": "0", "matrix": []},
            "0": {"source": "Z/2", "target": "Z/2", "matrix": [[0]]}}

    def test_input_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["units", "--in", str(path)]) == 2

    def test_crossed_units_verifies_the_axioms_of_x_once(self, tmp_path,
                                                          monkeypatch):
        real, checked = crossed.verify_crossed_module, []

        def counted(X):
            checked.append(X)
            return real(X)

        monkeypatch.setattr(crossed, "verify_crossed_module", counted)
        assert main(["crossed-units", "--in",
                     self._write(tmp_path, INVERSION)]) == 0
        assert [X.H.name for X in checked] == \
            ["Z/2", "ker(Z/3 semidirect Z/2 -> Z/2)"]

    def test_descent_triples_cap_builds_no_triple(self, tmp_path, capsys,
                                                  monkeypatch):
        # the check reads two table hypotheses, so no triple is built, at
        # the cap or below it, and none can be multiplied
        built, triple_of = [], crossed._triple_of

        def counted(X, faces):
            triple = triple_of(X, faces)
            return lambda gp: built.append(gp) or triple(gp)

        monkeypatch.setattr(crossed, "_triple_of", counted)
        args = ["crossed-units", "--in", self._write(tmp_path, INVERSION),
                "--nerve", self._write(tmp_path, RING_NERVE, "n.json")]
        # |G|^|V0| = 3^4 triples; the unit scan's |G|^3 = 27 is admitted
        assert main(args + ["--max-states", "80"]) == 3
        assert capsys.readouterr().err == \
            "cap exceeded: triple enumeration needs 81 states " \
            "(|G|^|V_0|), above the cap 80\n"
        assert built == []
        assert main(args + ["--max-states", "81"]) == 0
        assert built == []
        assert "PASS descent triples: (1,1,1) is the identity  [81]\n" in \
            capsys.readouterr().out

    def test_unit_scan_cap_builds_no_unit(self, tmp_path, capsys,
                                          monkeypatch):
        scanned, real = [], coded.unit_morphism_checks

        def counted(*args):
            scanned.append(args)
            return real(*args)

        monkeypatch.setattr(coded, "unit_morphism_checks", counted)
        args = ["crossed-units", "--in", self._write(tmp_path, INVERSION),
                "--nerve", self._write(tmp_path, CIRCLE_NERVE, "n.json")]
        # |G|^3 = 27 coherence triples, charged before the 27 descent
        # triples of the circle
        assert main(args + ["--max-states", "26"]) == 3
        assert capsys.readouterr().err == \
            "cap exceeded: coherence scan needs 27 states (|G|^3), " \
            "above the cap 26\n"
        assert scanned == []
        assert main(args + ["--max-states", "27"]) == 0
        assert len(scanned) == 1

    def test_cap_exceeded_exit_3(self, tmp_path):
        code = main(["cech-classify", "--in", self._write(tmp_path, TIMES2),
                     "--nerve", self._write(tmp_path, CIRCLE_NERVE, "n.json"),
                     "--max-states", "10"])
        assert code == 3

    def test_two_term_contractible_honours_max_states(self, tmp_path, capsys):
        # 8^3 = 512 coherence triples against a cap of 10
        z8 = {"kind": "complex2",
              "groups": {"A": {"inv": [8]}, "B": {"inv": [8]}},
              "maps": {"lambda": [[1]]}}
        code = main(["contractible", "--in", self._write(tmp_path, z8),
                     "--max-states", "10"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("cap exceeded")
        assert "512" in err
        assert main(["contractible", "--in", self._write(tmp_path, z8),
                     "--max-states", "512"]) == 0

    @pytest.mark.parametrize("command,cap", [("contractible", "-1"),
                                             ("units", "-3")])
    def test_negative_max_states_is_bad_input(self, tmp_path, capsys,
                                              command, cap):
        with pytest.raises(SystemExit) as exc:
            main([command, "--in", self._write(tmp_path, TIMES2),
                  "--max-states", cap])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --max-states: expected a nonnegative integer, "
            f"got '{cap}'\n")

    def test_zero_max_states(self, tmp_path, capsys):
        path = self._write(tmp_path, TIMES2)
        assert main(["contractible", "--in", path, "--max-states", "0"]) == 3
        assert capsys.readouterr().err.startswith("cap exceeded")
        assert main(["units", "--in", path, "--max-states", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded") and "4 states" in err

    @pytest.mark.parametrize("doc,states", [(TIMES2, 4), (THREE_TERM, 2)])
    def test_units_honour_max_states(self, tmp_path, capsys, doc, states):
        # |A|^2 ordered pairs of units for 2-term input, |B| units for 3-term
        args = ["units", "--in", self._write(tmp_path, doc), "--max-states"]
        assert main(args + [str(states - 1)]) == 3
        assert f"needs {states} states" in capsys.readouterr().err
        assert main(args + [str(states)]) == 0

    def test_circle_torsor_scan_honours_max_states(self, tmp_path, capsys):
        # 2^9 * 2^3 = 4096 candidate torsor cocycles on the circle
        z2 = {"kind": "complex2",
              "groups": {"A": {"inv": [2]}, "B": {"inv": [2]}},
              "maps": {"lambda": [[0]]}}
        args = ["cech-classify", "--in", self._write(tmp_path, z2),
                "--nerve", self._write(tmp_path, CIRCLE_NERVE, "n.json")]
        code = main(args + ["--max-states", "4095"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("cap exceeded")
        assert "4096" in err
        assert main(args + ["--max-states", "4096"]) == 0

    @pytest.mark.parametrize("command,doc,nerve,cap,message", [
        ("units", TIMES2, None, 3, "unit scan needs 4 states (|A|^2)"),
        ("units", THREE_TERM, None, 1, "unit scan needs 2 states (|B|)"),
        ("contractible", TIMES2, None, 7,
         "coherence scan needs 8 states (|A|^3)"),
        ("contractible", THREE_TERM, None, 23, "2-cell verification needs "
         "24 states (|B|^2 |A| + |A|^2 (|A| + |ker delta|))"),
        ("cech-classify", Z2_ZERO, CIRCLE_NERVE, 4095,
         "torsor scan needs 4096 states (|A|^|V_1| |B|^|V_0|)"),
        ("cech-classify", Z2_ZERO, CIRCLE_NERVE, 31, "coboundary quotient "
         "needs 32 states (|A|^|V_0| per class swept)"),
        ("cech-classify", Z2_ZERO, CIRCLE_NERVE, 7,
         "unit-cocycle scan needs 8 states (|A|^|V_0|)"),
        ("crossed-units", INVERSION, RING_NERVE, 80,
         "triple enumeration needs 81 states (|G|^|V_0|)"),
        ("crossed-units", INVERSION, None, 26,
         "coherence scan needs 27 states (|G|^3)"),
    ], ids=["units-1", "units-2", "contractible-1", "contractible-2",
            "torsor", "coboundary", "unit-cocycle", "triples",
            "crossed-unit-scan"])
    def test_every_state_charge_has_one_wording(self, tmp_path, capsys,
                                                monkeypatch, command, doc,
                                                nerve, cap, message):
        phase = message.split(" needs")[0]
        # on every full nerve the torsor charge bounds the coboundary sweep
        # and the unit-cocycle scan, so it is lifted to reach them
        torsor_classes = cech.torsor_classes
        if phase == "coboundary quotient":
            monkeypatch.setattr(cech, "torsor_classes",
                                lambda N, X, max_states:
                                cech._cocycle_classes(N, X, max_states))
        elif phase == "unit-cocycle scan":
            monkeypatch.setattr(cech, "torsor_classes",
                                lambda N, X, max_states: torsor_classes(N, X))
        args = [command, "--in", self._write(tmp_path, doc),
                "--max-states", str(cap)]
        if nerve:
            args += ["--nerve", self._write(tmp_path, nerve, "n.json")]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"cap exceeded: {message}, above the cap {cap}\n"

    def test_group_order_cap_exit_3(self, tmp_path):
        big = {"kind": "complex2",
               "groups": {"A": {"inv": [2]}, "B": {"inv": [512]}},
               "maps": {"lambda": [[0]]}}
        assert main(["homology", "--in", self._write(tmp_path, big)]) == 3

    def test_nerve_file(self, tmp_path, capsys):
        code = main(["cech-classify", "--in", self._write(tmp_path, TIMES2),
                     "--nerve", self._write(tmp_path, CIRCLE_NERVE, "n.json"),
                     "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["data"]["nerve_levels"] == [3, 9, 21, 45]

    @pytest.mark.parametrize("path,value", [
        (("intersections", 1), 7), (("intersections", 1), None),
        (("intersections", 1), 2.5), (("intersections", 1), ["a0", "a1"]),
        (("intersections",), 5), (("intersections", 1, "components"), 5),
        (("containments",), {}),
        (("containments",), [{"parts": ["a0", "zz"], "component": "c",
                               "sub_parts": ["a0"], "sub_component": "c"}])])
    def test_malformed_nerve_exit_2(self, tmp_path, capsys, path, value):
        nerve = _replaced(CIRCLE_NERVE, path, value)
        code = main(["cech-classify", "--in",
                     self._write(tmp_path, dict(TIMES2, nerve=nerve))])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: nerve.{path[0]}")

    @pytest.mark.parametrize("path,value", [
        (("boundary", 2), 2), (("boundary", 1), -1), (("boundary", 2), "1"),
        (("action", 1, 1), 3), (("G", "table", 1), 5)])
    def test_crossed_value_out_of_range_exit_2(self, tmp_path, capsys, path,
                                               value):
        doc = _replaced(INVERSION, path, value)
        code = main(["crossed-verify", "--in", self._write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error")
        assert "Traceback" not in err

    @pytest.mark.parametrize("path,value", [
        (("maps", "lambda", 0, 0), True), (("groups", "A", "inv", 0), True),
        (("groups", "A", "free"), True), (("groups",), True),
        (("maps",), True)])
    def test_json_true_is_not_an_integer_exit_2(self, tmp_path, capsys, path,
                                                value):
        # Z/2 -> Z/2, where true would read as a valid 1
        doc = {"kind": "complex2",
               "groups": {"A": {"inv": [2]}, "B": {"inv": [2]}},
               "maps": {"lambda": [[1]]}}
        code = main(["units", "--in",
                     self._write(tmp_path, _replaced(doc, path, value))])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: " + ".".join(
            k for k in path if isinstance(k, str)))

    @pytest.mark.parametrize("free,code", [(64, 0), (65, 3), (2 ** 64, 3)])
    def test_generator_cap(self, tmp_path, capsys, free, code):
        # refused before the default zero map, a 1 x free matrix, is built
        doc = {"kind": "complex2",
               "groups": {"A": {"free": free}, "B": {"inv": [2]}}}
        assert main(["homology", "--in", self._write(tmp_path, doc)]) == code
        if code == 3:
            assert capsys.readouterr().err == (
                f"cap exceeded: groups.A: {free} generators exceed the cap "
                "64\n")

    def test_wrong_kind_exit_2(self, tmp_path, capsys):
        assert main(["units", "--in", self._write(tmp_path, INVERSION)]) == 2
        assert capsys.readouterr().err == (
            "input error: kind: command 'units' needs one of "
            "('complex2', 'complex3'), got 'crossed_module'\n")

    @pytest.mark.parametrize("args", [
        ["units2"], ["qiso", "--against", "idB"]])
    def test_unknown_command_or_model_refused(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--in", self._write(tmp_path, TIMES2)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("nerve,message", [
        (SPLIT_U,
         "nerve: ambiguous component containment ['U', 'V']:* -> ['U']"),
        (dict(SPLIT_U, containments=[{"parts": ["U", "V"], "component": "*",
                                      "sub_parts": ["U"],
                                      "sub_component": "z"}]),
         "nerve: containment target ['U']:z is not a declared component")])
    @pytest.mark.parametrize("command,doc", [
        ("cech-classify", TIMES2), ("crossed-units", INVERSION)])
    @pytest.mark.parametrize("embedded", [False, True])
    def test_unresolved_cover_exit_2(self, tmp_path, capsys, nerve, message,
                                     command, doc, embedded):
        if embedded:
            args = ["--in", self._write(tmp_path, dict(doc, nerve=nerve))]
        else:
            args = ["--in", self._write(tmp_path, doc),
                    "--nerve", self._write(tmp_path, nerve, "n.json")]
        code = main([command, *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("nerve,message", [
        # both parts are "a", so part 0 cannot be addressed
        ({"parts": ["a", "a"],
          "intersections": [{"parts": ["a", "a"], "components": ["x", "y"]}]},
         "nerve: part names repeat: ['a', 'a']"),
        (dict(CIRCLE_NERVE, intersections=CIRCLE_NERVE["intersections"] + [
            {"parts": ["a1", "a0"], "components": ["d"]}]),
         "nerve: intersection ['a0', 'a1'] is declared twice"),
        # the * component of U n V inside U:x and then inside U:y
        ({"parts": ["U", "V"],
          "intersections": [{"parts": ["U"], "components": ["x", "y"]},
                            {"parts": ["U", "V"]}],
          "containments": [
              {"parts": ["U", "V"], "component": "*", "sub_parts": ["U"],
               "sub_component": c} for c in ("x", "y")]},
         "nerve: containment ['U', 'V']:* in ['U'] is declared twice"),
        # two components named alike would be one nerve cell twice
        ({"parts": ["U", "V"],
          "intersections": [{"parts": ["U", "V"], "components": ["x", "x"]}]},
         "nerve: component names repeat in ['U', 'V']: ['x', 'x']"),
        # a containment out of a component U n V does not have
        ({"parts": ["U", "V"], "intersections": [{"parts": ["U", "V"]}],
          "containments": [{"parts": ["U", "V"], "component": "q",
                            "sub_parts": ["U"], "sub_component": "*"}]},
         "nerve: containment source ['U', 'V']:q is not a declared component"),
        # a face drops one part: never into a smaller intersection
        ({"parts": ["U", "V"], "intersections": [{"parts": ["U", "V"]}],
          "containments": [{"parts": ["U"], "component": "*",
                            "sub_parts": ["U", "V"], "sub_component": "*"}]},
         "nerve: containment ['U']:* in ['U', 'V'] is never consulted: "
         "['U', 'V'] is not ['U'] less one part"),
        # nor past the intersection with one part fewer
        (dict(CIRCLE_NERVE, intersections=CIRCLE_NERVE["intersections"] + [
            {"parts": ["a0", "a1", "a2"], "components": ["t"]}],
            containments=[{"parts": ["a0", "a1", "a2"], "component": "t",
                           "sub_parts": ["a0"], "sub_component": "*"}]),
         "nerve: containment ['a0', 'a1', 'a2']:t in ['a0'] is never "
         "consulted: ['a0'] is not ['a0', 'a1', 'a2'] less one part"),
        # every part in two components: the first face resolved, d_0 of
        # the first cell of U n V, already needs a containment
        ({"parts": ["U", "V"],
          "intersections": [{"parts": p, "components": ["x", "y"]}
                            for p in (["U"], ["V"], ["U", "V"])]},
         "nerve: ambiguous component containment ['U', 'V']:x -> ['V']; "
         "declare it explicitly")])
    @pytest.mark.parametrize("embedded", [False, True])
    def test_ambiguous_cover_exit_2(self, tmp_path, capsys, nerve, message,
                                    embedded):
        if embedded:
            args = ["--in", self._write(tmp_path, dict(TIMES2, nerve=nerve))]
        else:
            args = ["--in", self._write(tmp_path, TIMES2),
                    "--nerve", self._write(tmp_path, nerve, "n.json")]
        code = main(["cech-classify", "--json", *args])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"input error: {message}\n"

    def test_check_failure_exit_1(self, tmp_path):
        # a non-acyclic complex fails unit-complex --check-acyclic?  the unit
        # complex is always acyclic, so force failure via homology mismatch:
        # use a crossed module that is not one
        doc = NOT_CROSSED
        code = main(["crossed-verify", "--in", self._write(tmp_path, doc)])
        assert code == 1

    def test_crossed_units_on_a_non_crossed_module_exit_1(self, tmp_path,
                                                           capsys):
        code = main(["crossed-units", "--in",
                     self._write(tmp_path, NOT_CROSSED)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        assert "  FAIL equivariance: bnd(g^h) = h^-1 bnd(g) h  [[1, 1]]" in out
        assert "PASS" not in out

    def test_corrupted_unit_module_fails_named_checks(self, tmp_path, capsys,
                                                      monkeypatch):
        # a unit module whose boundary no longer sends 1 to 1: the handler's
        # "unit module: " axiom checks are its only verification
        real = crossed.CrossedModule

        def rotated(G, H, boundary, action):
            if H.name.startswith("ker("):  # built by unit_crossed_module
                boundary = boundary[-1:] + boundary[:-1]
            return real(G, H, boundary, action)

        monkeypatch.setattr(crossed, "CrossedModule", rotated)
        code = main(["crossed-units", "--in",
                     self._write(tmp_path, INVERSION)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        failing = [line for line in out.splitlines()
                   if line.startswith("  FAIL ")]
        assert failing
        assert all(line.startswith("  FAIL unit module: ") for line in failing)

    @pytest.mark.parametrize("content,message", [
        (b"\xff{}", r"not UTF-8 \(invalid start byte at byte 0\)"),
        (b"[" * 100000, "JSON nested too deeply")],
        ids=["not-utf8", "nested"])
    @pytest.mark.parametrize("flag", ["--in", "--nerve"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, content,
                                     message, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        args = ["--in", str(bad)] if flag == "--in" else \
            ["--in", self._write(tmp_path, TIMES2), "--nerve", str(bad)]
        code = main(["cech-classify", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert re.match(f"input error: .*{message}\n$", err)
        assert "Traceback" not in err


# --------------------------------------------------------------------------
# a mutation fuzzer for the exit-code contract

# JSON values of every type; dictionaries take the input's and the cover's
# keys, so that nested values look like malformed groups and nerves
_KEYS = ("inv", "free", "table", "name", "lambda", "delta", "parts",
         "intersections", "components", "containments", "component",
         "sub_parts", "sub_component")
_HUGE = st.sampled_from([2 ** 31, 2 ** 63, 2 ** 64, 10 ** 30, -1, -2 ** 63])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | _HUGE | st.just(2.5)
    | st.sampled_from(["", "a0", "a1", "c", "*"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), kids, max_size=3),
    max_leaves=8)

FUZZ_SEEDS = [TIMES2, THREE_TERM, INVERSION, dict(TIMES2, nerve=CIRCLE_NERVE),
              dict(THREE_TERM, nerve=SPLIT_U),
              dict(INVERSION, nerve=CIRCLE_NERVE)]


def _paths(doc, prefix=()):
    """The path of doc and of every entry below it, outermost first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_specs(draw):
    """A seed document with one to three entries dropped, replaced (by a
    boolean, a small, huge or negative integer, or any JSON value) or
    added, or its nerve replaced."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        *outer, last = path
        parent = doc
        for key in outer:
            parent = parent[key]
        op = draw(st.sampled_from(("drop", "bool", "int", "json", "add",
                                   "nerve")))
        if op == "drop":
            del parent[last]
        elif op == "bool":
            parent[last] = draw(st.booleans())
        elif op == "int":  # small ones are out of range as indices
            parent[last] = draw(st.integers(-3, 8) | _HUGE)
        elif op == "json":
            parent[last] = draw(_JSON)
        elif op == "add" and isinstance(parent[last], dict):
            parent[last][draw(st.sampled_from(_KEYS))] = draw(_JSON)
        else:
            doc["nerve"] = draw(_JSON)
    return doc


def _value_slots(doc):
    """The paths of the integers a valid input of doc's shape may vary,
    each with the range of values to draw: invariant factors and free
    ranks, map entries, group-table entries, and boundary and action
    indices (boundary[g] is in H, action[g][h] in G)."""
    order = {key: len(doc[key]["table"]) for key in ("G", "H") if key in doc}
    ranges = {"inv": (0, 12), "free": (0, 2), "maps": (-4, 8),
              "G": (0, order.get("G", 1) - 1),
              "H": (0, order.get("H", 1) - 1),
              "boundary": (0, order.get("H", 1) - 1),
              "action": (0, order.get("G", 1) - 1)}
    for path in _paths(doc):
        if not path or path[0] == "nerve":
            continue
        value = doc
        for key in path:
            value = value[key]
        if isinstance(value, int):
            yield path, ranges[path[2] if path[0] == "groups" else path[0]]


@st.composite
def value_mutated_specs(draw):
    """A seed document with one or two of its values (``_value_slots``)
    redrawn, and a command that accepts its kind: the shape stays valid,
    so most inputs reach the command's handler."""
    doc = draw(st.sampled_from(FUZZ_SEEDS))
    command = draw(st.sampled_from([c for c in COMMANDS
                                    if doc["kind"] in HANDLERS[c]]))
    slots = list(_value_slots(doc))
    for _ in range(draw(st.integers(1, 2))):
        path, (low, high) = draw(st.sampled_from(slots))
        doc = _replaced(doc, path, draw(st.integers(low, high)))
    return doc, command


def _assert_exit_code_contract(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--in", str(path), "--json",
                     "--max-states", "64"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        checks = json.loads(out.getvalue())["checks"]
        assert any(c["status"] == "fail" for c in checks)
    assert (err.getvalue() == "") == (code in (0, 1))


@settings(max_examples=400, deadline=None)
@given(mutated_specs(), st.sampled_from(COMMANDS))
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path_factory, doc,
                                                    command):
    _assert_exit_code_contract(tmp_path_factory, doc, command)


@settings(max_examples=400, deadline=None)
@given(value_mutated_specs())
def test_value_mutated_inputs_keep_the_exit_code_contract(tmp_path_factory,
                                                          doc_and_command):
    # mutated_specs() reaches a handler in about 1% of its examples; these
    # keep the input's shape, so most reach one
    _assert_exit_code_contract(tmp_path_factory, *doc_and_command)


# --------------------------------------------------------------------------
# the command line: cli._parse against the argparse parser

_OPTIONS = ("--in", "--nerve", "--max-states", "--against", "--json",
            "--text", "--check-acyclic")
_VALUES = st.sampled_from((
    "in.json", "idA", "idker", "idB", "0", "5", "-1", " -2", " 7", "1_0", "x",
    "", "-", "-h", "--json", "units", "10" * 3000))
_TOKENS = st.one_of(
    st.sampled_from(COMMANDS + _OPTIONS),
    st.sampled_from(_OPTIONS).map(lambda o: o[:-2]),  # --max, --ch, ...
    st.builds("{}={}".format, st.sampled_from(_OPTIONS), _VALUES),
    _VALUES, st.sampled_from(("--help", "--", "-x", "units2", "-5")))


@st.composite
def command_lines(draw):
    """A command line of the documented form, its options in any order and
    either spelling, then edited up to twice: a token inserted, dropped or
    replaced by one of _TOKENS."""
    parts = [[draw(st.sampled_from(COMMANDS))], ["--in", draw(_VALUES)]]
    for option in ("--nerve", "--max-states", "--against"):
        if draw(st.booleans()):
            parts.append([option, draw(_VALUES)])
    parts += [[flag] for flag in draw(st.sets(st.sampled_from(
        ("--json", "--text", "--check-acyclic"))))]
    argv = [token for part in draw(st.permutations(parts))
            for token in (["=".join(part)] if len(part) == 2 and
                          draw(st.booleans()) else part)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = draw(
            st.lists(_TOKENS, max_size=1))
    return argv


def _argparse(argv):
    """vars() of the argparse parser's namespace, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(console._build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=1000, deadline=None)
@given(command_lines())
@example(["units", "--in", "in.json"])
@example(["--in=in.json", "--text", "qiso", "--against", "idker"])
@example(["unit-complex", "--check-acyclic", "--in", "x", "--json",
          "--max-states= 7", "--nerve", "units"])
def test_fast_path_agrees_with_argparse(argv):
    # wherever the fast path accepts, argparse accepts the same namespace
    fast = cli._parse(argv)
    if fast is not None:
        assert vars(fast) == _argparse(argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["units", "--in", "f", "--help"],
    ["units", "--in", "f", "--max", "5"],  # an abbreviation
    ["units", "--in", "f", "--in", "g"], ["units", "--in", "f", "--json",
                                          "--json"],
    ["units", "--in", "f", "--json", "--text"],
    ["--in", "f"], ["units"], ["units", "--in"], ["units", "--in="],
    ["units2", "--in", "f"], ["--in", "f", "-5"],
    ["units", "units", "--in", "f"], ["units", "--in", "f", "extra"],
    ["units", "--in", "f", "--"], ["units", "--", "--in", "f"],
    ["units", "--in", "-"], ["units", "--json=1", "--in", "f"],
    ["qiso", "--in", "f", "--against", "idB"],
    ["units", "--in", "f", "--max-states", "-1"],
    ["units", "--in", "f", "--max-states", " -2"],
    ["units", "--in", "f", "--max-states", "ten"]])
def test_fast_path_declines_what_it_does_not_document(argv):
    assert cli._parse(argv) is None


def test_fast_path_accepts_every_corpus_command_line():
    corpus = _corpus()
    argvs = [[item["command"], "--in", "in.json", fmt, *item["args"]]
             for workload in ("desk-mix", "point-enum", "descent")
             for item in corpus.all_variants(workload)
             for fmt in ("--json", "--text")]
    assert len(argvs) == 2 * 544
    declined = [argv for argv in argvs if cli._parse(argv) is None]
    assert not declined, declined[:3]


@pytest.mark.parametrize("args,code,out,err", [
    (["-h"], 0, "usage: unital ", ""), (["--help"], 0, "usage: unital ", ""),
    (["units", "--max", "5"], 0, "result: PASS", ""),
    (["units", "--max", "3"], 3, "",
     "cap exceeded: unit scan needs 4 states (|A|^2), above the cap 3\n"),
    (["units", "--max-states", "-3"], 2, "",
     "argument --max-states: expected a nonnegative integer, got '-3'\n")])
def test_declined_command_lines_get_argparse(tmp_path, args, code, out, err):
    # in a fresh process, as the console script runs: help and usage
    # errors are argparse's, and an abbreviated option is still accepted
    path = tmp_path / "in.json"
    path.write_text(json.dumps(TIMES2))
    proc = _run_python("-c", CLI, *args, "--in", str(path))
    assert proc.returncode == code
    assert out in proc.stdout and proc.stderr.endswith(err)
    assert bool(proc.stderr) == (code >= 2)


# --------------------------------------------------------------------------
# which modules a command executes

ROOT = Path(__file__).resolve().parent.parent
LAZY = set(unital._LAYERS)
MODULES = {path.stem for path in (ROOT / "src" / "unital").glob("*.py")
           if path.stem != "__init__"}
# run cli.main, then print its exit code, every module the interpreter has
# imported, and the unital modules whose bodies have executed (a lazy
# module becomes a plain module when it executes)
EXECUTED = """
import contextlib, io, json, sys, types
import unital.cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = unital.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules), sorted(
    name.split(".")[1] for name, module in sys.modules.items()
    if name.startswith("unital.") and type(module) is types.ModuleType)]))
"""


CLI = "import sys; from unital.cli import main; sys.exit(main())"


def _run_python(*args, stdout=subprocess.PIPE, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120, preexec_fn=preexec_fn)


def _python(*args):
    proc = _run_python(*args)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return proc.stdout


def test_huge_json_integer_is_bad_input(tmp_path):
    # json.loads raises a plain ValueError on an integer longer than the
    # interpreter's int-string digit limit (4300 from Python 3.11); where
    # there is no limit, the integer parses and the group cap refuses it
    path = tmp_path / "in.json"
    path.write_text('{"kind": "complex2", "groups": {"A": {"inv": [%s]}}}'
                    % ("9" * 5000))
    proc = _run_python("-c", CLI, "homology", "--in", str(path))
    assert "Traceback" not in proc.stderr
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error: ")
    else:
        assert proc.returncode in (2, 3)


def test_huge_group_order_is_over_the_cap(tmp_path):
    # two 4,000-digit invariant factors parse, and their product is past
    # the interpreter's int-string digit limit
    d = "1" + "0" * 3999
    path = tmp_path / "in.json"
    path.write_text('{"kind": "complex2", "groups": {"A": {"inv": [%s, %s]}}}'
                    % (d, d))
    proc = _run_python("-c", CLI, "homology", "--in", str(path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "cap exceeded: group of order at least 2^26568 " \
                          "exceeds the cap 256\n"


def _decimal(digits):
    """The integer of a decimal string, read in 1,000-digit pieces so that
    no conversion meets the interpreter's int-string digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


@pytest.mark.parametrize("form", ["--json", "--text"])
def test_exact_group_past_the_digit_limit_prints(tmp_path, capsys, form):
    # each entry has about 2,200 digits, so the input parses; H^0 is
    # Z/(2^7300 3^4610), about 4,400 digits, past the interpreter's
    # int-string digit limit (4300 from Python 3.11), which main lifts
    # while it renders and restores afterwards
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "kind": "complex2", "groups": {"A": {"free": 2}, "B": {"free": 2}},
        "maps": {"lambda": [[2 ** 7300, 1], [0, 3 ** 4610]]}}))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["homology", "--in", str(path), form]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    out, err = capsys.readouterr()
    assert err == ""
    factor = re.search(r'"0": "Z/(\d+)"', out).group(1)
    assert _decimal(factor) == 2 ** 7300 * 3 ** 4610


def _assert_output_error(proc, reason):
    assert proc.returncode == 2
    assert proc.stderr.startswith("output error: ") and reason in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_closed_stdout_pipe_exits_2(tmp_path):
    # the reader is gone before the report is written; Python ignores
    # SIGPIPE, so the write raises BrokenPipeError
    path = tmp_path / "in.json"
    path.write_text(json.dumps(TIMES2))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_python("-c", CLI, "units", "--in", str(path),
                           stdout=write)
    finally:
        os.close(write)
    _assert_output_error(proc, "Broken pipe")


@st.composite
def nerves(draw):
    """Nerve documents of 1-3 parts with component names from a two-letter
    alphabet, so that names repeat, and optional containments, each into
    a face of its intersection; some leave a face ambiguous."""
    parts = ["p0", "p1", "p2"][:draw(st.integers(1, 3))]
    names = st.sampled_from("xy")
    components = {}
    for r in range(1, len(parts) + 1):
        for s in itertools.combinations(parts, r):
            # declared only once every subset is nonempty
            if all(len(t) < 2 or t in components
                   for t in itertools.combinations(s, r - 1)) \
                    and draw(st.booleans()):
                components[s] = draw(st.lists(names, min_size=1, max_size=2))
    containments = [
        {"parts": list(s), "component": draw(st.sampled_from(comps)),
         "sub_parts": list(draw(st.sampled_from(
             list(itertools.combinations(s, len(s) - 1))))),
         "sub_component": draw(names | st.just("*"))}
        for s, comps in components.items()
        if len(s) > 1 and draw(st.booleans())]
    return {"parts": parts,
            "intersections": [{"parts": list(s), "components": comps}
                              for s, comps in components.items()],
            "containments": containments}


UNIT_SEEDS = [Z2_ZERO, _replaced(Z2_ZERO, ("maps", "lambda"), [[1]]),
              _replaced(THREE_TERM, ("maps",), {"delta": [[1]],
                                                "lambda": [[0]]})]


@settings(max_examples=100, deadline=None)
@given(nerves())
@example({"parts": ["U", "V"], "intersections": [
    {"parts": ["U", "V"], "components": ["x", "x"]}]}).via("repeated names")
def test_unit_checks_hold_on_every_nerve(tmp_path_factory, nerve):
    # the rows of the double complex of an acyclic unit complex are
    # acyclic, so the unit checks of cech-classify are theorems on any
    # nerve: a cover exits 0, 2 as bad input or 3 over the state cap, but
    # never 1; a repeated component name is bad input
    repeats = any(len(set(i["components"])) < len(i["components"])
                  for i in nerve["intersections"])
    path = tmp_path_factory.mktemp("nerve") / "in.json"
    for doc in UNIT_SEEDS:
        path.write_text(json.dumps(dict(doc, nerve=nerve)))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["cech-classify", "--in", str(path), "--json"])
        assert code != 1
        assert code == 2 or not repeats


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FUZZ_SEEDS + [NOT_CROSSED]) | mutated_specs(),
       st.sampled_from(COMMANDS))
@example(TIMES2, "units").via("exit 0")
@example(NOT_CROSSED, "crossed-verify").via("exit 1")
def test_mutated_inputs_with_a_closed_stdout(tmp_path_factory, doc, command):
    # a sample of the fuzzer's inputs, each run in process with an open
    # stdout and then in a fresh process whose stdout pipe has no reader;
    # nearly every mutated input is bad input, so the unmutated seeds (and
    # an exit-1 input) are drawn too, to reach the report's write
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(doc))
    args = [command, "--in", str(path), "--json", "--max-states", "64"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_python("-c", CLI, *args, stdout=write)
    finally:
        os.close(write)
    if code in (0, 1):
        _assert_output_error(proc, "Broken pipe")
    else:
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_full_stdout_exits_2(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(TIMES2))
    with open("/dev/full", "w") as full:
        proc = _run_python("-c", CLI, "units", "--in", str(path), "--json",
                           stdout=full)
    _assert_output_error(proc, "No space left on device")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS as Linux enforces it")
def test_memory_error_exits_3(tmp_path):
    # --max-states counts states, not bytes.  Under a raised cap, the torsor
    # scan of Z/48 -1-> Z/48 on the circle keeps its 110,592 cocycles and
    # peaks near 62 MB of address space; a small homology input runs in
    # under 20 MB (both measured on Linux, Python 3.11).  The limit is set
    # in the child only, between fork and exec.
    import resource

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (40 * 2 ** 20, 40 * 2 ** 20))

    small, big, nerve = (tmp_path / name for name in
                         ("small.json", "big.json", "nerve.json"))
    small.write_text(json.dumps(TIMES2))
    big.write_text(json.dumps({
        "kind": "complex2", "groups": {"A": {"inv": [48]},
                                       "B": {"inv": [48]}},
        "maps": {"lambda": [[1]]}}))
    nerve.write_text(json.dumps(CIRCLE_NERVE))
    proc = _run_python("-c", CLI, "homology", "--in", str(small),
                       preexec_fn=limited)
    assert proc.returncode == 0 and proc.stderr == ""
    proc = _run_python("-c", CLI, "cech-classify", "--in", str(big),
                       "--nerve", str(nerve), "--max-states", str(10 ** 22),
                       preexec_fn=limited)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (3, "", "cap exceeded: memory\n")


def test_cech_classify_on_the_ring_with_order_16_terms(tmp_path):
    # (Z/2)^4 -0-> (Z/2)^4 -id-> (Z/2)^4 over four parts in a cycle (levels
    # [4, 12, 28, 60]); at --max-states 0 nothing on this path is charged
    names = [f"a{i}" for i in range(4)]
    ring = {"parts": names, "intersections": [
        {"parts": [names[i], names[(i + 1) % 4]], "components": ["c"]}
        for i in range(4)]}
    inv = {"inv": [2, 2, 2, 2]}
    zero = [[0] * 4 for _ in range(4)]
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "kind": "complex3", "nerve": ring,
        "groups": {"A": inv, "B": inv, "C": inv},
        "maps": {"delta": zero, "lambda": identity}}))
    proc = _run_python("-c", CLI, "cech-classify", "--in", str(path),
                       "--json", "--max-states", "0")
    assert proc.returncode == 0 and proc.stderr == ""
    data = json.loads(proc.stdout)["data"]
    assert data["nerve_levels"] == [4, 12, 28, 60]
    assert data["h0_of_unit_complex"] == "0"
    assert data["h0_of_coefficients"] == "0"


def test_perfbench_micro_runs_on_the_library(tmp_path):
    # perfbench/micro.py binds FgAbGroup, GroupElem addition,
    # FiniteGroup.symmetric and .mul, and smith_normal_form
    out = json.loads(_python(str(ROOT / "perfbench" / "micro.py")))
    assert set(out) == {"abelian.elem_add_ns", "crossed.mul_ns",
                        "abelian.snf_us.6x6", "abelian.snf_us.20x20"}
    assert all(v > 0 for v in out.values())


SCANS = {"groups", "coded", "point_models"}
ALGEBRA = {"groups", "abelian", "complexes"}
CROSSED_UNITS = {"tables", "coded", "crossed", "covers"}
CECH = {"groups", "coded", "abelian", "complexes", "covers", "cech"}


# each command's layers, written out: the claim the layer table must keep.
# Every command line here asks for --json, as the benchmark's do, unless
# it names its format
LAYER_CASES = [
    pytest.param(command, doc, 0, layers, id=f"{command}{suffix}")
    for command, layers, layers_3 in (
        ("homology", ALGEBRA, ALGEBRA), ("qiso", ALGEBRA, ALGEBRA),
        ("unit-complex", ALGEBRA, ALGEBRA), ("units", SCANS, SCANS),
        ("contractible", SCANS, SCANS),
        # a 3-term complex has no torsor or unit-cocycle scan
        ("cech-classify", CECH, CECH - {"coded"}))
    for doc, suffix, layers in ((TIMES2, "", layers),
                                (THREE_TERM, "-3", layers_3))] + [
    pytest.param("crossed-verify", INVERSION, 0, {"tables", "crossed"},
                 id="crossed-verify"),
    pytest.param("crossed-units", INVERSION, 0, CROSSED_UNITS,
                 id="crossed-units"),
    pytest.param("crossed-units", dict(INVERSION, nerve=CIRCLE_NERVE), 0,
                 CROSSED_UNITS, id="crossed-units-circle"),
    pytest.param("units", '{"kind": "compl', 2, set(), id="truncated"),
    # parsing a nerve executes covers and no Cech calculus
    pytest.param("units", dict(TIMES2, nerve=CIRCLE_NERVE), 0,
                 SCANS | {"covers"}, id="units-circle"),
    # refused by Cover itself, before any group is built
    pytest.param("units", dict(TIMES2, nerve=_replaced(
        CIRCLE_NERVE, ["intersections", 0, "components"], ["c", "c"])), 2,
                 {"covers"}, id="repeated-component"),
    # refused by CrossedModule itself, before any axiom is checked
    pytest.param("crossed-verify", _replaced(INVERSION, ["boundary", 2], 5),
                 2, {"tables"}, id="boundary-out-of-range"),
    # the torsor scan's charge refuses before any table or Smith form
    pytest.param(("cech-classify", "--max-states", "0", "--json"), TIMES2, 3,
                 {"groups", "covers", "cech"}, id="cech-classify-capped"),
    # text output, and a command line that cli._parse declines (an
    # abbreviated option), are the console's
    pytest.param(("units", "--text"), TIMES2, 0, SCANS | {"console"},
                 id="units-text"),
    pytest.param(("units", "--max", "5", "--json"), TIMES2, 0,
                 SCANS | {"console"}, id="units-argparse")]


@pytest.mark.parametrize("command,doc,code,executed", LAYER_CASES)
def test_command_executes_only_its_layers(tmp_path, command, doc, code,
                                          executed):
    path = tmp_path / "in.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    args = (command, "--json") if isinstance(command, str) else command
    got_code, _, modules = json.loads(
        _python("-c", EXECUTED, *args, "--in", str(path)))
    assert got_code == code
    assert set(modules) & LAZY == executed
    # every module outside the layer table runs in every command, and a
    # layer that imports names from another executes it too
    assert set(modules) | LAZY == MODULES
    assert all(set(unital._LAYERS[layer][0]) <= executed for layer in executed)


def _nodes(module):
    """The AST node count of a unital module's source file."""
    path = ROOT / "src" / "unital" / f"{module}.py"
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


# the ceiling on the AST nodes of unital source that each verdict compiles:
# the files of the package and of every module it executes.  At the
# commit before each command's handlers moved into its own layer these
# verdicts compiled 10,762 (units, contractible), 18,745 (cech-classify),
# 9,245 (crossed-verify) and 5,502 (the refusal) nodes; crossed-units
# compiled 13,070 while it read its nerve from cech.  units and
# contractible compiled 8,391 while the unit check scanned a fiber per
# pair of units and units counted with its own pair loop, 8,195 while
# level 2 re-derived lam's units and copied two premises of its unit
# check, 8,104 since; crossed-units compiled 9,559 while its descent check
# multiplied every triple by (1,1,1), 9,531 since
COMPILED = [
    pytest.param(("units",), TIMES2, 0, 8200, id="units"),
    pytest.param(("units",), THREE_TERM, 0, 8200, id="units-3"),
    pytest.param(("contractible",), TIMES2, 0, 8200, id="contractible"),
    pytest.param(("contractible",), THREE_TERM, 0, 8200,
                 id="contractible-3"),
    pytest.param(("cech-classify",), TIMES2, 0, 17500, id="cech-classify"),
    pytest.param(("crossed-verify",), INVERSION, 0, 6800,
                 id="crossed-verify"),
    pytest.param(("crossed-units",), INVERSION, 0, 9600, id="crossed-units"),
    pytest.param(("crossed-units",), dict(INVERSION, nerve=CIRCLE_NERVE), 0,
                 9600, id="crossed-units-circle"),
    pytest.param(("units",), '{"kind": "compl', 2, 4000, id="truncated")]


@pytest.mark.parametrize("args,doc,code,ceiling", COMPILED)
def test_verdict_compiles_only_its_own_code(tmp_path, args, doc, code,
                                            ceiling):
    # compiling its own source is most of what a verdict costs in unital
    # when bytecode is not written, and the count is deterministic
    path = tmp_path / "in.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    got_code, _, modules = json.loads(
        _python("-c", EXECUTED, *args, "--json", "--in", str(path)))
    assert got_code == code
    assert "console" not in modules
    assert sum(map(_nodes, ["__init__", *modules])) <= ceiling


# parse every corpus spec in one fresh process, then print the lazy
# unital modules whose bodies have executed
PARSED = """
import json, sys, types
import unital.cli
from unital.specfile import SpecError, parse_spec
from unital.verification import CapExceeded
with open(sys.argv[1], encoding="utf-8") as fh:
    texts = json.load(fh)
for text in texts:
    try:
        parse_spec(text)
    except (SpecError, CapExceeded):
        pass
print(json.dumps(sorted(
    name.split(".")[1] for name, module in sys.modules.items()
    if name.startswith("unital.") and type(module) is types.ModuleType)))
"""


def test_parsing_executes_only_the_value_layers(tmp_path):
    # every command parses its input, so the layers parsing executes are
    # compiled by every verdict: groups, tables and covers, never a Smith
    # form, a Cech calculus or a crossed-module axiom
    corpus = _corpus()
    texts = [item["spec"] for workload in corpus.WORKLOADS
             for item in corpus.all_variants(workload)]
    assert len(texts) == 544
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(texts))
    executed = set(json.loads(_python("-c", PARSED, str(path)))) & LAZY
    assert executed <= {"groups", "tables", "covers"}


def test_from_divisors_reaches_abelian_only_when_called():
    # the one call from groups up into abelian goes through the lazy module
    out = _python("-c", """
import sys, types
from unital import groups
def executed():
    return type(sys.modules["unital.abelian"]) is types.ModuleType
Z = groups.FgAbGroup
print(executed(), Z.from_divisors(2, 3), executed())
""")
    assert out.split() == ["False", "Z/6", "True"]


# one verdict per command, and one refused by its state cap
VERDICTS = [
    pytest.param(["homology"], TIMES2, 0, id="homology"),
    pytest.param(["units"], TIMES2, 0, id="units"),
    pytest.param(["cech-classify"], dict(TIMES2, nerve=CIRCLE_NERVE), 0,
                 id="cech-classify-circle"),
    pytest.param(["crossed-verify"], INVERSION, 0, id="crossed-verify"),
    pytest.param(["crossed-units"], dict(INVERSION, nerve=CIRCLE_NERVE), 0,
                 id="crossed-units-circle"),
    pytest.param(["contractible", "--json"], THREE_TERM, 0,
                 id="contractible"),
    pytest.param(["unit-complex", "--check-acyclic", "--text"], THREE_TERM,
                 0, id="unit-complex-acyclic"),
    pytest.param(["qiso", "--against=idker"], TIMES2, 0, id="qiso-idker"),
    pytest.param(["units", "--max-states", "3"], TIMES2, 3,
                 id="units-capped")]
# the same, and one input of the wrong kind
EVERY_EXIT = VERDICTS + [
    pytest.param(["crossed-verify"], TIMES2, 2, id="wrong-kind")]


@pytest.mark.parametrize("args,doc,code", VERDICTS)
def test_command_imports_no_dataclasses(tmp_path, args, doc, code):
    # dataclasses, and the inspect it imports, cost 20-40 ms of start-up;
    # hashlib loads OpenSSL through _hashlib, about 3.5 MB of peak RSS; and
    # argparse, with gettext and locale, about 6 ms, which a command line
    # of the documented form does not need
    got_code, modules, _ = json.loads(
        _python("-c", EXECUTED, *_verdict_args(tmp_path, args, doc)))
    assert got_code == code
    assert not {"dataclasses", "inspect", "hashlib", "_hashlib", "argparse",
                "gettext", "locale"} & set(modules)


def _verdict_args(tmp_path, args, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return [*args, "--in", str(path)]


@pytest.mark.parametrize("args,doc,code", EVERY_EXIT)
def test_in_process_main_freezes_and_leaks_nothing(tmp_path, capsys, args,
                                                   doc, code):
    # main's exit hook freezes the collector only when the interpreter
    # exits, so a caller in process keeps a collectable heap; and the
    # objects a freeze at exit would skip leave nothing to the collector
    # that warns or stays uncollectable
    argv = _verdict_args(tmp_path, args, doc)
    gc.collect()
    frozen = gc.get_freeze_count()  # 375 objects of its own on 3.12.1
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert main(argv) == code
            gc.collect()
    finally:
        sys.unraisablehook = hook
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert not unraisable and not gc.garbage


# main twice, with gc.freeze counting its calls, which come at exit
TWICE = """
import contextlib, gc, io, sys
from unital.cli import main
freeze, frozen = gc.freeze, gc.get_freeze_count()

def counted():
    print("freeze", gc.get_freeze_count() == frozen)
    freeze()

gc.freeze = counted
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
    main(sys.argv[1:])
print("exit")
"""

# a verdict whose exit hook is taken back before the interpreter exits
UNHOOKED = """
import atexit, gc, sys
from unital.cli import main
code = main()
atexit.unregister(gc.freeze)
sys.exit(code)
"""


def test_main_registers_one_exit_hook(tmp_path):
    out = _python("-c", TWICE, *_verdict_args(tmp_path, ["units"], TIMES2))
    assert out.splitlines() == ["exit", "freeze True"]


def test_main_grows_no_exit_table(tmp_path, capsys):
    # the exit hook is registered on main's first call only, so calling
    # main again adds no slot to the interpreter's table of exit hooks
    argv = _verdict_args(tmp_path, ["units"], TIMES2)
    assert main(argv) == 0
    hooks = atexit._ncallbacks()
    for _ in range(3):
        assert main(argv) == 0
        assert atexit._ncallbacks() == hooks
    capsys.readouterr()


def _timing_masked(text):
    return re.sub(r'("seconds": |time: )[0-9.e-]+', r"\1", text)


@pytest.mark.parametrize("args,doc,code", EVERY_EXIT)
def test_exit_hook_changes_no_output(tmp_path, args, doc, code):
    argv = _verdict_args(tmp_path, args, doc)
    runs = [_run_python("-c", child, *argv) for child in (CLI, UNHOOKED)]
    hooked, unhooked = ((proc.returncode, _timing_masked(proc.stdout),
                         proc.stderr) for proc in runs)
    assert hooked == unhooked
    assert hooked[0] == code


@pytest.mark.parametrize("args,doc,code",
                         [p for p in VERDICTS if p.values[2] == 0])
def test_verdict_exits_without_warnings_in_dev_mode(tmp_path, args, doc,
                                                    code):
    # development mode shows ResourceWarning and the warnings of shutdown,
    # and -W error makes each one an `Exception ignored` report on stderr
    proc = _run_python("-X", "dev", "-W", "error", "-c", CLI,
                       *_verdict_args(tmp_path, args, doc))
    assert (proc.returncode, proc.stderr) == (0, "")


# the same run, with the built-in SHA-256 modules blocked
WITHOUT_BUILTIN_SHA = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from unital.cli import main
code = main(sys.argv[1:])
print("hashlib" in sys.modules)
sys.exit(code)
"""


def test_builtin_sha_is_picked_by_version():
    # a failed import of the other version's module would search sys.path
    # in every verdict
    spy = ("import sys\nclass Spy:\n    def find_spec(name, *_): print(name)"
           "\nsys.meta_path.insert(0, Spy)\nimport unital.verification")
    sought = set(_python("-c", spy).split()) & {"_sha2", "_sha256"}
    assert sought == {"_sha2" if sys.version_info >= (3, 12) else "_sha256"}


@pytest.mark.parametrize("command,doc", [
    ("units", TIMES2), ("crossed-verify", INVERSION)],
    ids=["units", "crossed-verify"])
def test_hashlib_fallback_gives_the_same_digests(tmp_path, command, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    args = (command, "--in", str(path), "--json")
    report = json.loads(_python("-c", CLI, *args))
    *lines, fell_back = _python("-c", WITHOUT_BUILTIN_SHA, *args).splitlines()
    assert fell_back == "True"
    fallback = json.loads("\n".join(lines))
    assert report["report_digest"] == fallback["report_digest"]
    assert report["input_digest"] == fallback["input_digest"]


@given(st.text())
def test_sha256_is_hashlibs(text):
    data = text.encode()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


# perfbench names these but they are gone from the library: the tracer
# skips them, and their metrics read 0 (both reported in CHANGES.md)
STALE_HARNESS_NAMES = {"abelian._snf_presentation",
                       "point_models.unit_1morphisms"}


def _perfbench_constant(name, file):
    tree = ast.parse((ROOT / "perfbench" / file).read_text())
    return next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == name)


def _perfbench_imports(file):
    """(module, name) for each `from unital.<module> import name`."""
    for node in ast.parse((ROOT / "perfbench" / file).read_text()).body:
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("unital."):
            yield from ((node.module.split(".")[1], alias.name)
                        for alias in node.names)


def test_tracer_finds_every_module_it_wraps(tmp_path):
    # perfbench/tracer.py reads sys.modules["unital.<m>"] for each m in
    # SPANNED right after `import unital.cli`, and wraps what vars() holds
    tracer = ROOT / "perfbench" / "tracer.py"
    spanned = ast.literal_eval(_perfbench_constant("SPANNED", "tracer.py"))
    loaded = _python("-c", "import sys, unital.cli; print(*sys.modules)")
    assert {f"unital.{m}" for m in spanned} <= set(loaded.split())
    path, spans = tmp_path / "in.json", tmp_path / "spans.json"
    for command, doc, *own in (
            ("homology", TIMES2, "complexes.homology"),
            ("units", TIMES2, "point_models.units_and_morphism_count_1"),
            ("cech-classify", TIMES2, "cech.torsor_classes",
             "cech.cech_nerve"),
            ("crossed-verify", INVERSION, "crossed.verify_crossed_module"),
            ("crossed-units", INVERSION, "crossed.enumerate_unit_triples")):
        path.write_text(json.dumps(doc))
        _python(str(tracer), str(spans), command, "--in", str(path),
                "--json")
        names = {span[0] for span in json.loads(spans.read_text())["spans"]}
        assert {"specfile.parse_spec", *own} <= names, command


def test_perfbench_names_resolve_in_their_modules():
    # a per-layer metric whose function moved to another module reads 0
    # without an error: the tracer spans only the functions each module
    # defines itself, and the public ones or those in PRIVATE
    imported = {name: module for file in ("tracer.py", "micro.py")
                for module, name in _perfbench_imports(file)}
    for name, module in imported.items():
        assert hasattr(sys.modules[f"unital.{module}"], name), (module, name)
    private = {".".join(ast.literal_eval(pair)) for pair in
               _perfbench_constant("PRIVATE", "tracer.py").elts}
    # span names of wrapped methods: (class, attribute, name)
    methods = set()
    for table in ("METHODS", "COUNTED"):
        for cls, attr, name in (t.elts for t in
                                _perfbench_constant(table, "tracer.py").elts):
            home = sys.modules[f"unital.{imported[cls.id]}"]
            assert hasattr(getattr(home, cls.id), attr.value)
            methods.add(name.value)
    groups = ast.literal_eval(_perfbench_constant("GROUPS", "layers.py"))
    spanned = {n for names in groups.values() for n in names} | private
    for full in sorted(spanned - methods - STALE_HARNESS_NAMES):
        module, name = full.split(".")
        home = sys.modules[f"unital.{module}"]
        assert hasattr(home, name), f"{full} is not defined"
        assert not name.startswith("_") or full in private, full
        value = getattr(home, name)
        if inspect.isfunction(value):
            assert value.__module__ == home.__name__, \
                f"{full} is defined in {value.__module__}"


def test_export_table():
    for module, names in unital._EXPORTS.items():
        home = sys.modules[f"unital.{module}"]
        for name in names:
            scope = {}
            exec(f"from unital import {name}", scope)
            assert scope[name] is getattr(home, name)
            assert scope[name].__module__ == home.__name__
            assert name in dir(unital)
    assert set(unital.__all__) == \
        {name for names in unital._EXPORTS.values() for name in names}
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        unital.nonesuch
