"""The mutation catalogue: small faults that named tests must catch.

    python tests/mutants.py

Each entry of ``MUTANTS`` is (name, file under ``src/unital``, an exact
source fragment, its replacement, the ids of the tests that must fail).
For each mutant the runner copies ``src/``, ``tests/``, ``perfbench/``
(which the golden-digest and perfbench-name tests read), ``README.md``
and ``pyproject.toml`` into a temporary directory, applies the mutant to
the copy and runs the named tests there with pytest; the tests find the
copy's ``src/`` from their own path.  A mutant is killed when every named
test fails, and it survives otherwise.  A fragment that does not occur
exactly once is an error, checked for every entry before any test runs,
so the catalogue cannot go stale silently.

``CONTROL`` changes only a comment and runs every catalogued test.  It
must survive: that shows the runner can report a survivor, and that the
named tests pass on the unmutated code.  The exit status is 0 when every
mutant is killed and the control survives, 1 otherwise, and 2 for a
stale fragment.  Only the standard library and pytest are needed;
pytest does not collect this file, and no test imports it.

Later work adds its mutants here, with the tests that kill them.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")

MUTANTS = [
    # the elimination, ROADMAP item 15's seed
    ("snf-divisibility-repair-skipped", "abelian.py",
     "        if bad is not None:\n",
     "        if False:\n",
     ["tests/test_abelian.py::TestSmithNormalForm::"
      "test_against_determinantal_divisors"]),
    ("snf-add-row-drops-the-UiT-update", "abelian.py",
     "            UiT[i] = axpy(UiT[i], -q, UiT[k])\n",
     "            pass\n",
     ["tests/test_abelian.py::TestElimination::"
      "test_matches_the_extended_gcd_oracle"]),
    ("classify-solver-without-incoming-columns", "complexes.py",
     "rows = [r + list(b) for r, b in zip(self._reps, self._in)]",
     "rows = [list(r) for r in self._reps]",
     ["tests/test_complexes.py::TestHomology::"
      "test_matches_the_kernel_cokernel_oracle"]),
    # level 2 is level 1 glued: one gluing builds the unit complex and
    # both models, so its sign reaches all three
    ("glue-d2-plus-delta-s", "complexes.py",
     "d2 = d.compose(proj_s - delta_s.compose(proj_a))",
     "d2 = d.compose(proj_s + delta_s.compose(proj_a))",
     ["tests/test_complexes.py::TestUnitComplex2::test_always_acyclic",
      "tests/test_complexes.py::TestLevelTwoFromLevelOne::"
      "test_builders_equal_their_direct_oracles",
      "tests/test_complexes.py::TestQuasiIsomorphism::"
      "test_three_term_alternates"]),
    ("enumerate-units-2-reads-delta", "point_models.py",
     "return enumerate_units_1(Complex(X.terms[1:], X.maps[1:]))",
     "return enumerate_units_1(Complex(X.terms[:2], X.maps[:1]))",
     ["tests/test_point_models.py::TestUnits2FromLevelOne::"
      "test_equals_the_direct_oracle"]),
    ("layer-table-drops-covers", "__init__.py",
     '    "covers": ((), ()),\n',
     "",
     ["tests/test_source.py::test_lazy_modules_import_only_lower_layers",
      "tests/test_source.py::test_docs_name_the_layers_in_table_order"]),
    # one report handler per command
    ("qiso-3-term-gets-level-1-builders", "complexes.py",
     "if len(X.maps) == 1 else {\"idA\": sum_model",
     "if len(X.maps) else {\"idA\": sum_model",
     ["tests/test_cli.py::TestRun::test_qiso_both_models_three_term"]),
    # exact integers in the value layer
    ("cech-sign-a-float-again", "cech.py",
     "(-1) ** ((p + 1 + i) % 2)",
     "(-1) ** (p + 1 + i)",
     ["tests/test_cech.py::TestClassifyH0::"
      "test_three_term_total_complex_holds_only_ints",
      "tests/test_cech.py::TestUnitCocycleRoundTrip::"
      "test_jk_constant_total_cocycle"]),
    ("group-takes-non-integers", "groups.py",
     "        if not all(map(_is_int, inv + (self.free_rank,))):\n",
     "        if False:\n",
     ["tests/test_abelian.py::TestCanonicalForm::test_refuses_non_integers"]),
    ("hom-takes-non-integer-entries", "groups.py",
     "        if not all(_is_int(x) for row in rows for x in row):\n",
     "        if False:\n",
     ["tests/test_abelian.py::TestHoms::test_refuses_non_integer_entries"]),
    ("reduce-rounds-coordinates-again", "groups.py",
     '        coords = _ints(coords, "coordinates")\n',
     "        coords = [int(c) for c in coords]\n",
     ["tests/test_abelian.py::TestCanonicalForm::"
      "test_constructions_refuse_non_integers[2.5-reduce]",
      "tests/test_abelian.py::TestCanonicalForm::"
      "test_constructions_refuse_non_integers[True-reduce]"]),
    # charges come first and count every factor (ROADMAP item 16)
    ("torsor-charge-drops-the-B-factor", "cech.py",
     'charge("torsor scan", A.order() ** n1 * B.order() ** n0,',
     'charge("torsor scan", A.order() ** n1,',
     ["tests/test_cech.py::test_charge_comes_first[torsor_classes]"]),
    ("crossed-unit-scan-charged-after-it-runs", "crossed.py",
     '    charge("coherence scan", G.order ** 3, "|G|^3", max_states)\n'
     "    units, pairs, coherence = coded.unit_morphism_checks(\n"
     "        G, H, X.boundary, X.action)\n",
     "    units, pairs, coherence = coded.unit_morphism_checks(\n"
     "        G, H, X.boundary, X.action)\n"
     '    charge("coherence scan", G.order ** 3, "|G|^3", max_states)\n',
     ["tests/test_cli.py::TestCliProcess::test_unit_scan_cap_builds_no_unit",
      "tests/test_cech.py::test_charge_comes_first"
      "[enumerate_units_nonabelian]"]),
    # the crossed module's own tables, so only the enumeration spy sees it
    ("triple-charge-after-the-enumeration", "crossed.py",
     '    charge("triple enumeration", X.G.order ** n0, "|G|^|V_0|", '
     "max_states)\n"
     "    return map(_triple_of(X, nerve.faces(1)),\n"
     "               itertools.product(X.G.elements(), repeat=n0))\n",
     "    triples = itertools.product(X.G.elements(), repeat=n0)\n"
     '    charge("triple enumeration", X.G.order ** n0, "|G|^|V_0|", '
     "max_states)\n"
     "    return map(_triple_of(X, nerve.faces(1)), triples)\n",
     ["tests/test_cech.py::test_charge_comes_first[enumerate_unit_triples]"]),
    # subquotient's Gaussian reduction and the lift of its cycles
    ("subquotient-lift-skipped", "abelian.py",
     "    for _, c, u, row in reversed(lifts):",
     "    for _, c, u, row in lifts[:0]:",
     ["tests/test_cech.py::TestSubquotient::"
      "test_chained_pivots_lift_last_first",
      "tests/test_cech.py::TestSubquotient::"
      "test_matches_the_dense_oracle_on_planted_pieces",
      "tests/test_cech.py::TestSubquotient::test_kernel_with_planted_units",
      "tests/test_cech.py::TestSubquotient::"
      "test_homology_classifies_its_representatives"]),
    ("subquotient-lift-first-pivot-first", "abelian.py",
     "    for _, c, u, row in reversed(lifts):",
     "    for _, c, u, row in lifts:",
     ["tests/test_cech.py::TestSubquotient::"
      "test_chained_pivots_lift_last_first"]),
    ("cancel-units-ignores-the-row-order", "abelian.py",
     "if u and self.orders[r] == d and (",
     "if u and (",
     ["tests/test_cech.py::TestReducedTotalComplex::"
      "test_unequal_orders_are_not_cancelled"]),
    # coherence as the group law of the scanned table (ROADMAP item 18)
    ("coded-table-one-wrong-entry", "coded.py",
     "        self.table, self.inverse, self.generators = table, inverse, "
     "generators\n",
     "        self.table, self.inverse, self.generators = table[:-1] + (\n"
     "            table[-1][:-1] + (n - 1,),), inverse, generators\n",
     ["tests/test_crossed.py::TestCoherenceOracle::"
      "test_every_one_entry_corruption",
      "tests/test_point_models.py::TestContractible1::test_zero_z3"]),
    ("group-law-associativity-over-no-generator", "record.py",
     '    return next((("associativity", x, s) for s in generators\n',
     '    return next((("associativity", x, s) for s in ()\n',
     ["tests/test_crossed.py::TestCoherenceOracle::"
      "test_every_one_entry_corruption",
      "tests/test_crossed.py::TestTableValidation::"
      "test_every_magma_up_to_order_3"]),
    ("group-law-drops-the-inverse-law", "record.py",
     "        if not row[b] == e == table[b][a]:\n",
     "        if False:\n",
     ["tests/test_point_models.py::TestFaultInjection::"
      "test_incoherent_vertical_composition_fails_level_2",
      "tests/test_crossed.py::TestCoherenceOracle::"
      "test_every_one_entry_corruption"]),
    # the one Cech differential of a coded section, for the torsor scans
    # and the descent triples
    ("cech-differential-d1-before-d0", "coded.py",
     "mul[x[f0]][inv[x[f1]]]",
     "mul[x[f1]][inv[x[f0]]]",
     ["tests/test_cech.py::TestSections::"
      "test_coded_cech_differential_is_d0_minus_d1",
      "tests/test_crossed.py::TestH0GroupLaw::"
      "test_triples_and_law_match_the_oracle",
      "tests/test_cech.py::TestCodedTorsorScan::"
      "test_every_cocycle_against_the_definitions",
      "tests/test_cech.py::TestCodedUnitScan::"
      "test_every_cocycle_against_the_definitions"]),
    # a containment is found by its source component and its target:
    # keyed on less, a face reads the first declared containment, or the
    # one into the lower-numbered parts, so relabelling the cover moves it
    ("component-in-ignores-the-target", "covers.py",
     "        key = (source_set, comp, target_set)\n",
     "        key = next((k for k in self.containments\n"
     "                    if k[:2] == (source_set, comp)), None)\n",
     ["tests/test_change_of_basis.py::"
      "test_cech_classify_survives_relabelled_covers[split]"]),
    ("component-in-drops-the-last-part", "covers.py",
     "        key = (source_set, comp, target_set)\n",
     "        key = (source_set, comp, source_set - {max(source_set)})\n",
     ["tests/test_change_of_basis.py::"
      "test_cech_classify_survives_relabelled_covers[split]"]),
    # level 2 by translation: each hypothesis of the argument is checked,
    # and the listing of the oracles sees each one go
    ("level-2-drops-lam-delta-zero", "point_models.py",
     "if lam[delta[x]] != C.identity]",
     "if False]",
     ["tests/test_point_models.py::TestLevel2Translation::"
      "test_every_corruption_the_listing_fails_fails_here",
      "tests/test_point_models.py::TestFaultInjection::"
      "test_fault_injected_contractible_exits_1"]),
    ("level-2-ignores-the-lam-check", "point_models.py",
     "units, joined, _ = unit_morphism_checks(B, C, lam, "
     'names=("B", "lam"))',
     "units, joined = unit_morphism_checks(B, C, lam, "
     'names=("B", "lam"))[0], []',
     ["tests/test_point_models.py::TestLevel2Translation::"
      "test_every_corruption_the_listing_fails_fails_here",
      "tests/test_point_models.py::TestFaultInjection::"
      "test_level_2_fails_on_a_b_that_one_generator_misses"]),
    ("level-2-shift-with-the-wrong-sign", "point_models.py",
     "add[s[1]][neg[phi_c]]",
     "add[phi_c][neg[s[1]]]",
     ["tests/test_point_models.py::TestLevel2Translation::"
      "test_agrees_with_the_pair_listing"]),
    # one morphism per pair of units by cancellation: each hypothesis of
    # the argument is checked, and the pair scan of the oracles sees each
    # one go
    ("unit-check-commutativity-on-no-generator", "coded.py",
     "((x, s) for s in gens for x, row in enumerate(mul)\n"
     "               if mul[s]",
     "((x, s) for s in () for x, row in enumerate(mul)\n"
     "               if mul[s]",
     ["tests/test_crossed.py::TestUnitPairHypotheses::"
      "test_every_corruption_the_pair_scan_fails_fails_here",
      "tests/test_point_models.py::TestFaultInjection::"
      "test_units_fails_on_a_table_that_is_not_a_commutative_group"]),
    ("unit-check-drops-bnd-additivity", "coded.py",
     "if bnd[row[s]] != h_mul[bnd[x]][bnd[s]]",
     "if False",
     ["tests/test_crossed.py::TestUnitPairHypotheses::"
      "test_every_corruption_the_pair_scan_fails_fails_here"]),
    ("unit-check-skips-generation", "coded.py",
     "if a not in products), None)",
     "if False), None)",
     ["tests/test_crossed.py::TestUnitPairHypotheses::"
      "test_every_corruption_the_pair_scan_fails_fails_here",
      "tests/test_point_models.py::TestFaultInjection::"
      "test_level_2_fails_on_a_b_that_one_generator_misses"]),
    ("unit-check-drops-peiffer-for-crossed-units", "coded.py",
     "if mul[s][act[x][bnd[s]] if act else x] != row[s]",
     "if act is None and mul[s][x] != row[s]",
     ["tests/test_crossed.py::TestUnitPairHypotheses::"
      "test_every_corruption_the_pair_scan_fails_fails_here"]),
    # integer products skip the zeros of both factors
    ("matmul-drops-the-last-column", "groups.py",
     "[(j, b) for j, b in enumerate(row) if b]",
     "[(j, b) for j, b in enumerate(row[:-1]) if b]",
     ["tests/test_abelian.py::TestMatmul::test_matches_the_triple_sum",
      "tests/test_complexes.py::TestQuasiIsomorphism::"
      "test_z64_tripwire_products_cost_their_nonzeros"]),
    # the descent identity law read off its two hypotheses
    ("descent-identity-drops-bnd-of-1", "crossed.py",
     "    return (X.boundary[X.G.identity] == e\n"
     "            and all(row[e] == g",
     "    return (all(row[e] == g",
     ["tests/test_crossed.py::TestDescentIdentityCheck::"
      "test_bad_tables_agree"]),
    ("descent-identity-reads-column-0", "crossed.py",
     "all(row[e] == g for g, row in enumerate(X.action))",
     "all(row[0] == g for g, row in enumerate(X.action))",
     ["tests/test_crossed.py::TestDescentIdentityCheck::"
      "test_bad_tables_agree"]),
    ("descent-identity-on-the-kernel-only", "crossed.py",
     "for g, row in enumerate(X.action)),",
     "for g, row in enumerate(X.action)\n"
     "                if X.boundary[g] == e),",
     ["tests/test_crossed.py::TestDescentIdentityCheck::"
      "test_bad_tables_agree"]),
    # the nerve that crossed-units builds for itself
    ("crossed-units-reads-the-point-nerve", "crossed.py",
     "opts.cover or covers.point_cover()",
     "covers.point_cover()",
     ["tests/test_golden_digests.py::test_other_report_digest_is_unchanged"
      "[descent:triples-circle-s3#0]"]),
]

CONTROL = ("control-comment-only", "cech.py",
           "# an int sign: p + 1 + i may be negative",
           "# the sign as an int: p + 1 + i may be negative",
           sorted({t for *_, tests in MUTANTS for t in tests}))


def _stale(mutant):
    """Why the mutant no longer applies, or None."""
    name, path, fragment, replacement, tests = mutant
    count = (ROOT / "src" / "unital" / path).read_text().count(fragment)
    if count != 1:
        return f"{name}: the fragment occurs {count} times in {path}"
    if fragment == replacement or not tests:
        return f"{name}: changes nothing, or names no test"
    return None


def _failed(output):
    """The test ids pytest's short summary lists as failed."""
    return [m.group(1) for m in re.finditer(
        r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", output, re.M)]


def _caught(test, failed):
    """Whether a failed id is the named test or lies inside it."""
    return any(f == test or f.startswith((test + "::", test + "["))
               for f in failed)


def run(mutant):
    """The named tests that passed with the mutant applied, and pytest's
    output: no test passing means the mutant is killed, and None that
    pytest could not run them."""
    name, path, fragment, replacement, tests = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for item in COPIED:
            source, copy = ROOT / item, Path(tmp) / item
            if source.is_dir():
                shutil.copytree(source, copy, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy(source, copy)
        target = Path(tmp) / "src" / "unital" / path
        target.write_text(target.read_text().replace(fragment, replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    if proc.returncode not in (0, 1):  # a usage error, or no test found
        return None, output
    failed = _failed(output)
    return [t for t in tests if not _caught(t, failed)], output


def main():
    stale = [why for why in map(_stale, [CONTROL, *MUTANTS]) if why]
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    bad = []
    for mutant in [CONTROL, *MUTANTS]:
        started = time.monotonic()
        passed, output = run(mutant)
        verdict = ("not run" if passed is None
                   else "survived" if passed == list(mutant[4])
                   else "killed" if not passed else "partly killed")
        ok = verdict == ("survived" if mutant is CONTROL else "killed")
        print(f"{'ok ' if ok else 'BAD'} {verdict:13} {mutant[0]} "
              f"({time.monotonic() - started:.1f} s)")
        if not ok:
            bad.append(mutant[0])
            print(f"    still passing: {passed}\n" + output[-2000:])
    print(f"{len(MUTANTS)} mutants and the control: "
          f"{'all as expected' if not bad else 'unexpected: ' + str(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
