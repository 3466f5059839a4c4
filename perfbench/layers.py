"""The traced run (``--trace 1``): per-layer metrics for one workload.

This run is separate from the end-to-end runs and its numbers never feed
them.  It alternates an untraced pass and a traced pass over the corpus
(each verdict still a fresh process; tracer.py wraps library calls in
spans) until the time is used up, adds an import probe and the layer
microbenchmarks (micro.py), and reports the median over passes of every
per-layer metric.  Span metrics are sums over one pass of the corpus:
``<name>.s`` is the time spent inside the named functions and
``<name>.calls`` their call count (nested calls within one group count
once), and
``self_s.<module>`` the span durations of a module minus their child spans.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import harness

MODULES = ("cli", "specfile", "reporting", "abelian", "complexes",
           "point_models", "cech", "crossed")
GROUPS = {
    "specfile.parse_spec": ("specfile.parse_spec",),
    "reporting.digest": ("reporting.digest",),
    "abelian.kernel": ("abelian.kernel",),
    "abelian.cokernel": ("abelian.cokernel",),
    # the public entry point and the two eliminations behind it
    "abelian.smith_normal_form": ("abelian.smith_normal_form",
                                  "abelian._snf_full",
                                  "abelian._snf_presentation"),
    "abelian.LinearSolver": ("abelian.LinearSolver",),
    "complexes.homology": ("complexes.homology",),
    "complexes.unit_complex": ("complexes.unit_complex_1",
                               "complexes.unit_complex_2"),
    "complexes.is_quasi_isomorphism": ("complexes.is_quasi_isomorphism",),
    "complexes.models": ("complexes.identity_model", "complexes.kernel_model",
                         "complexes.sum_model", "complexes.kernel_sum_model"),
    "point_models.enumerate_units": ("point_models.enumerate_units_1",
                                     "point_models.enumerate_units_2"),
    "point_models.verify_contractible_1": (
        "point_models.verify_contractible_1",),
    "point_models.verify_contractible_2": (
        "point_models.verify_contractible_2",),
    "point_models.unit_1morphisms": ("point_models.unit_1morphisms",),
    "cech.cech_nerve": ("cech.cech_nerve",),
    "cech.torsor_classes": ("cech.torsor_classes",),
    "cech.unit_cocycles": ("cech.unit_cocycles",),
    "cech.classify_h0": ("cech.classify_h0",),
    "crossed.verify_crossed_module": ("crossed.verify_crossed_module",),
    "crossed.enumerate_units_nonabelian": (
        "crossed.enumerate_units_nonabelian",),
    "crossed.unit_crossed_module": ("crossed.unit_crossed_module",),
    "crossed.enumerate_unit_triples": ("crossed.enumerate_unit_triples",),
    "crossed.h0_group_law": ("crossed.h0_group_law",),
}
# groups whose calls are counted but not timed: each call is too short
COUNT_ONLY = ("point_models.unit_1morphisms", "crossed.h0_group_law")
TIMED = tuple(g for g in GROUPS if g not in COUNT_ONLY)
CALLED = ("specfile.parse_spec", "abelian.kernel", "abelian.cokernel",
          "abelian.smith_normal_form", "abelian.LinearSolver") + COUNT_ONLY
COUNTS = ("abelian.elem_ops", "abelian.hom_apply.calls")
# the layers whose self time should dominate each workload, as its reason
# for being in the benchmark says; desk-mix's reason is cli.overhead_s
REASON = {"point-enum": ("point_models", "abelian"),
          "descent": ("cech", "crossed", "abelian")}

FROM_SPANS = ([f"{g}.s" for g in TIMED] + [f"{g}.calls" for g in CALLED]
              + list(COUNTS) + [f"self_s.{m}" for m in MODULES]
              + ["reporting.run.self_s"])
# (name, unit) of every per-layer metric, in report order
METRICS = (
    [("cli.import_s", "s"), ("cli.overhead_s", "s"), ("cli.refusal_s", "s"),
     ("reporting.run.self_s", "s")]
    + [(f"{g}.s", "s") for g in TIMED]
    + [(f"{g}.calls", "count") for g in CALLED]
    + [(c, "count") for c in COUNTS]
    + [("cech.candidates", "count")]
    + [(f"self_s.{m}", "s") for m in MODULES]
    + [("reason.share", "ratio"), ("trace.overhead_ratio", "ratio"),
       ("abelian.elem_add_ns", "ns"), ("crossed.mul_ns", "ns"),
       ("abelian.snf_us.6x6", "us"), ("abelian.snf_us.20x20", "us"),
       ("wrong_verdict_ratio", "ratio"), ("reporting.digest_changed", "count")]
)


def span_metrics(trace):
    """Per-group time and calls, and per-module self time, of one verdict."""
    spans = trace["spans"]
    member = {n: g for g, names in GROUPS.items() for n in names}
    out = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for k, (name, start, end, parent) in enumerate(spans):
        self_time = end - start - child_time[k]
        key = "self_s." + name.split(".", 1)[0]
        out[key] = out.get(key, 0.0) + self_time
        if name == "reporting.run":
            out["reporting.run.self_s"] = \
                out.get("reporting.run.self_s", 0.0) + self_time
        group = member.get(name)
        if group is None:
            continue
        p = parent
        while p >= 0 and member.get(spans[p][0]) != group:
            p = spans[p][3]
        if p < 0:  # outermost call of its group
            out[f"{group}.s"] = out.get(f"{group}.s", 0.0) + end - start
            out[f"{group}.calls"] = out.get(f"{group}.calls", 0) + 1
    for name, n in trace["counts"].items():
        out[name] = out.get(name, 0) + n
    return out


def cli_import_seconds(bench, repeats=7):
    """Fresh `import unital.cli` minus a bare interpreter start."""
    bare, full = [], []
    bench.spawn(["-c", "import unital.cli"])
    for _ in range(repeats):
        bare.append(bench.spawn(["-c", "pass"])[1])
        full.append(bench.spawn(["-c", "import unital.cli"])[1])
    return statistics.median(full) - statistics.median(bare)


def microbenchmarks(bench):
    code, _, _, out, err, _ = bench.spawn(
        [os.path.join(harness.HERE, "micro.py")])
    if code != 0:
        raise RuntimeError(f"micro.py failed: {err.strip()[-300:]}")
    return json.loads(out)


def traced_run(bench, inputs, paths, seconds, rng):
    """(result object, human-readable lines, extra figures), as
    run.run_workload returns them for an untraced run."""
    started = time.perf_counter()
    values = {name: [] for name, _ in METRICS}
    values["cli.import_s"].append(cli_import_seconds(bench))
    for key, v in microbenchmarks(bench).items():
        values[key].append(v)
    workload = inputs[0]["workload"]
    refusal = {k for k, item in enumerate(inputs)
               if item["known"]["exit"] in (2, 3)}
    spans_path = os.path.join(bench.workdir, "spans.json")

    def traced_argv(item, path):
        return [os.path.join(harness.HERE, "tracer.py"), spans_path,
                item["command"], "--in", path, "--json", *item["args"]]

    def collect_spans():
        if os.path.exists(spans_path):  # absent if the tracer died
            with open(spans_path, encoding="utf-8") as fh:
                for key, v in span_metrics(json.load(fh)).items():
                    totals[key] = totals.get(key, 0) + v
            os.remove(spans_path)

    plain_samples, samples = [], []
    while True:
        cycle_start = time.perf_counter()
        plain = harness.run_pass(bench, inputs, paths, rng)
        totals = {}
        traced = harness.run_pass(bench, inputs, paths, rng, traced_argv,
                                  collect_spans)
        # both sides summed over the verdicts' spawn-to-reap times
        plain_wall = sum(s["wall"] for s in plain)
        traced_wall = sum(s["wall"] for s in traced)
        plain_samples += plain
        samples += plain + traced
        reported = [s for s in plain if s["report"]]
        overhead = [s["wall"] - s["report"]["timing"]["seconds"]
                    for s in reported]
        values["cli.overhead_s"].append(statistics.median(overhead))
        values["cli.refusal_s"].append(statistics.median(
            [s["wall"] for s in plain if s["input"] in refusal])
            if refusal else 0.0)
        values["trace.overhead_ratio"].append(traced_wall / plain_wall)
        if workload in REASON:
            share = sum(totals.get(f"self_s.{m}", 0.0)
                        for m in REASON[workload]) / traced_wall
        else:  # desk-mix: time outside the command itself
            share = sum(overhead) / sum(s["wall"] for s in reported)
        values["reason.share"].append(share)
        for name in FROM_SPANS:
            values[name].append(totals.get(name, 0))
        now = time.perf_counter()
        if now - started + (now - cycle_start) > seconds:
            break
    values["cech.candidates"].append(
        sum(item.get("candidates", 0) for item in inputs))
    correct, failed, ratio, lines = harness.verdict_summary(inputs, samples)
    drift = harness.digest_drift(inputs, plain_samples)
    values["wrong_verdict_ratio"].append(ratio)
    values["reporting.digest_changed"].append(len(drift))
    metrics = {name: statistics.median(values[name]) for name, _ in METRICS}
    lines.append(f"traced passes: {len(values['trace.overhead_ratio'])}")
    lines += [f"digest changed: {d}" for d in drift]
    for name, unit in METRICS:
        label = " (computed from the input)" if name == "cech.candidates" \
            else ""
        lines.append(f"{workload:10s} {name:38s} {metrics[name]:16.6f} "
                     f"{unit}{label}")
    result = {"correct": correct, "attempted": len(samples), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in METRICS}}
    return result, lines, {"wrong_verdict_ratio": ratio,
                           "digest_changed": len(drift)}
