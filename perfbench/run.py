"""Fresh-process benchmark of the `unital` command line.

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout (the directory holding ``src/unital``).
One client runs a closed loop: each verdict is one ``unital <command>
--json`` subprocess, and the next starts when the previous one has exited.
The loop makes a fixed number of whole passes over the seeded corpus
(corpus.py), set by ``--seconds`` and PASSES_AT_30_S, checks every
verdict against its known answer (check.py), scales every time to a
reference host (harness.Scaler) and prints, as its last line, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``, see layers.py).  ``--workload all`` runs the three
workloads in turn and prints one row per workload instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import layers  # noqa: E402
from harness import (TIME_LIMIT_S, Bench, Scaler,  # noqa: E402
                     digest_drift, make_workdir, remove_workdir, run_pass,
                     verdict_summary)

SETUP_PER_PASS = 4  # set-up probes before each pass, spread over the run
# whole corpus passes per run at --seconds 30; other lengths scale the
# count.  A fixed count gives every seed and every host load the same
# number of samples per input, and at these counts the tail percentile
# (ten samples beyond it) falls inside the cluster of slowest inputs of
# point-enum and descent.  With their reference children, passes take
# about 8, 12 and 15 s on a 2-core Xeon with Python 3.11, so runs last
# about 30, 40 and 30 s with their set-up probes.
PASSES_AT_30_S = {"desk-mix": 4, "point-enum": 3, "descent": 2}

END_TO_END = (("setup_s", "s"), ("verdict_s.p50", "s"),
              ("verdict_s.tail", "s"), ("verdict_s.geomean", "s"),
              ("verdicts_per_s", "1/s"), ("peak_rss_mb", "MB"))


def setup_probe(bench, paths):
    """Sample of one fresh interpreter that imports `unital` and parses
    every spec of the corpus, without running a command."""
    code, wall, _, _, err, _ = bench.spawn(
        [os.path.join(HERE, "probe.py"), *paths])
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
    return {"wall": wall}


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum if there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(samples, passes, setup_times):
    """Metrics, sample counts and notes; every time is a scaled one (see
    harness.py)."""
    walls = [s["scaled"] for s in samples]
    per_input = {}
    for s in samples:
        per_input.setdefault(s["input"], []).append(s["scaled"])
    medians = [statistics.median(v) for v in per_input.values()]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "verdict_s.p50": statistics.median(walls),
        "verdict_s.tail": tail_value,
        "verdict_s.geomean": math.exp(statistics.fmean(
            math.log(m) for m in medians)),
        "verdicts_per_s": len(samples) / sum(walls),
        "peak_rss_mb": max(s["rss_kb"] for s in samples) / 1024.0,
    }
    counts = {"setup_s": len(setup_times), "verdict_s.p50": len(walls),
              "verdict_s.tail": len(walls),
              "verdict_s.geomean": len(medians),
              "verdicts_per_s": len(samples), "peak_rss_mb": len(samples)}
    notes = {"verdict_s.tail": f"p{tail_pct:.1f}",
             "verdict_s.geomean": f"{passes} samples per input"}
    return metrics, counts, notes


def machine():
    """CPU model, core count, Python version and the per-verdict limit."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "time_limit_s": TIME_LIMIT_S}


def run_workload(root, workload, seed, seconds, trace):
    """(result object, human-readable lines, extra figures) for one
    workload."""
    inputs = corpus.generate(workload, seed)
    workdir = make_workdir(root, workload)
    try:
        bench = Bench(root, workdir)
        paths = bench.write_inputs(inputs)
        rng = random.Random(f"order/{workload}/{seed}")
        if trace:
            return layers.traced_run(bench, inputs, paths, seconds, rng)
        setup_probe(bench, paths)  # warm the file cache and bytecode
        scaler = Scaler(bench)
        setups, samples = [], []
        passes_wanted = max(1, round(PASSES_AT_30_S[workload] * seconds / 30))
        for _ in range(passes_wanted):
            for _ in range(SETUP_PER_PASS):
                setups.append(setup_probe(bench, paths))
                scaler.add(setups[-1])
            samples += run_pass(bench, inputs, paths, rng, scaler=scaler)
        scaler.flush()
        setup_times = [s["scaled"] for s in setups]
    finally:
        remove_workdir(workdir)
    metrics, counts, notes = end_to_end(samples, passes_wanted, setup_times)
    correct, failed, ratio, lines = verdict_summary(inputs, samples)
    drift = digest_drift(inputs, samples)
    lines.append(f"wrong_verdict_ratio {ratio:.6f} "
                 f"({sum(1 for s in samples if s['problems'])} of "
                 f"{len(samples)})")
    lines += [f"digest changed: {d}" for d in drift]
    raw = statistics.median(s["wall"] for s in samples)
    scale = statistics.median(s["scaled"] / s["wall"] for s in samples)
    lines.append(f"unscaled verdict_s.p50 {raw:.6f} s; median scale to "
                 f"the reference host {scale:.4f}")
    for name, unit in END_TO_END:
        lines.append(f"{workload:10s} {name:18s} {metrics[name]:12.6f} "
                     f"{unit:4s} n={counts[name]} "
                     f"{notes.get(name, '')}".rstrip())
    result = {"correct": correct, "attempted": len(samples), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END}}
    extra = {"wrong_verdict_ratio": ratio, "digest_changed": len(drift),
             "counts": counts, "notes": notes, "passes": passes_wanted}
    return result, lines, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the rows "
                                      "as JSON to this file")
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for this process and every child, so that the reference
    # loops run where the children run (harness.py)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "unital", "cli.py")):
        print("perfbench: run from the root of a unital checkout "
              "(src/unital/cli.py not found)", file=sys.stderr)
        return 2
    info = machine()
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    if args.workload != "all":
        result, lines, _ = run_workload(root, args.workload, args.seed,
                                        args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    rows = {}
    for workload in corpus.WORKLOADS:
        result, lines, extra = run_workload(root, workload, args.seed,
                                            args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        rows[workload] = dict(result, **extra)
    print(f"# seed {args.seed}, {args.seconds} s per workload, "
          f"one row per workload")
    for workload, row in rows.items():
        cells = []
        for name, m in row["metrics"].items():
            count = row.get("counts", {}).get(name)
            note = row.get("notes", {}).get(name)
            cells.append(f"{name}={m['value']:.6g} {m['unit']}"
                         + (f" n={count}" if count else "")
                         + (f" {note}" if note else ""))
        if "wrong_verdict_ratio" not in row["metrics"]:
            cells.append(f"wrong_verdict_ratio="
                         f"{row['wrong_verdict_ratio']:.6g} ratio "
                         f"n={row['attempted']}")
        print(f"{workload}: " + "; ".join(cells))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": info, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": rows}, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
