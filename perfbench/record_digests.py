"""Record the report digest of every input any seed can draw.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  Writes perfbench/digests.json, the
behavioural fingerprint that run.py compares each verdict's
`report_digest` against (drift is the per-layer count
`reporting.digest_changed`).  Re-record only when a change of report
content is intended.
"""

import json
import os
import sys

import corpus
import harness


def main():
    root = os.getcwd()
    workdir = harness.make_workdir(root, "record")
    bench = harness.Bench(root, workdir)
    out = {}
    for workload in corpus.WORKLOADS:
        inputs = corpus.all_variants(workload)
        paths = bench.write_inputs(inputs)
        digests = {}
        for item, path in zip(inputs, paths):
            stdout = bench.spawn(harness.unital_argv(item, path))[3]
            if stdout.strip():  # refusals print no report
                digests[item["id"]] = json.loads(stdout)["report_digest"]
        out[workload] = digests
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    harness.remove_workdir(workdir)
    with open(os.path.join(harness.HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
