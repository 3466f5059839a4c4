"""The same behaviour as a base tree, on every corpus input.

    python tests/same_behaviour.py BASE_SRC

BASE_SRC is the ``src`` directory of another checkout of this repository,
typically the base of a change.  Every input of ``corpus.all_variants``
(``perfbench/corpus.py``), for every workload, runs through
``python -m unital.cli`` with ``--json`` and again with ``--text``: once
with ``PYTHONPATH=BASE_SRC`` and once with this tree's ``src``, each run in
a fresh process with ``PYTHONDONTWRITEBYTECODE=1``.  The ``"seconds"``
value of the JSON timing and the ``time:`` line of the text report are
masked; then stdout, stderr and the exit code of the two sides must be
byte-identical.  The exit status is 0 when every run agrees, 1 when some
differ (the first ones are named), and 2 for a usage error.

At most two children run at a time.  The input files are written to a
temporary directory outside the checkout, which is also the children's
working directory, and the corpus is imported without writing bytecode,
so no file of the checkout changes.  Only the standard library is
needed; pytest does not collect this file, and no test imports it.
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
FORMATS = ("--json", "--text")
MASKS = ((re.compile(rb'"seconds": [^\n]*'), b'"seconds": ?'),
         (re.compile(rb"^time: [^\n]*", re.M), b"time: ?"))
SHOWN = 5  # differing runs named on failure


def corpus_inputs():
    """Every (workload, input) that any seed of the benchmark can draw."""
    sys.dont_write_bytecode = True  # perfbench is read, never written
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    return [(w, item) for w in corpus.WORKLOADS
            for item in corpus.all_variants(w)]


def verdict(src, argv, cwd):
    """(exit code, stdout, stderr) of one fresh ``unital.cli`` run on the
    library at src, with its timing masked."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "unital.cli", *argv],
                          cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True)
    out = proc.stdout
    for pattern, mask in MASKS:
        out = pattern.sub(mask, out)
    return proc.returncode, out, proc.stderr


def main(argv):
    if len(argv) != 1 or not (Path(argv[0]) / "unital").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("BASE_SRC must be a directory holding unital/", file=sys.stderr)
        return 2
    sides = (Path(argv[0]).resolve(), ROOT / "src")
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="same-behaviour-") as tmp:
        runs = []
        for k, (workload, item) in enumerate(corpus_inputs()):
            path = os.path.join(tmp, f"in{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item["spec"])
            for fmt in FORMATS:
                runs.append((f"{workload}:{item['id']} {fmt}",
                             [item["command"], "--in", path, fmt,
                              *item["args"]]))
        with ThreadPoolExecutor(WORKERS) as pool:
            results = {side: list(pool.map(
                lambda run, side=side: verdict(side, run[1], tmp), runs))
                for side in sides}
    base, here = results.values()
    differ = [(name, b, h) for (name, _), b, h in zip(runs, base, here)
              if b != h]
    codes = Counter(code for code, _, _ in here)
    print(f"{len(runs)} runs per side, {time.monotonic() - started:.0f} s; "
          f"exit codes here: "
          + ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items())))
    if not differ:
        print("all byte-identical in stdout, stderr and exit code")
        return 0
    print(f"{len(differ)} runs differ; the first:")
    for name, b, h in differ[:SHOWN]:
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"),
                                            b, h) if x != y]
        print(f"  {name}: {', '.join(parts)} "
              f"(exit {b[0]} at the base, {h[0]} here)")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
