"""Spawning verdicts and judging them, shared by the untraced and traced runs.

Each verdict is a fresh interpreter started with ``os.posix_spawn`` and
reaped with ``os.wait4``, which gives its wall time and maximum RSS.

The host is shared: how fast it runs Python moves by half over minutes,
with the load of its other tenants.  So between children a reference child
runs too: a fresh interpreter running a fixed loop, without `unital`, on
the same CPU (run.py pins the benchmark to one).  ``Scaler`` runs one
after at least REFERENCE_EVERY_S of children and scales each child's wall
time to a host on which the reference takes REFERENCE_S:
wall * REFERENCE_S / (mean of the references just before and just after
it).  The end-to-end metrics use the scaled times.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import threading
import time

import check

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 60.0   # per verdict; a verdict that takes longer is wrong
CLI = "import sys; from unital.cli import main; sys.exit(main())"
# the reference child: interpreter start plus tuple, dict and integer work
REFERENCE = ("counts = {}\n"
             "for i in range(100_000):\n"
             "    key = (i % 61, i % 59)\n"
             "    counts[key] = counts.get(key, 0) + i % 7\n")
REFERENCE_S = 0.125       # nominal wall time of the reference child
REFERENCE_EVERY_S = 0.5   # children's wall time between two references


class Bench:
    """Spawns fresh interpreters from the checkout at ``root``."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)

    def spawn(self, argv, limit=TIME_LIMIT_S):
        """Run one child; (exit code, wall s, max RSS KiB, stdout, stderr,
        timed out).  Wall time runs from just before spawn to reaping."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        lock = threading.Lock()
        state = {"done": False, "killed": False}

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    os.kill(pid, signal.SIGKILL)

        started = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                             self.env, file_actions=actions)
        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no child behind
            with lock:
                state["done"] = True
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
        wall = time.perf_counter() - started
        timer.join()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss,
                stdout, stderr, state["killed"])

    def write_inputs(self, inputs):
        """Spec files for the corpus; returns the path per input."""
        paths = []
        for k, item in enumerate(inputs):
            path = os.path.join(self.workdir, f"in{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item["spec"])
            paths.append(path)
        return paths


def unital_argv(item, path):
    return ["-c", CLI, item["command"], "--in", path, "--json", *item["args"]]


def make_workdir(root, name):
    path = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:  # another run still uses it
        pass


class Scaler:
    """Runs the reference child between measured children and sets each
    sample's ``scaled`` time from its ``wall`` time (see the module
    docstring).  Call ``flush`` before reading the last samples."""

    def __init__(self, bench):
        self.bench = bench
        self.before = self.reference()
        self.group = []

    def reference(self):
        code, wall, _, _, err, _ = self.bench.spawn(["-c", REFERENCE])
        if code != 0:
            raise RuntimeError(f"reference child failed: {err.strip()[-300:]}")
        return wall

    def add(self, sample):
        self.group.append(sample)
        if sum(s["wall"] for s in self.group) >= REFERENCE_EVERY_S:
            self.flush()

    def flush(self):
        if not self.group:
            return
        after = self.reference()
        scale = 2 * REFERENCE_S / (self.before + after)
        for s in self.group:
            s["scaled"] = s["wall"] * scale
        self.before, self.group = after, []


def run_pass(bench, inputs, paths, rng, argv=unital_argv, after=None,
             scaler=None):
    """One pass running every input once, in a fresh seeded order; the
    list of samples.  ``argv(input, spec path)`` gives a child's
    arguments; ``after()``, if given, runs after each verdict; ``scaler``,
    if given, gets every sample."""
    order = list(range(len(inputs)))
    rng.shuffle(order)
    samples = []
    for k in order:
        code, wall, rss, out, err, killed = bench.spawn(
            argv(inputs[k], paths[k]))
        problems, report = check.check(inputs[k]["known"], code, out, err,
                                       killed)
        samples.append({"input": k, "wall": wall, "rss_kb": rss,
                        "exit": code, "problems": problems,
                        "report": report})
        if scaler is not None:
            scaler.add(samples[-1])
        if after is not None:
            after()
    return samples


def verdict_summary(inputs, samples):
    """(correct, failed, wrong ratio, lines describing wrong verdicts).

    Every wrong verdict counts in the ratio.  ``correct`` is false when a
    verdict is wrong on an input that carries no recorded seed-commit
    defect; ``failed`` counts verdicts that produced no answer at all
    (timeouts)."""
    wrong = [s for s in samples if s["problems"]]
    lines = set()
    unexpected = 0
    for s in wrong:
        item = inputs[s["input"]]
        line = (f"wrong verdict {item['id']} ({item['command']}): "
                + "; ".join(s["problems"]))
        if "defect" in item["known"]:
            line += f"  [known defect: {item['known']['defect']}]"
        else:
            unexpected += 1
        lines.add(line)
    failed = sum(1 for s in samples if "timed out" in s["problems"])
    return not unexpected, failed, len(wrong) / len(samples), sorted(lines)


def digest_drift(inputs, samples):
    """Inputs whose report digest differs from the one recorded at the
    seed commit (digests.json)."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    changed = set()
    for s in samples:
        item = inputs[s["input"]]
        got = (s["report"] or {}).get("report_digest")
        if got != recorded.get(item["workload"], {}).get(item["id"]):
            changed.add(item["id"])
    return sorted(changed)
