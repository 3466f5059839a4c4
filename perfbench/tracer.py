"""One traced verdict: `unital.cli.main` with spans around library calls.

    python3 perfbench/tracer.py SPANS.json <unital arguments...>

Every public module-level function of the `unital` modules listed in
SPANNED, plus the two private Smith-form eliminations and a few methods,
is wrapped in a span (name, start, end, parent).  The wrapper is re-bound
in every `unital.*` namespace that holds the function, because modules
such as `reporting` bind names with ``from ... import``.  `GroupElem`
arithmetic and `GroupHom.__call__` get count-only wrappers.  Spans stay in
memory and are written to SPANS.json when the command returns; stdout,
stderr and the exit code are those of the untraced command.
"""

import functools
import inspect
import json
import sys
import time
import traceback

import unital.cli
from unital.abelian import GroupElem, GroupHom, LinearSolver
from unital.reporting import Report

SPANNED = ("specfile", "reporting", "abelian", "complexes", "point_models",
           "cech", "crossed")
PRIVATE = (("abelian", "_snf_full"), ("abelian", "_snf_presentation"))
METHODS = ((LinearSolver, "__init__", "abelian.LinearSolver"),
           (LinearSolver, "solve", "abelian.LinearSolver"),
           (Report, "digest", "reporting.digest"))
COUNTED = ((GroupElem, "__add__", "abelian.elem_ops"),
           (GroupElem, "__sub__", "abelian.elem_ops"),
           (GroupElem, "__neg__", "abelian.elem_ops"),
           (GroupHom, "__call__", "abelian.hom_apply.calls"))


class Trace:
    """Spans ([name, start, end, parent index]) and counters of one run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def spanned(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("unital.") and m is not None]
        for short in SPANNED:
            module = sys.modules[f"unital.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") and (short, attr) not in PRIVATE) \
                        or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapper = self.spanned(f"{short}.{attr}", fn)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)
        for cls, attr, name in METHODS:
            setattr(cls, attr, self.spanned(name, getattr(cls, attr)))
        for cls, attr, name in COUNTED:
            setattr(cls, attr, self.counted(name, getattr(cls, attr)))


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    trace = Trace()
    trace.install()
    root = trace.spanned("cli.main", unital.cli.main)
    try:
        code = root(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001  (the untraced command would crash too)
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": trace.spans, "counts": trace.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
