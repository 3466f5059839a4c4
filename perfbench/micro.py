"""Layer microbenchmarks on fixed seeded inputs, calling public functions.

    python3 perfbench/micro.py

Prints one JSON object: nanoseconds per `GroupElem` add and per
`FiniteGroup.mul`, and microseconds per `smith_normal_form` call on fixed
6x6 and 20x20 integer matrices.  Each figure is the median of REPEATS
timed batches.
"""

import json
import random
import statistics
import time

from unital.abelian import FgAbGroup, smith_normal_form
from unital.crossed import FiniteGroup

REPEATS = 7


def per_call(fn, calls):
    """Median seconds per call of fn(), over REPEATS batches of ``calls``."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - started) / calls)
    return statistics.median(times)


def main():
    rng = random.Random(20110801)
    G = FgAbGroup((2, 4, 8), 0)
    elems = list(G.elements())
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(256)]

    def adds():
        for x, y in pairs:
            x + y

    S4 = FiniteGroup.symmetric(4)
    products = [(rng.randrange(24), rng.randrange(24)) for _ in range(256)]

    def muls():
        for a, b in products:
            S4.mul(a, b)

    def matrix(n):
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]

    m6, m20 = matrix(6), matrix(20)
    print(json.dumps({
        "abelian.elem_add_ns": per_call(adds, 40) / len(pairs) * 1e9,
        "crossed.mul_ns": per_call(muls, 400) / len(products) * 1e9,
        "abelian.snf_us.6x6": per_call(lambda: smith_normal_form(m6),
                                       200) * 1e6,
        "abelian.snf_us.20x20": per_call(lambda: smith_normal_form(m20),
                                         5) * 1e6,
    }))


if __name__ == "__main__":
    main()
