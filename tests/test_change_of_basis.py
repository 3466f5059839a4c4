"""Change of basis as a metamorphic relation.

An automorphism P_k of each term turns a complex X into the isomorphic
complex X' with differentials P_(k+1) d_k P_k^-1, so every command must
give X' the checks and the group-valued data it gives X.  The Gaussian
reduction in ``abelian.subquotient`` cancels the +-1 entries of the
differentials where they sit, and a change of basis moves them.

Finite terms, of order up to 64, change by elementary automorphisms:
e_i -> e_i + k e_j where k o_i = 0 mod o_j, and e_i -> a e_i for a unit a
modulo o_i.  Free terms, of rank up to 4, change by unimodular matrices
drawn from a seed as products of the same elementary steps.  The commands
are ``homology``, ``unit-complex --check-acyclic``, ``qiso`` against each
model, and ``cech-classify`` over the point nerve.  A command that refuses
the input on either side must refuse it on both, with the same message;
each refused pair is returned by name and reported to hypothesis as an
event, never skipped.
"""

import json
import random
from math import gcd, prod

import pytest
from hypothesis import event, given, settings, strategies as st

from unital.abelian import FgAbGroup, GroupHom, kernel
from unital.complexes import Complex, StrictMorphism
from unital.reporting import run
from unital.specfile import COMPLEX_KINDS, SpecError, parse_spec
from unital.verification import CapExceeded, FinitenessError

from test_abelian import random_hom

# (name, command, options of reporting.run)
COMMANDS = (("homology", "homology", {}),
            ("unit-complex --check-acyclic", "unit-complex",
             {"check_acyclic": True}),
            ("qiso --against idA", "qiso", {"against": "idA"}),
            ("qiso --against idker", "qiso", {"against": "idker"}),
            ("cech-classify", "cech-classify", {}))


def _finite_group(rng):
    """A finite group of order at most 64."""
    divisors = []
    for _ in range(rng.randrange(4)):
        d = rng.choice((2, 3, 4, 8))
        if prod(divisors) * d <= 64:
            divisors.append(d)
    return FgAbGroup.from_divisors(*divisors)


def _free_hom(rng, A, B):
    return GroupHom(A, B, [[rng.randint(-3, 3) for _ in range(A.ngens)]
                           for _ in range(B.ngens)])


def _complex(rng, kind, terms):
    """A random 2- or 3-term complex with finite terms, or free ones."""
    group, hom = ((_finite_group, random_hom) if kind == "finite" else
                  (lambda rng: FgAbGroup.free(rng.randint(1, 4)), _free_hom))
    A, B, C = (group(rng) for _ in range(3))
    if terms == 2:
        return Complex((A, B), (hom(rng, A, B),))
    lam = hom(rng, B, C)
    K, incl = kernel(lam)
    return Complex((A, B, C), (incl.compose(hom(rng, A, K)), lam))


def _automorphism(rng, G):
    """A random automorphism of G with its inverse: a product of steps
    e_i -> e_i + k e_j, with k o_i = 0 mod o_j, and e_i -> a e_i, with a a
    unit mod o_i (-1 on a free coordinate)."""
    n, orders = G.ngens, G.orders
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for _ in range(rng.randrange(8) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        oi, oj = orders[i], orders[j]
        if i == j:
            a = rng.choice([a for a in range(1, oi) if gcd(a, oi) == 1]
                           if oi else [-1])
            b = pow(a, -1, oi) if oi else -1
            P[i] = [a * x for x in P[i]]  # the step times P
            for row in Q:  # Q times the inverse step
                row[i] *= b
        elif oi == 0 or oj:  # k o_i = 0 mod o_j has a nonzero solution
            k = rng.choice([-2, -1, 1, 2]) * (oj // gcd(oi, oj) if oj else 1)
            P[j] = [x + k * y for x, y in zip(P[j], P[i])]
            for row in Q:
                row[i] -= k * row[j]
    return GroupHom(G, G, P), GroupHom(G, G, Q)


def changed_basis(rng, X):
    """X' = P X P^-1 for a random automorphism P of each term, checked to
    be isomorphic to X through P."""
    autos = [_automorphism(rng, G) for G in X.terms]
    for P, Q in autos:
        assert P.compose(Q) == GroupHom.identity(P.source)
    maps = tuple(autos[k + 1][0].compose(d).compose(autos[k][1])
                 for k, d in enumerate(X.maps))
    Y = Complex(X.terms, maps)
    StrictMorphism(X, Y, tuple(P for P, _ in autos))  # squares commute
    return Y


def _spec(X):
    kind = f"complex{len(X.terms)}"
    names, map_names = COMPLEX_KINDS[kind]
    return parse_spec(json.dumps({
        "kind": kind,
        "groups": {name: {"inv": list(G.invariant_factors),
                          "free": G.free_rank}
                   for name, G in zip(names, X.terms)},
        "maps": {name: [list(r) for r in f.matrix]
                 for name, f in zip(map_names, X.maps)}}))


def _outcome(command, spec, opts):
    """The checks and data of the report, or the refusal."""
    try:
        body = run(command, spec, **opts).body()
    except (SpecError, FinitenessError, CapExceeded) as exc:
        return "refused", type(exc).__name__, str(exc)
    return body["checks"], body["data"]


def assert_same_reports(X, Y):
    """Every command gives X and Y the same checks and data, or refuses
    both alike; returns the refused (command, message) pairs."""
    refused = []
    for name, command, opts in COMMANDS:
        before = _outcome(command, _spec(X), opts)
        assert _outcome(command, _spec(Y), opts) == before, name
        if before[0] == "refused":
            refused.append((name, before[2]))
    return refused


@pytest.mark.parametrize("kind", ["finite", "free"])
@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
def test_reports_survive_a_change_of_basis(kind, rng, terms):
    X = _complex(rng, kind, terms)
    for name, message in assert_same_reports(X, changed_basis(rng, X)):
        event(f"refused on both sides: {name}: {message}")


def test_refusals_are_named_not_skipped():
    # cech-classify scans finite groups only; the other commands take free
    # ones, and the free unit complex is acyclic as well
    rng = random.Random(17)
    X = _complex(rng, "free", 2)
    assert assert_same_reports(X, changed_basis(rng, X)) == [
        ("cech-classify", "torsor enumeration needs finite groups")]
