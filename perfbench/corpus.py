"""Seeded input corpora with independently known answers.

Each workload is a fixed list of slots.  A slot fixes the mathematical
content of one input (group structures and maps up to isomorphism, the
command and its flags); its presentation comes in ``VARIANTS`` isomorphic
copies, obtained by conjugating the maps with random automorphisms or by
relabelling group elements.  The seed picks one variant per slot, so every
seed gives the same kind and amount of work in a different presentation,
and the recorded report digests (``digests.json``) cover every input any
seed can produce.

Known answers come from the paper's theorems and from brute-force counting
in ``algebra.py``; nothing here imports `unital`.
"""

from __future__ import annotations

import json
import random

import algebra as alg

VARIANTS = 8
WORKLOADS = ("desk-mix", "point-enum", "descent")

CIRCLE = {"parts": ["a0", "a1", "a2"],
          "intersections": [{"parts": ["a0", "a1"], "components": ["c"]},
                            {"parts": ["a1", "a2"], "components": ["c"]},
                            {"parts": ["a0", "a2"], "components": ["c"]}]}
# cells per level of the truncated Cech nerve, counted by hand: a level-n
# cell is an (n+1)-tuple of parts whose set is a declared intersection
NERVE_LEVELS = {"point": [1, 1, 1, 1], "circle": [3, 9, 21, 45]}
TRIVIAL = "0"  # how a report prints the trivial group


def _inv_doc(inv):
    return {"inv": list(inv)}


def _c2_doc(A, B, lam):
    return {"schema": "unital/1", "kind": "complex2",
            "groups": {"A": _inv_doc(A), "B": _inv_doc(B)},
            "maps": {"lambda": lam}}


def _c3_doc(A, B, C, delta, lam):
    return {"schema": "unital/1", "kind": "complex3",
            "groups": {"A": _inv_doc(A), "B": _inv_doc(B),
                       "C": _inv_doc(C)},
            "maps": {"delta": delta, "lambda": lam}}


def _crossed_doc(G, H, boundary, action, names=("G", "H")):
    return {"schema": "unital/1", "kind": "crossed_module",
            "G": {"table": G, "name": names[0]},
            "H": {"table": H, "name": names[1]},
            "boundary": boundary, "action": action}


# ---- slot makers ---------------------------------------------------------
# Each returns a function variant_rng -> (spec document, known answer).

def complex2(A, B, command, images=None):
    """``images`` fixes the base map by the image of each generator of A;
    without it the map is drawn at random."""
    A, B = tuple(A), tuple(B)
    lam = alg.random_hom(random.Random(f"c2{A}{B}"), A, B) \
        if images is None else alg.matrix_of(images, B)

    def build(rng):
        m = alg.conjugate(lam, A, B, alg.random_automorphism(rng, A),
                          alg.random_automorphism(rng, B))
        return _c2_doc(A, B, m), _known_complex(command, [A, B], [m])
    return build


def complex3(A, B, C, command, map_seed=0):
    A, B, C = tuple(A), tuple(B), tuple(C)
    delta, lam = alg.complex3_maps(random.Random(f"c3{A}{B}{C}/{map_seed}"),
                                   A, B, C)

    def build(rng):
        aA, aB, aC = (alg.random_automorphism(rng, G) for G in (A, B, C))
        d = alg.conjugate(delta, A, B, aA, aB)
        m = alg.conjugate(lam, B, C, aB, aC)
        return _c3_doc(A, B, C, d, m), _known_complex(command, [A, B, C],
                                                      [d, m])
    return build


def _known_complex(command, groups, maps):
    two = len(groups) == 2
    known = {"exit": 0}
    if command == "homology":
        orders = alg.homology_orders(groups, maps)
        degrees = range(-len(groups) + 1, 1)
        known["group_orders"] = {"homology": {str(d): n for d, n
                                              in zip(degrees, orders)}}
    elif command == "units":
        count = alg.order(groups[0] if two else groups[1])
        known["data_len"] = {"units": count}
        if two:
            known["data"] = {"unique_morphisms": count ** 2}
    elif command == "contractible":
        count = alg.order(groups[0] if two else groups[1])
        known["witness"] = {"unit set nonempty": f"{count} units"}
    elif command == "unit-complex":
        known["all_trivial"] = ["homology"]
    return known


def cech(maker, nerve):
    """cech-classify on the point or the circle: one unit class, trivial
    unit class group, trivial classification group of the unit complex."""
    def build(rng):
        doc, _ = maker(rng)
        known = {"exit": 0,
                 "data": {"nerve_levels": NERVE_LEVELS[nerve],
                          "h0_of_unit_complex": TRIVIAL}}
        if doc["kind"] == "complex2":
            known["data"].update(unit_cocycle_classes=1,
                                 unit_class_group=TRIVIAL)
        if nerve == "circle":
            doc["nerve"] = CIRCLE
        return doc, known
    return build


def crossed(kind, args, command, nerve="point"):
    G, H, boundary, action = _crossed_module(kind, *args)

    def build(rng):
        pG = list(range(len(G)))
        pH = list(range(len(H)))
        rng.shuffle(pG)
        rng.shuffle(pH)
        bnd = [0] * len(G)
        act = [[0] * len(H) for _ in G]
        for g in range(len(G)):
            bnd[pG[g]] = pH[boundary[g]]
            for h in range(len(H)):
                act[pG[g]][pH[h]] = pG[action[g][h]]
        doc = _crossed_doc(alg.relabel(G, pG), alg.relabel(H, pH), bnd, act,
                           (f"{kind}-G", f"{kind}-H"))
        known = {"exit": 0}
        if command == "crossed-units":
            cells = NERVE_LEVELS[nerve][0]
            known["data_len"] = {"units": len(G)}
            known["witness"] = {"descent triples: (1,1,1) is the identity":
                                len(G) ** cells}
        if nerve == "circle":
            doc["nerve"] = CIRCLE
        return doc, known
    return build


def _crossed_module(kind, *args):
    """(G table, H table, boundary, action) of a standard crossed module."""
    if kind == "conjugation":          # G -> G, acting by conjugation
        (T,) = args
        inv = alg.inverse_of(T)
        n = len(T)
        return T, T, list(range(n)), [[T[T[inv[h]][g]][h] for h in range(n)]
                                      for g in range(n)]
    if kind == "normal":               # N -> G for a normal subgroup N
        T, gens = args
        sub = alg.closure(T, gens)
        if not alg.is_normal(T, sub):
            raise ValueError("subgroup is not normal")
        pos = {g: k for k, g in enumerate(sub)}
        inv = alg.inverse_of(T)
        N = [[pos[T[x][y]] for y in sub] for x in sub]
        return N, T, list(sub), [[pos[T[T[inv[h]][x]][h]]
                                  for h in range(len(T))] for x in sub]
    if kind == "module":               # Z/n with Z/m acting by u, bnd = 1
        n, m, u = args
        if pow(u, m, n) != 1:
            raise ValueError("u^m must be 1 mod n")
        return (alg.cyclic_table(n), alg.cyclic_table(m), [0] * n,
                [[(pow(u, h, n) * g) % n for h in range(m)]
                 for g in range(n)])
    if kind == "abelian":              # Z/a -> Z/b, g |-> k g, trivial action
        a, b, k = args
        if (a * k) % b:
            raise ValueError("g |-> k g is not a homomorphism Z/a -> Z/b")
        return (alg.cyclic_table(a), alg.cyclic_table(b),
                [(k * g) % b for g in range(a)],
                [[g] * b for g in range(a)])
    raise ValueError(kind)


# ---- refusal inputs --------------------------------------------------------

def over_cap_c2_order():
    def build(rng):
        n = rng.choice([512, 1024, 2048])
        return _c2_doc((n,), (2,), [[rng.randrange(2)]]), \
            {"exit": 3, "stderr": "cap exceeded"}
    return build


def broken(maker, breaker, exit_code, defect=None):
    """A valid input made refusable by ``breaker``; ``defect`` names the
    seed-commit misbehaviour on it, which still counts as a wrong verdict."""
    def build(rng):
        doc, _ = maker(rng)
        doc = breaker(doc, rng)
        known = {"exit": exit_code,
                 "stderr": "input error" if exit_code == 2 else "cap exceeded"}
        if defect:
            known["defect"] = defect
        return doc, known
    build.maker, build.breaker = maker, breaker
    return build


def _unchanged(doc, rng):
    return doc


def _truncate(doc, rng):
    text = json.dumps(doc)
    return text[:rng.randrange(len(text) // 2, len(text) - 1)]


def _non_canonical(doc, rng):
    doc["groups"]["A"]["inv"] = list(reversed(doc["groups"]["A"]["inv"]))
    return doc


def _ill_defined(doc, rng):
    doc["maps"]["lambda"][0][0] += 1
    return doc


def _bool_entry(doc, rng):
    doc["maps"]["lambda"] = [[True if x == 1 else x for x in row]
                             for row in doc["maps"]["lambda"]]
    return doc


def _bad_intersection(doc, rng):
    nerve = json.loads(json.dumps(CIRCLE))
    nerve["intersections"][rng.randrange(3)] = rng.choice([7, None, 2.5])
    doc["nerve"] = nerve
    return doc


def _bad_boundary(doc, rng):
    g = rng.randrange(1, len(doc["boundary"]))
    doc["boundary"][g] = len(doc["H"]["table"]) + rng.randrange(1, 4)
    return doc


def _not_a_group(doc, rng):
    table = doc["G"]["table"]
    a = rng.randrange(1, len(table))
    b = rng.randrange(1, len(table))
    table[a][b] = (table[a][b] + 1) % len(table)
    return doc


def _break_composite(doc, rng):
    doc["maps"]["delta"] = [[1] * len(doc["groups"]["A"]["inv"])
                            for _ in doc["groups"]["B"]["inv"]]
    return doc


# ---- the workloads ----------------------------------------------------------

S3 = alg.symmetric_table(3)
S4 = alg.symmetric_table(4)
D4 = alg.dihedral_table(4)
D6 = alg.dihedral_table(6)
D12 = alg.dihedral_table(12)


def _slots(workload):
    """(name, command, extra args, maker, why) for every slot."""
    if workload == "desk-mix":
        z3_by_z2 = ("module", (3, 2, 2))   # Z/2 acting on Z/3 by inversion
        return [
            ("homology-c2", "homology", [], complex2((2, 4), (8,), "homology"),
             "smallest command: parse, Smith form, report"),
            ("homology-c3", "homology", [],
             complex3((2,), (2, 4), (4,), "homology"),
             "3-term homology: two kernels and a quotient"),
            ("units-c2", "units", [], complex2((2, 4), (8,), "units"),
             "units plus the unique morphism table on |A| = 8"),
            ("units-c3", "units", [],
             complex3((2,), (4,), (2, 2), "units"), "3-term units, |B| = 4"),
            ("contractible-c2", "contractible", [],
             complex2((4,), (2, 4), "contractible"),
             "unit groupoid contractibility at order 4"),
            ("contractible-c3", "contractible", [],
             complex3((2,), (4,), (2,), "contractible"),
             "unit 2-groupoid contractibility at orders 2/4/2"),
            ("unit-complex-c2", "unit-complex", ["--check-acyclic"],
             complex2((2,), (2, 4), "unit-complex"),
             "unit complex built and checked acyclic"),
            ("unit-complex-c3", "unit-complex", ["--check-acyclic"],
             complex3((2,), (2,), (4,), "unit-complex"),
             "3-term unit complex built and checked acyclic"),
            ("qiso-c2", "qiso", [], complex2((4,), (8,), "qiso"),
             "both comparison models and their induced maps"),
            ("qiso-c3", "qiso", ["--against", "idker"],
             complex3((2,), (4,), (2,), "qiso"),
             "3-term comparison against the kernel model only"),
            ("cech-c2-point", "cech-classify", [],
             cech(complex2((4,), (2, 4), "cech"), "point"),
             "descent classification on the point, 2-term"),
            ("cech-c3-point", "cech-classify", [],
             cech(complex3((2,), (2,), (2,), "cech"), "point"),
             "descent classification on the point, 3-term"),
            ("crossed-verify-s3", "crossed-verify", [],
             crossed("conjugation", (S3,), "crossed-verify"),
             "crossed-module axioms for S3 acting on itself"),
            ("crossed-verify-d4", "crossed-verify", [],
             crossed("normal", (D4, [1]), "crossed-verify"),
             "rotations inside D4: an inclusion crossed module"),
            ("crossed-units-inv", "crossed-units", [],
             crossed(*z3_by_z2, "crossed-units"),
             "nonabelian units and descent triples on the point"),
            ("crossed-units-quot", "crossed-units", [],
             crossed("abelian", (4, 2, 1), "crossed-units"),
             "Z/4 -> Z/2 as a crossed module, units on the point"),
            # refusals the seed commit gets right
            ("cap-c3-states", "contractible", ["--max-states", "10"],
             broken(complex3((2,), (4,), (2,), "contractible"),
                    _unchanged, 3),
             "3-term contractibility over a tiny --max-states: exit 3"),
            ("cap-cech-states", "cech-classify", ["--max-states", "3"],
             broken(cech(complex2((4,), (2, 4), "cech"), "point"),
                    _unchanged, 3),
             "torsor enumeration over a tiny --max-states: exit 3"),
            ("cap-triples-states", "crossed-units", ["--max-states", "20"],
             broken(crossed(*z3_by_z2, "crossed-units", "circle"),
                    _unchanged, 3),
             "descent triples on the circle over --max-states: exit 3"),
            ("cap-group-order", "units", [], over_cap_c2_order(),
             "group above the order-256 command cap: exit 3"),
            ("bad-json", "homology", [],
             broken(complex2((2, 4), (8,), "homology"), _truncate, 2),
             "truncated JSON: exit 2"),
            ("bad-canonical", "homology", [],
             broken(complex2((2, 4), (8,), "homology"), _non_canonical, 2),
             "invariant factors out of order: exit 2"),
            ("bad-hom", "units", [],
             broken(complex2((2,), (4,), "units", images=[(0,)]),
                    _ill_defined, 2),
             "ill-defined map Z/2 -> Z/4 sending 1 to 1: exit 2"),
            ("bad-kind", "units", [],
             broken(crossed(*z3_by_z2, "crossed-verify"), _unchanged, 2),
             "crossed module handed to a complex command: exit 2"),
            ("bad-composite", "contractible", [],
             broken(complex3((2,), (2,), (2,), "contractible"),
                    _break_composite, 2),
             "3-term complex whose composite is nonzero: exit 2"),
            ("bad-table", "crossed-verify", [],
             broken(crossed("conjugation", (S3,), "crossed-verify"),
                    _not_a_group, 2),
             "multiplication table that is not a group: exit 2"),
            # defects known at the seed commit; each is a wrong verdict
            ("defect-cap-c2", "contractible", ["--max-states", "10"],
             broken(complex2((8,), (8,), "contractible"), _unchanged, 3,
                    "2-term contractible ignores --max-states and exits 0"),
             "2-term contractibility over a tiny --max-states: exit 3"),
            ("defect-nerve-entry", "cech-classify", [],
             broken(cech(complex2((2,), (2,), "cech"), "circle"),
                    _bad_intersection, 2,
                    "non-object intersections entry: TypeError, exit 1"),
             "nerve intersection entry that is not an object: exit 2"),
            ("defect-boundary", "crossed-verify", [],
             broken(crossed("conjugation", (S3,), "crossed-verify"),
                    _bad_boundary, 2,
                    "out-of-range crossed boundary: IndexError, exit 1"),
             "crossed-module boundary outside H: exit 2"),
            ("defect-bool", "units", [],
             # a nonzero map, so every variant has an entry 1 to turn true
             broken(complex2((2,), (2, 2), "units", images=[(1, 0)]),
                    _bool_entry, 2,
                    "JSON true accepted as a matrix integer, exit 0"),
             "JSON true as a matrix entry: exit 2"),
        ]
    if workload == "point-enum":
        return [
            ("contractible-c2-16", "contractible", [],
             complex2((16,), (2, 8), "contractible"),
             "2-term contractibility, |A| = 16"),
            ("contractible-c2-32", "contractible", [],
             complex2((2, 16), (4, 8), "contractible"),
             "2-term contractibility, |A| = 32"),
            ("contractible-c2-64", "contractible", [],
             complex2((4, 16), (2, 8), "contractible"),
             "2-term contractibility, |A| = 64: |A|^3 element steps"),
            ("units-c2-16", "units", [], complex2((2, 8), (16,), "units"),
             "2-term units and morphism table, |A| = 16"),
            ("units-c2-32", "units", [], complex2((32,), (2, 4), "units"),
             "2-term units and morphism table, |A| = 32"),
            # five units inputs of one cost hold the middle ranks, so the
            # median verdict time is the middle of one cluster of samples
            ("units-c2-64", "units", [], complex2((2, 32), (8,), "units"),
             "2-term units and morphism table, |A| = 64"),
            ("units-c2-64b", "units", [], complex2((64,), (4,), "units"),
             "2-term units and morphism table, |A| = 64, cyclic"),
            ("units-c2-64c", "units", [], complex2((4, 16), (2, 8), "units"),
             "2-term units and morphism table, |A| = 64, two factors"),
            ("units-c2-64d", "units", [], complex2((8, 8), (4, 8), "units"),
             "2-term units and morphism table, |A| = 64, Z/8 x Z/8"),
            ("units-c2-64e", "units", [],
             complex2((2, 2, 16), (16,), "units"),
             "2-term units and morphism table, |A| = 64, three factors"),
            ("contractible-c3-a", "contractible", [],
             complex3((4,), (16,), (4,), "contractible"),
             "criterion-4 family: unit 2-groupoid, |B| = 16, cyclic"),
            ("contractible-c3-b", "contractible", [],
             complex3((2, 4), (2, 4), (2,), "contractible"),
             "criterion-4 family: unit 2-groupoid, |A| = |B| = 8"),
            ("contractible-c3-c", "contractible", [],
             complex3((2, 2), (2, 8), (4,), "contractible"),
             "criterion-4 family: unit 2-groupoid, |B| = 16, non-cyclic"),
            ("contractible-c3-d", "contractible", [],
             complex3((8,), (8,), (8,), "contractible"),
             "criterion-4 family: unit 2-groupoid, all orders 8"),
            ("units-c3-a", "units", [], complex3((4,), (16,), (4,), "units"),
             "3-term units, |B| = 16"),
            ("units-c3-b", "units", [],
             complex3((2, 2), (2, 8), (2, 2), "units"),
             "3-term units, |B| = 16, non-cyclic"),
            # with these two the median falls inside the cluster of the
            # cheapest three |A| = 64 units inputs, not at its edge
            ("units-c3-c", "units", [],
             complex3((2,), (4, 4), (2,), "units"),
             "3-term units, |B| = 16, Z/4 x Z/4"),
            ("units-c3-d", "units", [],
             complex3((4,), (2, 8), (2,), "units"),
             "3-term units, |B| = 16, Z/2 x Z/8"),
        ]
    if workload == "descent":
        return [
            ("cech-circle-zero", "cech-classify", [],
             _torsor_four(),
             "circle, Z/2 -> Z/2 zero map: 4096 candidates, 4 torsors"),
            ("cech-circle-id", "cech-classify", [],
             cech(complex2((2,), (2,), "cech"), "circle"),
             "circle, Z/2 -> Z/2 identity: 4096 candidates"),
            ("cech-point-c2-a", "cech-classify", [],
             cech(complex2((2, 8), (4, 4), "cech"), "point"),
             "point, |A||B| = 256 candidates, larger Smith forms"),
            ("cech-point-c2-b", "cech-classify", [],
             cech(complex2((4, 4), (2, 4), "cech"), "point"),
             "point, |A||B| = 128 candidates"),
            ("cech-point-c3", "cech-classify", [],
             cech(complex3((2, 2), (2, 4), (2, 2), "cech"), "point"),
             "3-term classification on the point"),
            ("cech-circle-c3-a", "cech-classify", [],
             cech(complex3((2,), (4,), (2,), "cech"), "circle"),
             "3-term classification on the circle, order product 16"),
            ("cech-circle-c3-b", "cech-classify", [],
             cech(complex3((2,), (4,), (2, 4), "cech"), "circle"),
             "3-term classification on the circle, order product 64"),
            ("cech-circle-c3-c", "cech-classify", [],
             cech(complex3((4,), (2,), (4,), "cech"), "circle"),
             "3-term classification on the circle, order product 32"),
            ("cech-circle-c3-d", "cech-classify", [],
             cech(complex3((2,), (2,), (2,), "cech"), "circle"),
             "3-term classification on the circle, order product 8"),
            ("triples-circle-s3", "crossed-units", [],
             crossed("conjugation", (S3,), "crossed-units", "circle"),
             "S3 units and 216 descent triples on the circle"),
            ("triples-circle-mod", "crossed-units", [],
             crossed("module", (7, 3, 2), "crossed-units", "circle"),
             "Z/7 with Z/3 acting: 343 descent triples on the circle"),
            ("triples-circle-d6", "crossed-units", [],
             crossed("conjugation", (D6,), "crossed-units", "circle"),
             "D6 acting on itself: 1728 descent triples on the circle"),
            ("verify-s4", "crossed-verify", [],
             crossed("conjugation", (S4,), "crossed-verify"),
             "crossed-module axioms on S4 acting on itself, order 24"),
            ("verify-d12", "crossed-verify", [],
             crossed("conjugation", (D12,), "crossed-verify"),
             "crossed-module axioms on D12 acting on itself, order 24"),
            ("verify-a4-s4", "crossed-verify", [],
             crossed("normal", (S4, [_s4_three_cycle(), _s4_double()]),
                     "crossed-verify"),
             "A4 normal in S4: order-12 module over order 24"),
            ("verify-z8-z4", "crossed-verify", [],
             crossed("abelian", (8, 4, 1), "crossed-verify"),
             "Z/8 -> Z/4 with trivial action"),
            # four more short inputs put the median inside the cluster of
            # short verdicts, not at its edge next to triples-circle-mod
            ("verify-d6", "crossed-verify", [],
             crossed("conjugation", (D6,), "crossed-verify"),
             "crossed-module axioms on D6 acting on itself, order 12"),
            ("verify-mod", "crossed-verify", [],
             crossed("module", (7, 3, 2), "crossed-verify"),
             "Z/7 with Z/3 acting by squaring, trivial boundary"),
            ("cech-point-c2-c", "cech-classify", [],
             cech(complex2((8,), (2, 4), "cech"), "point"),
             "point, |A||B| = 64 candidates"),
            ("cech-point-c3-b", "cech-classify", [],
             cech(complex3((2,), (4,), (2,), "cech"), "point"),
             "3-term classification on the point, orders 2/4/2"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _s4_index(perm):
    import itertools
    return sorted(itertools.permutations(range(4))).index(perm)


def _s4_three_cycle():
    return _s4_index((1, 2, 0, 3))


def _s4_double():
    return _s4_index((1, 0, 3, 2))


def _torsor_four():
    """The Z/2 -> Z/2 zero map on the circle.  Criterion 6's independent
    enumerator (tests/oracles.py, oracle_torsor_classes) counts 4 torsor
    classes; Aut(Z/2) is trivial, so every variant is the same input."""
    inner = cech(complex2((2,), (2,), "cech", images=[(0,)]), "circle")

    def build(rng):
        doc, known = inner(rng)
        known["data"]["torsor_classes"] = 4
        return doc, known
    return build


def generate(workload, seed):
    """The corpus for one workload and seed, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    out = [make_input(workload, slot, rng.randrange(VARIANTS))
           for slot in _slots(workload)]
    rng.shuffle(out)
    return out


def variant_rng(workload, name, variant):
    """The generator a slot's maker draws one variant from."""
    return random.Random(f"{workload}/{name}/{variant}")


def make_input(workload, slot, variant):
    name, command, args, maker, why = slot
    doc, known = maker(variant_rng(workload, name, variant))
    record = {"id": f"{name}#{variant}", "workload": workload, "slot": name,
              "variant": variant, "command": command, "args": list(args),
              "why": why, "known": known}
    if isinstance(doc, str):
        record["spec"] = doc
        return record
    record["spec"] = json.dumps(doc)
    if command == "cech-classify" and doc["kind"] == "complex2":
        # torsor candidates |A|^|V1| |B|^|V0|, computed from the input
        levels = NERVE_LEVELS["circle" if "nerve" in doc else "point"]
        groups = doc["groups"]
        record["candidates"] = (alg.order(groups["A"]["inv"]) ** levels[1]
                                * alg.order(groups["B"]["inv"]) ** levels[0])
    return record


def all_variants(workload):
    """Every input any seed can draw, for recording digests."""
    return [make_input(workload, slot, k)
            for slot in _slots(workload) for k in range(VARIANTS)]


def slot_names(workload):
    return [slot[0] for slot in _slots(workload)]
