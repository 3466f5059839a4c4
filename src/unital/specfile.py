"""JSON input files describing complexes, crossed modules, and covers.

The format is versioned UTF-8 JSON.  Matrices are row-major integer arrays
(rows indexed by target generators).  A minimal 2-term complex:

    {"schema": "unital/1",
     "kind": "complex2",
     "groups": {"A": {"inv": [2]}, "B": {"inv": [4]}},
     "maps": {"lambda": [[2]]}}

A 3-term complex (kind "complex3") adds a group C and names its maps
delta: A -> B and lambda: B -> C.  ``COMPLEX_KINDS`` lists each kind's
groups and maps, and one path parses both into a ``groups.Complex``: a
missing group is trivial, a missing map is zero, and the record refuses a
nonzero composite.  Groups are given by invariant factors plus an
optional free rank and must already be in canonical form, since the
matrices refer to their generators.
A cover may be attached under "nerve" (parts plus intersection table), or
supplied separately; ``covers._parse_cover`` reads it, with this module's
``SpecError``.  Errors carry the JSON path of the offending field.
Parsing builds values of ``groups``, ``tables`` and ``covers`` only.
"""

from __future__ import annotations

import json

from . import covers, groups, tables
from .record import Record
from .verification import CapExceeded

SCHEMA = "unital/1"
# per complex kind, the names of its terms and of the maps between them
COMPLEX_KINDS = {"complex2": (("A", "B"), ("lambda",)),
                 "complex3": (("A", "B", "C"), ("delta", "lambda"))}
KINDS = (*COMPLEX_KINDS, "crossed_module")
# per group: qiso on a 3-term complex of free rank 64 takes about 4 s on a
# 2-core Xeon, and a default zero map of n generators is an n x n matrix
MAX_GENERATORS = 64


class SpecError(ValueError):
    """Input file rejected; the message starts with the JSON path."""


class ComplexSpecFile(Record):
    kind: str
    payload: object           # Complex | CrossedModule
    cover: covers.Cover | None
    raw: dict                 # canonicalized source document

    def canonical_text(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _need(doc, key, path, kind=None):
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: expected an object")
    if key not in doc:
        raise SpecError(f"{path}: missing required field {key!r}")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise SpecError(f"{path}.{key}: expected {kind.__name__}")
    return val


def _built(path, make, *args):
    """make(*args), with its ValueError refused as a SpecError at path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is 1


def _parse_group(doc, path):
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: expected an object with 'inv'/'free'")
    inv = doc.get("inv", [])
    free = doc.get("free", 0)
    if not isinstance(inv, list) or not all(_is_int(d) for d in inv):
        raise SpecError(f"{path}.inv: expected a list of integers")
    if not _is_int(free) or free < 0:
        raise SpecError(f"{path}.free: expected a nonnegative integer")
    G = _built(path, groups.FgAbGroup, tuple(inv), free)
    if G.ngens > MAX_GENERATORS:
        raise CapExceeded(f"{path}: {G.ngens} generators exceed the cap "
                          f"{MAX_GENERATORS}")
    return G


def _parse_matrix(doc, path):
    if not isinstance(doc, list) or \
            not all(isinstance(r, list) and all(_is_int(x) for x in r)
                    for r in doc):
        raise SpecError(f"{path}: expected a row-major integer matrix")
    return doc


def _parse_hom(mat, src, tgt, path):
    rows = _parse_matrix(mat, path)
    if len(rows) != tgt.ngens or any(len(r) != src.ngens for r in rows):
        raise SpecError(f"{path}: matrix must be {tgt.ngens} x {src.ngens}")
    return _built(path, groups.GroupHom, src, tgt, rows)


def _parse_finite_group(doc, path):
    table = _parse_matrix(_need(doc, "table", path, list), f"{path}.table")
    return _built(path, tables.FiniteGroup, table, doc.get("name", "G"))


def load_json(text, path="$"):
    """Decode a JSON document; malformed text, an integer longer than the
    interpreter converts, or nesting deeper than the decoder can follow,
    raises SpecError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from None
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise SpecError(f"{path}: unreadable JSON ({exc})") from None
    except RecursionError:
        raise SpecError(f"{path}: JSON nested too deeply") from None


def parse_spec(text) -> ComplexSpecFile:
    """Parse and validate an input document; raises SpecError with the path
    of the first offending field."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise SpecError("$: expected a JSON object")
    schema = doc.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise SpecError(f"schema: unsupported version {schema!r}")
    kind = _need(doc, "kind", "$", str)
    if kind not in KINDS:
        raise SpecError(f"kind: expected one of {KINDS}")

    cover = None
    if "nerve" in doc:
        cover = covers._parse_cover(doc["nerve"], "nerve")

    if kind in COMPLEX_KINDS:
        groups_doc, maps_doc = doc.get("groups", {}), doc.get("maps", {})
        for key, val in (("groups", groups_doc), ("maps", maps_doc)):
            if not isinstance(val, dict):
                raise SpecError(f"{key}: expected an object")
        names, map_names = COMPLEX_KINDS[kind]
        terms = [_parse_group(groups_doc.get(n, {}), f"groups.{n}")
                 for n in names]
        maps = [_parse_hom(maps_doc.get(m, _zero(S, T)), S, T, f"maps.{m}")
                for m, S, T in zip(map_names, terms, terms[1:])]
        # the endpoints match, so only a composite can be refused
        payload = _built("maps", groups.Complex, terms, maps)
    else:
        G = _parse_finite_group(_need(doc, "G", "$", dict), "G")
        H = _parse_finite_group(_need(doc, "H", "$", dict), "H")
        boundary = _need(doc, "boundary", "$", list)
        if not all(_is_int(h) for h in boundary):
            raise SpecError("boundary: expected a list of integers")
        action = _parse_matrix(_need(doc, "action", "$", list), "action")
        payload = _built("$", tables.CrossedModule, G, H, boundary, action)

    return ComplexSpecFile(kind, payload, cover, _canonical_doc(doc))


def _zero(src, tgt):
    return [[0] * src.ngens for _ in range(tgt.ngens)]


def _canonical_doc(doc):
    out = {"schema": SCHEMA}
    for key in sorted(doc):
        if key != "schema":
            out[key] = doc[key]
    return out
