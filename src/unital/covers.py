"""Covers: finite lists of named parts with an intersection table, and
their truncated Cech nerves.

``Cover`` checks its table when built; ``cover_of_parts`` builds one from
part names, as input files give it, and ``point_cover`` is the one-part
cover of a point.  ``Nerve`` is the nerve of a cover at levels 0..3,
built from the cover alone: ``crossed-units`` builds its descent triples
on it, and ``cech.cech_nerve`` builds the nerves of ``cech-classify``,
whose cocycle calculus is in ``cech``.  ``_parse_cover`` reads the JSON
form of a cover for ``specfile`` and the ``--nerve`` option, refusing with
``SpecError`` at the path of the offending field.

This lazy layer imports none (see ``unital._LAYERS``), so parsing an
input with a nerve, or building the nerve, executes it and no Cech
calculus, and parsing an input without a nerve does not execute it.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from .record import Record, _ints
from .specfile import SpecError, _built, _need
from .verification import CapExceeded

TOP_LEVEL = 3
MAX_CELLS_PER_LEVEL = 64


class Cover(Record):
    """Named parts with an intersection table.

    ``components`` maps a frozenset of part indices to the tuple of its
    connected component names; missing non-singleton sets are empty
    intersections.  ``containments`` resolves which component of a larger
    intersection a component lands in, where that is ambiguous.
    """

    parts: tuple[str, ...]
    # read-only defaults: __post_init__ puts fresh dicts on every instance
    components: dict = MappingProxyType({})
    containments: dict = MappingProxyType({})

    def __post_init__(self):
        comps, indices = {}, set(range(len(self.parts)))
        for key, names in self.components.items():
            key = frozenset(_ints(key, "part indices"))
            if not key:
                raise ValueError("an intersection names no part")
            if not key <= indices:
                raise ValueError(f"bad intersection key {set(key)}")
            names = tuple(names)
            if not names:
                raise ValueError(f"declare at least one component of "
                                 f"{self._named(key)} or omit the set")
            if len(set(names)) < len(names):
                raise ValueError(f"component names repeat in "
                                 f"{self._named(key)}: {list(names)}")
            comps[key] = names
        for i in range(len(self.parts)):
            comps.setdefault(frozenset([i]), ("*",))
        # closure under subsets: a nonempty intersection forces every
        # sub-intersection nonempty
        for key in comps:
            for r in range(1, len(key)):
                for sub in itertools.combinations(sorted(key), r):
                    if frozenset(sub) not in comps:
                        raise ValueError(
                            f"inconsistent table: {self._named(key)} is "
                            f"nonempty but {self._named(sub)} is not declared")
        # a face drops one index, so a containment is consulted only from a
        # declared component into the intersection with one part fewer
        for (source, comp, target), sub_comp in self.containments.items():
            if not source | target <= indices:
                raise ValueError(f"bad containment key {set(source)} in "
                                 f"{set(target)}")
            src, tgt = self._named(source), self._named(target)
            if comp not in comps.get(source, ()):
                raise ValueError(f"containment source {src}:{comp} is not a "
                                 f"declared component")
            if not target < source or len(source - target) > 1:
                raise ValueError(
                    f"containment {src}:{comp} in {tgt} is never consulted: "
                    f"{tgt} is not {src} less one part")
            if sub_comp not in comps.get(target, ()):
                raise ValueError(f"containment target {tgt}:{sub_comp} is not "
                                 f"a declared component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "containments", dict(self.containments))

    def component_in(self, source_set, comp, target_set):
        """Component of the larger intersection containing (source_set, comp)."""
        if target_set == source_set:
            return comp
        names = self.components[target_set]
        if len(names) == 1:
            return names[0]
        key = (source_set, comp, target_set)
        if key in self.containments:
            return self.containments[key]
        raise ValueError(
            f"ambiguous component containment {self._named(source_set)}:"
            f"{comp} -> {self._named(target_set)}; declare it explicitly")

    def _named(self, key):
        """The part names of an index set, sorted as cover_of_parts sorts
        them in its own messages."""
        return sorted(self.parts[i] for i in key)


def point_cover():
    return Cover(("U",))


def cover_of_parts(parts, intersections, containments=None):
    """Build a cover from name-based data.

    ``intersections``: iterable of (part name tuple, component names).
    ``containments``: iterable of (parts, component, subparts, subcomponent).
    """
    parts, comps = tuple(parts), {}
    idx = {p: i for i, p in enumerate(parts)}
    if len(idx) < len(parts):
        raise ValueError(f"part names repeat: {list(parts)}")

    def indices(names):
        for p in names:
            if p not in idx:
                raise ValueError(f"unknown part {p!r}")
        return frozenset(idx[p] for p in names)

    for key, names in intersections:
        key = indices(key)
        if key in comps:
            raise ValueError(f"intersection {sorted(parts[i] for i in key)} "
                             "is declared twice")
        comps[key] = tuple(names)
    cont = {}
    for key, comp, sub, subcomp in (containments or ()):
        at = (indices(key), comp, indices(sub))
        if at in cont:
            raise ValueError(f"containment {sorted(set(key))}:{comp} in "
                             f"{sorted(set(sub))} is declared twice")
        cont[at] = subcomp
    return Cover(parts, comps, cont)


# --------------------------------------------------------------------------
# nerves


class Nerve:
    """Truncated simplicial set of a cover, levels 0..3.

    ``level(n)`` holds the level-n cells, (index tuple, component name)
    pairs, sorted.  Level n+1 extends level-n index tuples by one index
    while the index set is declared; declared sets are closed under
    subsets, so no cell is missed.  Callers name a cell by its position
    in its level.  ``faces(n)`` is the one face table: entry k holds the
    positions in level n-1 of the faces d_0..d_n of the k-th level-n
    cell, d_i dropping index i (a level-0 cell has none).  Faces resolve
    level by level, then by i, then cell by cell, so a cover is refused
    at its first ambiguous containment; the simplicial identities
    d_i d_j = d_(j-1) d_i for i < j are then verified exhaustively on
    the table.
    """

    def __init__(self, cover: Cover):
        self.cover = cover
        nparts = len(cover.parts)
        self._cells = []
        tuples = [()]
        for n in range(TOP_LEVEL + 1):
            tuples = [t + (j,) for t in tuples for j in range(nparts)
                      if frozenset(t + (j,)) in cover.components]
            level = sorted((t, comp) for t in tuples
                           for comp in cover.components[frozenset(t)])
            if len(level) > MAX_CELLS_PER_LEVEL:
                raise CapExceeded(
                    f"level {n} has {len(level)} cells (cap "
                    f"{MAX_CELLS_PER_LEVEL})")
            self._cells.append(tuple(level))
        self._faces = [((),) * len(self._cells[0])]
        for n in range(1, TOP_LEVEL + 1):
            position = {cell: k for k, cell in enumerate(self._cells[n - 1])}
            columns = []
            for i in range(n + 1):
                column = []
                for tup, comp in self._cells[n]:
                    sub = tup[:i] + tup[i + 1:]
                    column.append(position[sub, cover.component_in(
                        frozenset(tup), comp, frozenset(sub))])
                columns.append(column)
            self._faces.append(tuple(zip(*columns)))
        self._verify_simplicial_identities()

    def level(self, n):
        return self._cells[n]

    def faces(self, n):
        return self._faces[n]

    def _verify_simplicial_identities(self):
        for n in range(2, TOP_LEVEL + 1):
            below = self._faces[n - 1]
            for j in range(n + 1):
                for i in range(j):
                    for cell, f in zip(self._cells[n], self._faces[n]):
                        if below[f[j]][i] != below[f[i]][j - 1]:
                            raise ValueError(
                                f"simplicial identity d_{i} d_{j} = "
                                f"d_{j - 1} d_{i} fails at {cell}")

    def __str__(self):
        sizes = ", ".join(str(len(lv)) for lv in self._cells)
        return f"Nerve(levels [{sizes}] of cover {list(self.cover.parts)})"


# --------------------------------------------------------------------------
# a cover as input files give it (see specfile)


def _parse_cover(doc, path):
    parts = _need(doc, "parts", path, list)
    if not parts or not all(isinstance(p, str) for p in parts):
        raise SpecError(f"{path}.parts: expected a nonempty list of names")
    inters = []
    for k, entry in enumerate(_optional_list(doc, "intersections", path)):
        epath = f"{path}.intersections[{k}]"
        names = _part_names(entry, "parts", epath, parts)
        comps = entry.get("components", ["*"])
        if not isinstance(comps, list) or \
                not all(isinstance(c, str) for c in comps):
            raise SpecError(f"{epath}.components: expected a list of names")
        inters.append((names, tuple(comps)))
    conts = []
    for k, entry in enumerate(_optional_list(doc, "containments", path)):
        epath = f"{path}.containments[{k}]"
        conts.append((_part_names(entry, "parts", epath, parts),
                      _need(entry, "component", epath, str),
                      _part_names(entry, "sub_parts", epath, parts),
                      _need(entry, "sub_component", epath, str)))
    return _built(path, cover_of_parts, parts, inters, conts)


def _part_names(entry, key, epath, parts):
    names = _need(entry, key, epath, list)
    for p in names:
        if p not in parts:
            raise SpecError(f"{epath}: unknown part {p!r}")
    return tuple(names)


def _optional_list(doc, key, path):
    val = doc.get(key, [])
    if not isinstance(val, list):
        raise SpecError(f"{path}.{key}: expected a list")
    return val
