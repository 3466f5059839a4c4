"""Every ``Record`` behaves like the frozen dataclass it replaces.

Each record class of the library is checked against a twin made by
``dataclasses.make_dataclass(..., frozen=True)`` with the same name, fields,
defaults and methods, on values the library itself builds.  Failing checks
print their witnesses through ``repr``, and no corpus input fails a check,
so this test is what pins that text.
"""

import dataclasses
import itertools

import pytest

import unital
from unital import abelian, cech, complexes, covers, crossed
from unital import specfile, verification
from unital.record import Record

Z2 = abelian.FgAbGroup((2,), 0)
Z4 = abelian.FgAbGroup((4,), 0)
X2 = complexes.Complex((Z2, Z4), (abelian.GroupHom(Z2, Z4, [[2]]),))
X2B = complexes.Complex((Z4, Z2), (abelian.GroupHom(Z4, Z2, [[1]]),))
X3 = complexes.Complex((Z2, Z2, Z2), (abelian.GroupHom.zero(Z2, Z2),
                                      abelian.GroupHom.identity(Z2)))
X3B = complexes.Complex((Z2, Z4, Z2), (abelian.GroupHom(Z2, Z4, [[2]]),
                                       abelian.GroupHom(Z4, Z2, [[1]])))
Z3 = crossed.FiniteGroup.cyclic(3)
C3_ON_ITSELF = crossed.CrossedModule(Z3, Z3, range(3),
                                     [[g] * 3 for g in range(3)])
C2_TRIVIAL = crossed.CrossedModule(crossed.FiniteGroup.cyclic(2),
                                   crossed.FiniteGroup.cyclic(2), (0, 0),
                                   ((0, 0), (1, 1)))
CIRCLE = covers.cover_of_parts(
    ("a0", "a1", "a2"),
    [(("a0", "a1"), ("c",)), (("a1", "a2"), ("c",)), (("a0", "a2"), ("c",))])


# a few library-built values of every record class, some of them equal
SAMPLES = {
    "FgAbGroup": lambda: [Z2, Z4, abelian.FgAbGroup((2,), 0),
                          abelian.FgAbGroup((2, 4), 1)],
    "GroupElem": lambda: [*abelian.FgAbGroup((2, 4), 0).elements()][:4]
    + [abelian.GroupElem(Z2, (0,)), abelian.GroupElem(Z4, (0,))],
    "GroupHom": lambda: [abelian.GroupHom(Z2, Z4, [[2]]),
                         abelian.GroupHom.identity(Z4),
                         abelian.GroupHom.zero(Z4, Z4)],
    "DirectSum": lambda: [abelian.direct_sum_many([Z2, Z4]),
                          abelian.direct_sum_many([Z4, Z2])],
    "Complex2": lambda: [X2, X2B],
    "Complex3": lambda: [X3, X3B],
    "StrictMorphism": lambda: [complexes.StrictMorphism.identity(X)
                               for X in (X2, X2B, X3)],
    "CrossedModule": lambda: [C3_ON_ITSELF, C2_TRIVIAL],
    "Cover": lambda: [covers.point_cover(), CIRCLE],
    "TorsorClasses": lambda: [
        cech.torsor_classes(cech.cech_nerve(cover), X)
        for cover, X in ((covers.point_cover(), X2), (CIRCLE, X2),
                         (covers.point_cover(), X2B))],
    "QuasiIsoResult": lambda: [
        complexes.is_quasi_isomorphism(complexes.StrictMorphism.identity(X))
        for X in (X2, X2B)],
    "ComplexSpecFile": lambda: [
        specfile.parse_spec(specfile.parse_spec(text).canonical_text())
        for text in ('{"kind": "complex2", "groups": {"A": {"inv": [2]}}}',
                     '{"kind": "complex3", "groups": {}, "maps": {}}')],
    "Check": lambda: [verification.Check("a", True),
                      verification.Check("a", True, None),
                      verification.Check("b", False, (1, Z2)),
                      verification.Check("b", False, [1])],
}


def _records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("unital."):
            yield sub
        yield from _records(sub)


# a lazy module defines its record classes only once it executes
for name in unital.__all__:
    getattr(unital, name)
RECORDS = sorted(_records(), key=lambda cls: cls.__name__)


def _case_names(cls):
    # one case per length of complex, named by its number of terms
    if cls is complexes.Complex:
        return ["Complex2", "Complex3"]
    return [cls.__name__]


# each case names its samples in SAMPLES and the record class they are of
CASES = {name: cls for cls in RECORDS for name in _case_names(cls)}


def _samples(case):
    records = SAMPLES[case]()
    if CASES[case] is complexes.Complex:
        assert {len(r.terms) for r in records} == {int(case[-1])}
    return records


def _fields(cls):
    return tuple(vars(cls)["__annotations__"])


def _values(record):
    return [getattr(record, name) for name in _fields(type(record))]


# what a class body holds only because it is a Record, or any class
_RECORD_ONLY = {"__dict__", "__weakref__", "__annotations__", "__module__",
                "__qualname__", "_fields", "_defaults", "_astuple", "_init"}


def _twin(cls):
    """The frozen dataclass that ``cls`` stands for, with its own methods."""
    own = vars(cls)
    specs = [(name, object) if name not in own else
             # a factory, since a read-only mapping is not a hashable default
             (name, object,
              dataclasses.field(default_factory=lambda v=own[name]: v))
             for name in _fields(cls)]
    namespace = {key: value for key, value in own.items()
                 if key not in _fields(cls) and key not in _RECORD_ONLY}
    return dataclasses.make_dataclass(cls.__name__, specs,
                                      namespace=namespace, frozen=True)


def _hashed(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_record_has_samples():
    assert len(RECORDS) == 12
    assert set(CASES) == set(SAMPLES)
    assert all(cls.__bases__ == (Record,) for cls in RECORDS)


@pytest.mark.parametrize("case", CASES)
def test_equality_hash_and_repr_match_the_dataclass(case):
    cls = CASES[case]
    twin = _twin(cls)
    records = _samples(case)
    assert len(records) >= 2
    assert all(type(r) is cls for r in records)
    twins = [twin(*_values(r)) for r in records]
    for record, other in zip(records, twins):
        copy = cls(*_values(record))
        assert copy is not record and copy == record and not copy != record
        assert repr(record) == repr(other) == repr(copy)
        assert _hashed(record) == _hashed(other) == _hashed(copy)
        assert record != other and other != record
    for (r1, t1), (r2, t2) in itertools.product(zip(records, twins),
                                                repeat=2):
        assert (r1 == r2) == (t1 == t2)
        assert (r1 != r2) == (t1 != t2)
    assert any(r1 != r2 for r1, r2 in itertools.combinations(records, 2))


@pytest.mark.parametrize("case", CASES)
def test_keywords_and_defaults_match_the_dataclass(case):
    cls = CASES[case]
    twin = _twin(cls)
    record = _samples(case)[0]
    names, values = _fields(cls), _values(record)
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    required = [name for name in names if name not in vars(cls)]
    for k in range(len(required), len(names) + 1):  # the rest defaulted
        given = dict(zip(names[:k], values))
        assert _values(cls(**given)) == _values(twin(**given))
        assert _values(cls(*values[:k])) == _values(twin(*values[:k]))


@pytest.mark.parametrize("case", CASES)
def test_bad_arguments_raise_type_error(case):
    cls = CASES[case]
    twin = _twin(cls)
    record = _samples(case)[0]
    names, values = _fields(cls), _values(record)
    calls = [(values + [None], {}),                          # extra
             (values, {names[0]: values[0]}),                # repeated
             (values, {"nonesuch": 1})]                      # unknown
    if names[0] not in vars(cls):
        calls.append(((), dict(zip(names[1:], values[1:]))))  # missing
    for args, kwargs in calls:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize("case", CASES)
def test_records_are_immutable(case):
    cls = CASES[case]
    record = _samples(case)[0]
    twin = _twin(cls)(*_values(record))
    for value in (record, twin):
        for name in (_fields(cls)[0], "nonesuch"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert _values(record) == _values(twin)


def test_post_init_runs_once_per_construction():
    seen = []

    class Probe(Record):
        x: int
        y: int = 0

        def __post_init__(self):
            seen.append((self.x, self.y))

    Probe(1)
    Probe(2, 3)
    Probe(x=4)
    Probe(5, y=6)
    Probe(y=8, x=7)
    assert seen == [(1, 0), (2, 3), (4, 0), (5, 6), (7, 8)]
    with pytest.raises(TypeError):
        Probe()
    assert len(seen) == 5


def test_validation_runs_in_every_constructor_form():
    # GroupHom's __post_init__ refuses a map that is not well defined
    for args, kwargs in [((Z2, Z4, [[1]]), {}),
                         ((), {"source": Z2, "target": Z4, "matrix": [[1]]}),
                         ((Z2,), {"matrix": [[1]], "target": Z4})]:
        with pytest.raises(ValueError, match="not a homomorphism"):
            abelian.GroupHom(*args, **kwargs)
