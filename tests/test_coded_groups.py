"""Table-coded finite abelian groups (``coded.CodedGroup``)
against the coordinate arithmetic of ``FgAbGroup`` and ``GroupHom``."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from unital.abelian import FgAbGroup
from unital.coded import CodedGroup
from unital.crossed import FiniteGroup
from unital.verification import CapExceeded

from constructions import from_images


@st.composite
def finite_groups(draw, max_order=256):
    """A finite group of order 1..max_order, canonicalized from a random
    list of cyclic orders."""
    divisors, left = [], max_order
    while left >= 2 and draw(st.booleans()):
        d = draw(st.integers(2, left))
        divisors.append(d)
        left //= d
    return FgAbGroup.from_divisors(*divisors)


@st.composite
def homs(draw, max_order=256):
    A = draw(finite_groups(max_order))
    B = draw(finite_groups(max_order))
    images = []
    for d in A.invariant_factors:
        # the d-torsion of Z/b is generated by b / gcd(b, d)
        coords = [draw(st.integers(0, b - 1)) * (b // gcd(b, d))
                  for b in B.invariant_factors]
        images.append(coords)
    return from_images(A, B, images)


def coded(G):
    return CodedGroup(G.invariant_factors)


def is_abelian(G):
    return all(G.table[a][b] == G.table[b][a]
               for a in range(G.order) for b in range(G.order))


@settings(max_examples=40, deadline=None)
@given(finite_groups())
def test_index_and_coords_follow_elements_order(G):
    T = coded(G)
    elems = list(G.elements())
    assert T.order == len(elems) == G.order()
    for k, x in enumerate(elems):
        assert T.coords(k) == x.coords
        assert T.index(x.coords) == k


@settings(max_examples=40, deadline=None)
@given(finite_groups(), st.data())
def test_tables_agree_with_element_arithmetic(G, data):
    T = coded(G)
    elems = list(G.elements())
    assert not any(elems[T.identity].coords)
    for k, x in enumerate(elems):
        assert elems[T.inverse[k]] == -x
    # every row of small tables, 16 drawn rows of large ones
    rows = range(T.order) if T.order <= 64 else \
        data.draw(st.lists(st.integers(0, T.order - 1), min_size=16,
                           max_size=16))
    for k in rows:
        x, row = elems[k], T.table[k]
        for j, y in enumerate(elems):
            assert elems[row[j]] == x + y


@settings(max_examples=60, deadline=None)
@given(homs())
def test_image_arrays_agree_with_hom_application(f):
    src, tgt = coded(f.source), coded(f.target)
    images = src.image_array(f.matrix, tgt)
    assert images == [tgt.index(f(x).coords) for x in f.source.elements()]


def test_small_coded_tables_pass_the_full_group_checks():
    for factors in [(), (2,), (6,), (2, 4), (2, 2, 2), (4, 16)]:
        T = CodedGroup(factors)
        checked = FiniteGroup(T.table)
        assert checked.identity == T.identity
        assert tuple(checked.inverse) == T.inverse
        assert is_abelian(checked)


def test_order_caps():
    assert CodedGroup((2, 128)).order == 256
    with pytest.raises(CapExceeded):
        CodedGroup((2, 256))
    cyclic_65 = [[(a + b) % 65 for b in range(65)] for a in range(65)]
    with pytest.raises(CapExceeded):
        FiniteGroup(cyclic_65)


def test_name_defaults_to_the_factors():
    assert CodedGroup((2, 4)).name == "Z/2 x Z/4"
    assert CodedGroup(()).name == "0"


def test_index_reduces_coordinates():
    T = CodedGroup((2, 4))
    assert T.index((3, -1)) == T.index((1, 3)) == 7
    assert T.coords(7) == (1, 3)
