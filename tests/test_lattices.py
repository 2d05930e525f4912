"""Posets, isomorphism search, and lcm lattices."""

import pytest

from dgares.ideals import MonomialIdeal, divides
from dgares.lattices import (
    CapExceeded,
    Poset,
    lcm_lattice,
    poset_isomorphic,
)
from dgares.betti import betti_poset, betti_table


def divisor_poset(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return Poset.from_leq(divs, lambda a, b: b % a == 0)


def test_poset_basics():
    p = divisor_poset(12)
    assert p.n == 6
    assert p.le(2, 4) and not p.le(4, 2)
    assert p.le(1, 12) and p.le(3, 3)
    assert not p.le(4, 6)
    i2 = p.index(2)
    assert p.le_idx(i2, p.index(6))
    assert p.down(p.index(6)) == frozenset({p.index(1), p.index(2), p.index(3), p.index(6)})


def test_isomorphic_posets_found():
    p = divisor_poset(12)
    q = Poset.from_leq(["1", "2", "3", "4", "6", "12"], lambda a, b: int(b) % int(a) == 0)
    iso = poset_isomorphic(p, q)
    assert iso is not None
    for a in p.elements:
        for b in p.elements:
            assert p.le(a, b) == q.le(iso[a], iso[b])
    assert sorted(iso.values()) == sorted(q.elements)


def test_isomorphism_ignores_element_listing_order():
    # same abstract poset, elements fed in scrambled order: refinement
    # must still produce matching color ids on both sides
    elems = [1, 2, 3, 4, 6, 12]
    p = Poset.from_leq(elems, lambda a, b: b % a == 0)
    q = Poset.from_leq(list(reversed(elems)), lambda a, b: b % a == 0)
    iso = poset_isomorphic(p, q)
    assert iso is not None
    assert all(iso[a] == a for a in elems)  # divisor posets are rigid here


def test_non_isomorphic_posets_rejected():
    chain = Poset.from_leq([0, 1, 2], lambda a, b: a <= b)
    antichain = Poset.from_leq([0, 1, 2], lambda a, b: a == b)
    assert poset_isomorphic(chain, antichain) is None
    assert poset_isomorphic(chain, divisor_poset(12)) is None  # size mismatch
    # same size and same flat color counts, different shape
    v = Poset.from_leq([(0,), (1,), (0, 1)], lambda a, b: set(a) <= set(b))
    chain3 = Poset.from_leq(["a", "ab", "abc"], lambda a, b: set(a) <= set(b))
    assert poset_isomorphic(v, chain3) is None


def test_cap_guard():
    big = Poset.from_leq(list(range(10)), lambda a, b: a <= b)
    with pytest.raises(CapExceeded):
        poset_isomorphic(big, big, cap=5)
    assert poset_isomorphic(big, big, cap=10) is not None


def brute_lcms(ideal):
    from itertools import combinations

    out = set()
    for size in range(ideal.k + 1):
        for w in combinations(range(ideal.k), size):
            out.add(ideal.lcm_of(w))
    return out


def test_lcm_lattice_matches_brute_force():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (0, 2, 1), (0, 0, 2)))
    lat = lcm_lattice(ideal)
    assert set(lat.elements) == brute_lcms(ideal)
    assert lat.bottom == (0, 0, 0)
    assert lat.top == ideal.top_degree()
    for idx, g in zip(lat.atoms, ideal.generators):
        assert lat.elements[idx] == g
    # sorted by total degree then lex
    keys = [(sum(e), e) for e in lat.elements]
    assert keys == sorted(keys)


def test_lcm_lattice_collapses_duplicate_joins():
    # both pairs {a,b} and {a,b,c} hit the same lcm
    ideal = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
    lat = lcm_lattice(ideal)
    assert set(lat.elements) == {(0, 0), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)}


def test_betti_poset_contents():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    table = betti_table(ideal)
    p = betti_poset(table)
    assert set(p.elements) == {a for (_, a) in table.entries}
    for a in p.elements:
        for b in p.elements:
            assert p.le(a, b) == divides(a, b)
