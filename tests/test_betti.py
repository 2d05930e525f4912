"""Betti tables, two computation routes, t-vectors, subadditivity."""

import random

import pytest

from dgares.betti import (
    BettiTable,
    TVector,
    betti_from_complex,
    betti_table,
    betti_table_direct,
    check_subadditivity,
    t_vector,
)
from dgares.corpus import (
    cone_lattice_ideal,
    cycle_ideal,
    random_monomial_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
)
from dgares.ideals import MonomialIdeal, divides
from dgares.lattices import atom_isomorphism, atom_sets
from dgares.minimize import minimal_resolution


def test_cycle_ideal_totals():
    table = betti_table(cycle_ideal(6))
    assert table.totals() == (1, 6, 9, 6, 2)
    assert table.projective_dimension() == 4
    assert table.total(2) == 9
    assert len(table.degrees(4)) <= 2


def test_betti_from_complex_counts_basis_degrees():
    res = minimal_resolution(tagged_four_cycle_ideal())
    table = betti_from_complex(res.complex)
    assert table.totals() == (1, 4, 5, 2)
    for (i, a), r in table.entries.items():
        assert r == sum(1 for b in res.complex.basis_at(i) if b.mdeg == a)


def test_two_routes_agree_entry_for_entry():
    rng = random.Random(5)
    for _ in range(8):
        ideal = random_monomial_ideal(rng, max_gens=5, max_vars=5)
        assert betti_table(ideal).entries == betti_table_direct(ideal).entries


def test_two_routes_agree_on_catalog_members():
    for ideal in (cycle_ideal(6), tagged_four_cycle_ideal(), strongly_generic_ideal()):
        assert betti_table(ideal).entries == betti_table_direct(ideal).entries


def betti_atom_sets(ideal):
    return atom_sets(ideal, {a for (_, a) in betti_table(ideal).entries})


def test_betti_poset_under_divisibility():
    p = betti_atom_sets(tagged_four_cycle_ideal())
    # Scarf degrees are distinct, so one element per basis vector
    assert len(p) == 12
    assert len(set(p.values())) == 12
    for a in p:
        for b in p:
            assert (p[a] <= p[b]) == divides(a, b)
    p51 = betti_atom_sets(strongly_generic_ideal())
    assert len(p51) == 20
    # the cone construction on the Scarf complex of the same ideal keeps
    # the generator order, so the identity carries one onto the other
    cone = betti_atom_sets(cone_lattice_ideal())
    iso = atom_isomorphism(cone, p51)
    assert iso is not None
    assert all(p51[iso[a]] == s for a, s in cone.items())


def test_t_vector_by_hand():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    tv = t_vector(betti_table(ideal))
    assert tv.values == (0, 2, 3, 4)
    # a table with a gap below its projective dimension has no t-vector
    with pytest.raises(ValueError, match="no Betti numbers in hdeg 1"):
        t_vector(BettiTable(2, {(0, (0, 0)): 1, (2, (1, 1)): 1}))


def test_t_vector_requires_leading_zero():
    with pytest.raises(ValueError, match="t_0"):
        TVector((1, 2))
    with pytest.raises(ValueError, match="t_0"):
        TVector(())


def test_subadditivity_modes():
    good = TVector((0, 2, 3, 4))
    assert check_subadditivity(good, mode="all").passed
    assert check_subadditivity(good, mode="first_step").passed
    bad = TVector((0, 2, 3, 6))
    rep = check_subadditivity(bad, mode="all")
    assert not rep.passed
    assert (1, 3, 6, 5) in rep.violations
    rep1 = check_subadditivity(bad, mode="first_step")
    assert rep1.violations == [(1, 3, 6, 5)]
    with pytest.raises(ValueError):
        check_subadditivity(good, mode="everything")


def test_first_step_subadditivity_on_random_ideals():
    rng = random.Random(17)
    for _ in range(10):
        ideal = random_monomial_ideal(rng, max_gens=5, max_vars=5)
        tv = t_vector(betti_table(ideal))
        assert check_subadditivity(tv, mode="first_step").passed
