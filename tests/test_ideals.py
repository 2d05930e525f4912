"""Multidegree arithmetic and monomial ideal invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgares.ideals import (
    MonomialIdeal,
    divides,
    is_squarefree,
    is_strongly_generic,
    join,
    join_all,
    meet,
    minimal_generators,
    polarize,
    scale_ideal,
    squarefree_cap,
    total_degree,
    vec_add,
    vec_sub,
    zero_degree,
)
from dgares.lattices import atom_isomorphism, atom_sets, lcm_lattice


def test_degree_helpers():
    a = (2, 0, 1)
    b = (1, 3, 1)
    assert join(a, b) == (2, 3, 1)
    assert meet(a, b) == (1, 0, 1)
    assert divides(meet(a, b), a) and divides(a, join(a, b))
    assert vec_add(a, b) == (3, 3, 2)
    assert vec_sub(join(a, b), b) == (1, 0, 0)
    assert total_degree(a) == 3
    assert zero_degree(4) == (0, 0, 0, 0)
    assert is_squarefree((1, 0, 1)) and not is_squarefree(a)
    assert squarefree_cap((3, 0, 1)) == (1, 0, 1)
    assert join_all([a, b, (0, 0, 5)], 3) == (2, 3, 5)
    assert join_all([], 2) == (0, 0)


def test_ideal_invariants_rejected():
    with pytest.raises(ValueError):
        MonomialIdeal(2, ())
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, -1),))
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, 0), (1, 1)))  # x divides xy
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, 1), (1, 1)))


def test_ideal_accessors():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    assert ideal.k == 3
    assert ideal.lcm_of((0, 1)) == (2, 1, 0)
    assert ideal.lcm_of(()) == (0, 0, 0)
    assert ideal.top_degree() == (2, 1, 1)
    assert ideal.contains_monomial((2, 5, 0))
    assert not ideal.contains_monomial((0, 3, 0))
    assert not ideal.is_squarefree()
    assert MonomialIdeal(2, ((1, 1),)).is_squarefree()


def test_minimal_generators_prunes_and_keeps_order():
    ideal = minimal_generators(
        [(1, 1, 0), (2, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 2)], 3
    )
    assert ideal.generators == ((1, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        minimal_generators([], 2)


def test_polarize_squarefree_is_identity_shape():
    ideal = MonomialIdeal(3, ((1, 1, 0), (0, 1, 1)))
    pol = polarize(ideal)
    assert pol.ideal.num_vars == 3
    assert pol.ideal.generators == ideal.generators
    assert pol.depolarize((1, 0, 1)) == (1, 0, 1)


def test_polarize_splits_powers():
    ideal = MonomialIdeal(2, ((3, 0), (1, 2)))
    pol = polarize(ideal)
    # x has height 3, y height 2
    assert pol.var_blocks == ((0, 3), (3, 5))
    assert pol.ideal.num_vars == 5
    assert pol.ideal.generators == ((1, 1, 1, 0, 0), (1, 0, 0, 1, 1))
    assert pol.ideal.is_squarefree()
    assert pol.depolarize((1, 1, 0, 1, 0)) == (2, 1)


def test_polarize_preserves_lcm_lattice():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (0, 2, 1)))
    pol = polarize(ideal)
    lat = lcm_lattice(ideal)
    lat_pol = lcm_lattice(pol.ideal)
    iso = pol.lattice_iso(lat_pol)
    assert sorted(iso.values()) == sorted(lat.elements)
    # depolarize is order preserving in both directions on the lattice
    for a in lat_pol.elements:
        for b in lat_pol.elements:
            assert divides(a, b) == divides(iso[a], iso[b])
    # generator i stays generator i, so depolarize keeps every atom set,
    # and the search, trying the identity first, finds exactly this map
    sets, sets_pol = atom_sets(ideal), atom_sets(pol.ideal)
    assert all(sets_pol[a] == sets[iso[a]] for a in lat_pol.elements)
    assert atom_isomorphism(sets_pol, sets) == iso


def test_is_strongly_generic():
    assert is_strongly_generic(MonomialIdeal(2, ((2, 0), (1, 1))))
    # y appears with exponent 1 in both generators
    assert not is_strongly_generic(MonomialIdeal(3, ((2, 1, 0), (0, 1, 2))))
    assert is_strongly_generic(
        MonomialIdeal(4, ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)))
    )


def test_scale_ideal_default_shift():
    ideal = MonomialIdeal(2, ((2, 0), (1, 1)))
    scaled = scale_ideal(ideal)
    s = ideal.top_degree()
    assert s == (2, 1)
    assert scaled.generators == ((4, 1), (3, 2))
    custom = scale_ideal(ideal, (1, 1))
    assert custom.generators == ((3, 1), (2, 2))


degrees = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(degrees, degrees, degrees)
def test_join_meet_laws(a, b, c):
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a
    assert divides(a, b) == (join(a, b) == b)


@settings(max_examples=40, deadline=None)
@given(st.lists(degrees, min_size=1, max_size=6))
def test_minimal_generators_is_an_antichain_with_same_span(mons):
    ideal = minimal_generators(mons, 3)
    for m in mons:
        assert ideal.contains_monomial(m)
    for g in ideal.generators:
        assert g in mons
