"""lcm lattices, atom sets, and the isomorphism search over generator
bijections."""

import random
from itertools import combinations, permutations

import pytest

from dgares.betti import betti_table
from dgares.corpus import catalog_ideals, cycle_ideal, path_ideal, random_monomial_ideal
from dgares.ideals import MonomialIdeal, divides
from dgares.lattices import _invariants, atom_isomorphism, atom_sets, lcm_lattice
from dgares.morse import ideal_from_cone_complex
from dgares.simplicial import SimplicialComplex


def shuffled(ideal, rng):
    """The ideal with its variables and its generators put in a random order."""
    perm = list(range(ideal.num_vars))
    rng.shuffle(perm)
    gens = [tuple(g[v] for v in perm) for g in ideal.generators]
    rng.shuffle(gens)
    return MonomialIdeal(ideal.num_vars, tuple(gens))


def is_isomorphism(iso, p, q):
    """iso is a bijection of the degrees of p onto those of q that
    preserves divisibility both ways."""
    if iso is None or set(iso) != set(p) or sorted(iso.values()) != sorted(q):
        return False
    return all(divides(a, b) == divides(iso[a], iso[b]) for a in p for b in p)


def test_poset_basics():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (0, 2, 1), (0, 0, 2)))
    sets = atom_sets(ideal)
    assert list(sets) == list(lcm_lattice(ideal).elements)
    assert sets[(0, 0, 0)] == frozenset()
    assert sets[(2, 1, 0)] == {0, 1}
    assert sets[ideal.top_degree()] == {0, 1, 2, 3}
    # atom sets are an order embedding of the lattice
    assert len(set(sets.values())) == len(sets)
    for a, b in combinations(sets, 2):
        assert divides(a, b) == (sets[a] <= sets[b])
        assert divides(b, a) == (sets[b] <= sets[a])
    # any degree set, not only the lattice
    assert atom_sets(ideal, [(2, 1, 0)]) == {(2, 1, 0): {0, 1}}


def test_isomorphic_posets_found():
    rng = random.Random(3)
    for ideal in (cycle_ideal(6), path_ideal(6), cycle_ideal(9)):
        p = atom_sets(ideal)
        q = atom_sets(shuffled(ideal, rng))
        assert is_isomorphism(atom_isomorphism(p, q), p, q)
        assert is_isomorphism(atom_isomorphism(q, p), q, p)


def test_isomorphism_ignores_element_listing_order():
    ideal = cycle_ideal(6)
    p = atom_sets(ideal)
    backwards = dict(reversed(list(p.items())))
    # the identity is tried first, so it wins wherever it works
    assert atom_isomorphism(p, p) == {a: a for a in p}
    assert atom_isomorphism(p, backwards) == {a: a for a in p}
    assert atom_isomorphism(backwards, p) == {a: a for a in p}


def test_non_isomorphic_posets_rejected():
    boolean = atom_sets(MonomialIdeal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    # each pair's lcm is divisible by the third generator
    diamond = atom_sets(MonomialIdeal(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1))))
    assert atom_isomorphism(boolean, diamond) is None
    assert atom_isomorphism(diamond, boolean) is None
    # different generator counts
    assert atom_isomorphism(boolean, atom_sets(cycle_ideal(4))) is None
    for n in (6, 7):
        assert atom_isomorphism(atom_sets(cycle_ideal(n)), atom_sets(path_ideal(n + 1))) is None


def test_search_needs_every_generator_in_the_degree_set():
    ideal = cycle_ideal(4)
    p = atom_sets(ideal)
    missing = atom_sets(ideal, [a for a in p if a != ideal.generators[2]])
    with pytest.raises(ValueError, match="every generator"):
        atom_isomorphism(p, missing)
    with pytest.raises(ValueError, match="every generator"):
        atom_isomorphism(missing, p)


def test_search_has_no_size_cap():
    # 90 and 277 lattice elements, past the 64 the old search allowed
    p = atom_sets(cycle_ideal(8))
    assert len(p) == 90
    assert atom_isomorphism(p, p) == {a: a for a in p}
    p = atom_sets(cycle_ideal(10))
    q = atom_sets(shuffled(cycle_ideal(10), random.Random(1)))
    assert len(p) == 277
    assert is_isomorphism(atom_isomorphism(p, q), p, q)


def triangles_over_all_edges(triangles):
    """Atom sets of an ideal whose lcm lattice is the face poset of the
    complex on six vertices with every edge and the given triangles,
    plus a top."""
    edges = list(combinations(range(6), 2))
    return atom_sets(ideal_from_cone_complex(SimplicialComplex.from_faces(6, edges + triangles)))


def test_search_checks_the_whole_family():
    # both lattices hold every pair, and every generator lies in two
    # triangles, so no signature or smallest set tells them apart; only
    # the pair {0, 1}, in two triangles of the first, does
    p = triangles_over_all_edges([(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])
    q = triangles_over_all_edges([(0, 1, 2), (2, 3, 4), (0, 4, 5), (1, 3, 5)])
    assert len(p) == len(q)
    assert _invariants(set(p.values()), 6) == _invariants(set(q.values()), 6)
    assert atom_isomorphism(p, q) is None
    assert atom_isomorphism(q, p) is None


def first_bijection(p, q):
    """The first permutation of the generator indices, in lexicographic
    order, that maps the family of p onto that of q, as a degree map."""
    fp, fq = set(p.values()), set(q.values())
    k = len(frozenset().union(*fp))
    if len(fp) != len(fq) or k != len(frozenset().union(*fq)):
        return None
    by_set = {s: b for b, s in q.items()}
    for sigma in permutations(range(k)):
        image = {s: frozenset(sigma[i] for i in s) for s in fp}
        if set(image.values()) == fq:
            return {a: by_set[image[s]] for a, s in p.items()}
    return None


def test_search_agrees_with_every_bijection():
    rng = random.Random(7)
    ideals = [ideal for _, ideal in catalog_ideals() if ideal.k <= 5]
    while len(ideals) < 40:
        ideal = random_monomial_ideal(rng, max_gens=5, max_vars=6, max_exp=2,
                                      squarefree=len(ideals) % 2 == 0)
        if ideal.k >= 3:
            ideals.append(ideal)
    ideals += [shuffled(ideal, rng) for ideal in ideals]
    sets = [atom_sets(ideal) for ideal in ideals]
    found = 0
    for p in sets:
        for q in sets:
            if len(p) != len(q):
                continue
            iso = atom_isomorphism(p, q)
            assert iso == first_bijection(p, q)
            assert iso is None or is_isomorphism(iso, p, q)
            assert (atom_isomorphism(q, p) is None) == (iso is None)
            found += iso is not None
    assert found > len(sets)


def test_lcm_lattice_matches_brute_force():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (0, 2, 1), (0, 0, 2)))
    lat = lcm_lattice(ideal)
    lcms = {ideal.lcm_of(w) for size in range(ideal.k + 1) for w in combinations(range(ideal.k), size)}
    assert set(lat.elements) == lcms
    assert lat.ideal is ideal
    # sorted by total degree then lex: the zero degree first, the top last
    keys = [(sum(e), e) for e in lat.elements]
    assert keys == sorted(keys)
    assert lat.elements[0] == (0, 0, 0)
    assert lat.elements[-1] == ideal.top_degree()


def test_lcm_lattice_collapses_duplicate_joins():
    # both pairs {a,b} and {a,b,c} hit the same lcm
    ideal = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
    lat = lcm_lattice(ideal)
    assert set(lat.elements) == {(0, 0), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)}


def test_betti_poset_contents():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    table = betti_table(ideal)
    degrees = {a for (_, a) in table.entries}
    sets = atom_sets(ideal, degrees)
    assert set(sets) == degrees
    assert len(set(sets.values())) == len(sets)
    for a in sets:
        for b in sets:
            assert (sets[a] <= sets[b]) == divides(a, b)
