"""Cone complexes: the face-indexed ideal, the apex matching, and the
Morse quotient DGA."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from dgares.complexes import is_minimal, is_resolution, taylor_complex
from dgares.corpus import cycle_ideal, random_cone_complex
from dgares.ideals import MonomialIdeal
from dgares import morse
from dgares.lattices import atom_sets
from dgares.morse import (
    cone_morse_matching,
    dga_ideal_check,
    ideal_from_cone_complex,
    in_matched_span,
    morse_quotient,
    verify_morse_matching,
)
from dgares.multiplication import check_dga_axioms, taylor_multiplication
from dgares.simplicial import SimplicialComplex, cone, f_vector, is_cone
from dgares.structure import hilbert_cone_check

F = Fraction


def path3_cone():
    base = SimplicialComplex.from_faces(3, [(0, 1), (1, 2)])
    return cone(base)


def test_cone_ideal_atom_sets_are_the_faces_and_all_vertices():
    # vertex j is generator j, so the lattice elements' atom sets are
    # the 12 faces (the empty face included) and the set of all vertices
    sets = atom_sets(ideal_from_cone_complex(path3_cone()))
    assert len(sets) == 13
    assert set(sets.values()) == path3_cone().faces | {frozenset(range(4))}
    # the full simplex already holds the set of all vertices
    full = SimplicialComplex.from_faces(3, [(0, 1, 2)])
    assert set(atom_sets(ideal_from_cone_complex(full)).values()) == full.faces
    # the cone over the boundary of a 5-simplex: 126 faces and a top
    boundary = SimplicialComplex.from_faces(6, combinations(range(6), 5))
    delta = cone(boundary)
    ideal = ideal_from_cone_complex(delta)
    assert (ideal.k, ideal.num_vars) == (7, 125)
    assert set(atom_sets(ideal).values()) == delta.faces | {frozenset(range(7))}


def test_ideal_from_cone_complex_structure():
    delta = path3_cone()
    ideal = ideal_from_cone_complex(delta)
    faces = sorted(
        (tuple(sorted(f)) for f in delta.faces if f), key=lambda f: (len(f), f)
    )
    assert ideal.num_vars == len(faces) == 11
    assert ideal.k == delta.num_vertices == 4
    for j, gen in enumerate(ideal.generators):
        assert set(gen) <= {0, 1}
        for p, face in enumerate(faces):
            assert gen[p] == (0 if j in face else 1)
    assert set(atom_sets(ideal).values()) == delta.faces | {frozenset(range(4))}


def test_ideal_from_cone_complex_small_cases():
    point = SimplicialComplex.from_faces(1, [(0,)])
    assert ideal_from_cone_complex(point) == MonomialIdeal(1, ((1,),))
    # a full simplex is a cone and carries its own lattice top
    segment = SimplicialComplex.from_faces(2, [(0, 1)])
    ideal = ideal_from_cone_complex(segment)
    assert ideal.k == 2 and ideal.num_vars == 3


def test_ideal_from_cone_complex_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one vertex"):
        ideal_from_cone_complex(SimplicialComplex.from_faces(0, []))
    missing = SimplicialComplex.from_faces(3, [(0,), (1,)])
    with pytest.raises(ValueError, match="vertex 2"):
        ideal_from_cone_complex(missing)


def test_ideal_from_cone_complex_checks_its_lattice(monkeypatch):
    # generators 0 and 1 swapped: the edge {1, 2} of the path would turn
    # into {0, 2}, which is no face, and the check must say so
    def swapped(num_vars, gens):
        return MonomialIdeal(num_vars, (gens[1], gens[0]) + gens[2:])

    monkeypatch.setattr(morse, "MonomialIdeal", swapped)
    with pytest.raises(ValueError, match="does not match the face poset"):
        ideal_from_cone_complex(path3_cone())


def test_cone_matching_on_the_path_cone():
    delta = path3_cone()
    ideal = ideal_from_cone_complex(delta)
    # the middle vertex of the path is a cone point too, so the smallest
    # apex wins; the fresh apex 3 works just as well
    assert is_cone(delta) == 1
    matching = cone_morse_matching(ideal, delta, 3)
    assert matching == [((0, 2), (0, 2, 3)), ((0, 1, 2), (0, 1, 2, 3))]
    taylor = taylor_complex(ideal)
    report = verify_morse_matching(matching, taylor)
    assert report.valid
    assert report.disjoint and report.edges and report.equal_degrees
    assert report.acyclic


def test_cone_matching_rejects_a_mismatched_complex():
    delta = path3_cone()
    small = cone(SimplicialComplex.from_faces(2, [(0,), (1,)]))
    with pytest.raises(ValueError, match="4 vertices but the ideal 3 generators"):
        cone_morse_matching(ideal_from_cone_complex(small), delta, 3)
    # two points are no cone: the edge is a non-face over the face (0,)
    apart = SimplicialComplex.from_faces(2, [(0,), (1,)])
    with pytest.raises(ValueError, match="no cone with apex 1"):
        cone_morse_matching(ideal_from_cone_complex(apart), apart, 1)


def test_verify_morse_matching_flags():
    taylor = taylor_complex(cycle_ideal(4))
    # opposite edges of the 4-cycle already cover all four variables, so
    # the diagonal pair shares its lcm with the triangle above it
    base = verify_morse_matching([((0, 2), (0, 1, 2))], taylor)
    assert base.valid
    rep = verify_morse_matching(
        [((0, 2), (0, 1, 2)), ((0, 2), (0, 2, 3))], taylor
    )
    assert not rep.disjoint and not rep.valid
    rep = verify_morse_matching([((0, 1), (0, 2, 3))], taylor)
    assert not rep.edges and not rep.valid
    # same lcm is what makes a matched pair cancellable; adjacent
    # generators of the 4-cycle have distinct joins
    rep = verify_morse_matching([((0,), (0, 1))], taylor)
    assert rep.edges and not rep.equal_degrees and not rep.valid
    cyclic = [
        ((0, 1), (0, 1, 2)),
        ((1, 2), (1, 2, 3)),
        ((2, 3), (0, 2, 3)),
        ((0, 3), (0, 1, 3)),
    ]
    rep = verify_morse_matching(cyclic, taylor)
    assert rep.disjoint and rep.edges
    assert not rep.acyclic and not rep.valid


def test_in_matched_span():
    taylor = taylor_complex(cycle_ideal(4))
    uppers = [(0, 1, 2)]
    g = taylor.basis_element
    assert in_matched_span(taylor, uppers, g((0, 1, 2)))
    assert in_matched_span(taylor, uppers, taylor.apply_diff(g((0, 1, 2))))
    assert in_matched_span(taylor, uppers, g((0, 1, 2)).scale(F(3)))
    assert not in_matched_span(taylor, uppers, g((0, 1)))
    assert not in_matched_span(taylor, uppers, g((1, 2, 3)))
    zero = g((0, 1)).scale(F(0))
    assert in_matched_span(taylor, uppers, zero)


def test_dga_ideal_check_negative():
    taylor = taylor_complex(cycle_ideal(4))
    mult = taylor_multiplication(taylor)
    ok, witnesses = dga_ideal_check(mult, [((0, 1), (0, 1, 2))])
    assert not ok
    assert witnesses
    with pytest.raises(ValueError, match="DG-ideal"):
        morse_quotient(taylor, mult, [((0, 1), (0, 1, 2))])


def run_cone_pipeline(delta):
    ideal = ideal_from_cone_complex(delta)
    apex = is_cone(delta)
    assert apex is not None
    matching = cone_morse_matching(ideal, delta, apex)
    taylor = taylor_complex(ideal)
    assert verify_morse_matching(matching, taylor).valid
    mult = taylor_multiplication(taylor)
    ok, witnesses = dga_ideal_check(mult, matching)
    assert ok and witnesses == []
    small, small_mult, transfer = morse_quotient(taylor, mult, matching)
    assert transfer.verify()
    assert is_resolution(small, ideal)
    assert is_minimal(small)
    assert check_dga_axioms(small_mult).is_dga
    ranks = small.ranks()
    assert ranks == f_vector(delta)
    assert hilbert_cone_check(small_mult).passed
    return ranks


def test_morse_quotient_on_the_path_cone():
    assert run_cone_pipeline(path3_cone()) == (1, 4, 5, 2)


def test_morse_quotient_on_random_cones():
    rng = random.Random(7)
    for _ in range(6):
        run_cone_pipeline(random_cone_complex(rng))
