"""Free complexes: Taylor, Scarf, Lyubeznik, strands, resolutions."""

import random
from fractions import Fraction
from math import comb

import pytest

from dgares.complexes import (
    BasisElement,
    Element,
    FreeComplex,
    algebraic_scarf,
    apply,
    apply_rows,
    diff_matrix,
    exactness_test_degrees,
    grading_fault,
    homology_dims,
    is_minimal,
    is_resolution,
    lyubeznik,
    scarf_complex,
    squarefree_part,
    strand,
    taylor_complex,
)
from dgares.corpus import (
    cycle_ideal,
    path_ideal,
    random_monomial_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.ideals import MonomialIdeal
from dgares.lattices import lcm_lattice
from dgares.minimize import minimal_resolution
from dgares.simplicial import f_vector

F = Fraction


def test_element_algebra():
    a = Element(1, (1, 1), {(0,): F(2), (1,): F(-1)})
    b = Element(1, (1, 1), {(1,): F(1)})
    assert a.add(b).coeffs == {(0,): F(2)}  # zero coefficients dropped
    assert a.sub(a).is_zero()
    assert a.scale(F(1, 2)).coeffs == {(0,): F(1), (1,): F(-1, 2)}
    assert a.neg().coeffs == {(0,): F(-2), (1,): F(1)}
    shifted = a.shifted((2, 0))
    assert shifted.mdeg == (3, 1) and shifted.coeffs == a.coeffs
    assert a == Element(1, (1, 1), {(1,): F(-1), (0,): F(2)})
    assert a != b
    with pytest.raises(ValueError, match="cannot add"):
        a.add(Element(1, (2, 1), {}))
    with pytest.raises(ValueError, match="cannot add"):
        a.add(Element(2, (1, 1), {}))


def test_element_drops_zero_coefficients_at_construction():
    e = Element(0, (0,), {(0,): F(0), (1,): F(3)})
    assert e.coeffs == {(1,): F(3)}


def test_taylor_shape_and_signs():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    t = taylor_complex(ideal)
    assert t.ranks() == (1, 3, 3, 1)
    assert t.by_id[(0, 1)].mdeg == (2, 1, 0)
    assert t.by_id[(0, 1, 2)].mdeg == (2, 1, 1)
    # alternating signs indexed by drop position
    assert t.diff[(0, 1)] == {(1,): F(1), (0,): F(-1)}
    assert t.diff[(0, 1, 2)] == {(1, 2): F(1), (0, 2): F(-1), (0, 1): F(1)}
    assert t.diff[(0,)] == {(): F(1)}
    for i, r in enumerate(t.ranks()):
        assert r == comb(3, i)


def test_taylor_cap():
    gens = tuple(tuple(2 if j == i else 0 for j in range(6)) for i in range(6))
    ideal = MonomialIdeal(6, gens)
    with pytest.raises(ValueError):
        taylor_complex(ideal, cap=5)


def test_taylor_resolves_random_ideals():
    rng = random.Random(7)
    for _ in range(8):
        ideal = random_monomial_ideal(rng, max_gens=4, max_vars=4)
        t = taylor_complex(ideal)
        assert is_resolution(t, ideal)


def test_validate_rejects_broken_differentials():
    b0 = BasisElement((), 0, (0, 0))
    bx = BasisElement((0,), 1, (1, 0))
    by = BasisElement((1,), 1, (0, 1))
    with pytest.raises(ValueError, match="drop hdeg"):
        FreeComplex(
            2,
            {0: [b0], 1: [bx], 2: [BasisElement((0, 1), 2, (1, 1))]},
            {(0, 1): {(): F(1)}},
        )
    with pytest.raises(ValueError, match="multigrading"):
        FreeComplex(
            2,
            {0: [b0], 1: [by], 2: [BasisElement((5,), 2, (1, 0))]},
            {(1,): {(): F(1)}, (5,): {(1,): F(1)}},
        )
    with pytest.raises(ValueError, match="d∘d"):
        FreeComplex(
            2,
            {0: [b0], 1: [bx, by], 2: [BasisElement((9,), 2, (1, 1))]},
            {
                (0,): {(): F(1)},
                (1,): {(): F(1)},
                (9,): {(0,): F(1), (1,): F(1)},
            },
        )
    with pytest.raises(ValueError, match="hdeg-0"):
        FreeComplex(2, {0: [b0, BasisElement((8,), 0, (0, 0))]}, {})
    with pytest.raises(ValueError, match="duplicate"):
        FreeComplex(2, {0: [b0], 1: [BasisElement((), 1, (1, 0))]}, {})


@pytest.mark.parametrize("diff", [
    {(0,): {(): F(1)}, (9,): {(0,): F(1)}},
    {(0,): {(9,): F(1)}},
], ids=["source", "target"])
def test_free_complex_names_an_unknown_basis_id(diff):
    bases = {0: [BasisElement((), 0, (0, 0))], 1: [BasisElement((0,), 1, (1, 0))]}
    with pytest.raises(ValueError, match=r"unknown basis id \(9,\)"):
        FreeComplex(2, bases, diff)


def test_grading_fault_names_the_first_bad_entry():
    t = taylor_complex(MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1))))
    assert grading_fault(t, t, t.diff, -1) is None
    assert grading_fault(t, t, {(0,): {(0, 1): F(1)}}, 1) == "(0,)->(0, 1) violates multigrading"
    assert grading_fault(t, t, {(0, 1): {(0,): F(1)}}, 0) == "(0, 1)->(0,) does not keep its hdeg"
    assert grading_fault(t, t, {(0,): {(1,): F(1)}}, 1) == "(0,)->(1,) does not raise hdeg by one"
    assert "unknown basis id (9,)" in grading_fault(t, t, {(0,): {(9,): F(1)}}, 0)


def test_unit_and_apply_diff():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    t = taylor_complex(ideal)
    one = t.unit()
    assert one.hdeg == 0 and one.coeffs == {(): F(1)}
    g = t.basis_element((0, 1))
    dg = t.apply_diff(g)
    assert dg == Element(1, (2, 1, 0), {(1,): F(1), (0,): F(-1)})
    assert t.apply_diff(dg).is_zero()


def test_matrices_shapes_and_content():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    t = taylor_complex(ideal)
    mats = t.matrices()
    # one column per basis element, in basis order, d(g) as stored
    assert list(mats[1]) == [(0,), (1,), (2,)]
    assert mats[1] == {(0,): {(): F(1)}, (1,): {(): F(1)}, (2,): {(): F(1)}}
    assert mats[3] == {(0, 1, 2): {(1, 2): F(1), (0, 2): F(-1), (0, 1): F(1)}}


def test_diff_matrix_leaves_out_foreign_targets():
    t = taylor_complex(MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1))))
    # d(g_01) = g_1 - g_0 and d(g_02) = g_2 - g_0; only the row of g_0 is kept
    assert diff_matrix(t, [(0,)], [(0, 1), (0, 2)]) == {
        (0, 1): {(0,): F(-1)}, (0, 2): {(0,): F(-1)}}
    assert diff_matrix(t, [(2,), (0,)], [(0, 2)]) == {(0, 2): {(2,): F(1), (0,): F(-1)}}
    assert diff_matrix(t, [], [(0, 1)]) == {(0, 1): {}}
    assert diff_matrix(t, [(0,)], []) == {}


def test_apply_rows_reads_a_missing_row_as_zero():
    f = Element(1, (1, 1), {(0,): F(3), (1,): F(1)})
    image = apply_rows({(0,): {(5,): F(2), (6,): F(-1)}}, f, 4)
    assert image == Element(4, (1, 1), {(5,): F(6), (6,): F(-3)})
    assert apply_rows({}, f, 0).is_zero()
    # apply itself, on sparse vectors: entries that cancel are dropped
    rows = {(0,): {(5,): F(2), (6,): F(-1)}, (1,): {(6,): F(3)}}
    assert apply(rows, {(0,): F(3), (1,): F(1), (2,): F(7)}) == {(5,): F(6)}
    assert apply(rows, {(0,): F(0), (1,): F(1)}) == {(6,): F(3)}


def test_scarf_of_generic_ideal_is_everything():
    ideal = taylor_equals_scarf_ideal()
    delta = scarf_complex(ideal)
    assert len(delta.faces) == 2 ** ideal.k
    res = algebraic_scarf(ideal)
    assert res.ranks() == taylor_complex(ideal).ranks()
    assert is_resolution(res, ideal)
    assert is_minimal(res)


def test_scarf_of_four_cycle_ideal():
    ideal = tagged_four_cycle_ideal()
    delta = scarf_complex(ideal)
    ids = {tuple(sorted(f)) for f in delta.faces}
    assert ids == {
        (), (0,), (1,), (2,), (3,),
        (0, 1), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 1, 3), (1, 2, 3),
    }
    assert f_vector(delta) == (1, 4, 5, 2)
    res = algebraic_scarf(ideal)
    assert is_resolution(res, ideal)
    assert is_minimal(res)


def test_scarf_can_be_too_small_to_resolve():
    ideal = cycle_ideal(6)
    res = algebraic_scarf(ideal)
    assert not is_resolution(res, ideal)


def test_lyubeznik_resolves_for_every_order():
    rng = random.Random(11)
    for _ in range(6):
        ideal = random_monomial_ideal(rng, max_gens=4, max_vars=4)
        order = list(range(ideal.k))
        rng.shuffle(order)
        res = lyubeznik(ideal, tuple(order))
        assert is_resolution(res, ideal)
        # sits between Scarf and Taylor
        scarf_ids = {tuple(sorted(f)) for f in scarf_complex(ideal).faces}
        assert scarf_ids <= set(res.by_id)


def test_lyubeznik_order_validation():
    ideal = MonomialIdeal(2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        lyubeznik(ideal, (0, 0))
    with pytest.raises(ValueError):
        lyubeznik(ideal, (0, 1, 2))


def test_lyubeznik_minimal_order_for_strongly_generic_ideal():
    ideal = strongly_generic_ideal()
    res = lyubeznik(ideal, (1, 3, 0, 2, 4))
    assert res.ranks() == (1, 5, 8, 5, 1)
    assert is_resolution(res, ideal)
    assert is_minimal(res)
    # the identity order is not minimal for this ideal
    assert not is_minimal(lyubeznik(ideal, (0, 1, 2, 3, 4)))


def test_exactness_test_degrees_cover_the_lattice():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (0, 2, 1)))
    degs = exactness_test_degrees(ideal)
    assert set(lcm_lattice(ideal).elements) <= set(degs)
    assert degs == sorted(degs)


def test_graded_component_and_homology():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    t = taylor_complex(ideal)
    ids = strand(t, (2, 1, 1))
    assert ids[3] == [(0, 1, 2)]
    assert len(ids[1]) == 3
    dims = homology_dims(t, ids)
    assert dims.keys() == {0, 1, 2, 3}
    assert all(d == 0 for d in dims.values())  # x^a inside the ideal, exact strand
    assert strand(t, (0, 0, 0)) == {0: [()]}
    assert homology_dims(t, strand(t, (0, 0, 0))) == {0: 1}
    assert homology_dims(t, strand(t, (1, 0, 0))) == {0: 1}  # x outside the ideal


def test_is_resolution_rejects_a_resolution_of_another_ideal():
    # every strand of a resolution is exact in positive hdeg, so only
    # the H_0 test tells a resolution of S/J from one of S/I
    ideal, other = cycle_ideal(6), path_ideal(6)
    F_other = minimal_resolution(other).complex
    assert is_resolution(F_other, other)
    for a in exactness_test_degrees(ideal):
        dims = homology_dims(F_other, strand(F_other, a))
        assert all(d == 0 for i, d in dims.items() if i >= 1)
    assert not is_resolution(F_other, ideal)


def test_is_minimal_detects_unit_entries():
    assert is_minimal(taylor_complex(MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))))
    # triangle ideal: triple lcm equals each pairwise lcm partner
    tri = MonomialIdeal(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert not is_minimal(taylor_complex(tri))


def test_squarefree_part():
    ideal = MonomialIdeal(3, ((1, 1, 0), (0, 1, 1)))
    t = taylor_complex(ideal)
    f = Element(1, (2, 1, 0), {(0,): F(3)})
    m, part = squarefree_part(t, f)
    assert m == (1, 0, 0)
    assert part == Element(1, (1, 1, 0), {(0,): F(3)})
    mixed = taylor_complex(MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1))))
    with pytest.raises(ValueError):
        squarefree_part(mixed, Element(1, (2, 0, 0), {(0,): F(1)}))


def test_restricted_to_guards_leaks():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    t = taylor_complex(ideal)
    with pytest.raises(ValueError, match="leaves the subcomplex"):
        t.restricted_to([(), (0,), (0, 1)])


def test_with_degrees_rescales():
    ideal = MonomialIdeal(2, ((2, 0), (1, 1)))
    t = taylor_complex(ideal)
    doubled = t.with_degrees(lambda b: tuple(2 * e for e in b.mdeg))
    assert doubled.by_id[(0, 1)].mdeg == (4, 2)
    assert doubled.diff == t.diff


def test_vector_round_trip():
    ideal = MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    t = taylor_complex(ideal)
    # an element's coeffs is its sparse coordinate vector: zero
    # coordinates are dropped, and the vector rebuilds the element
    f = Element(1, (2, 1, 1), {(0,): F(2), (1,): F(0), (2,): F(-5)})
    assert f.coeffs == {(0,): F(2), (2,): F(-5)}
    assert Element(1, (2, 1, 1), f.coeffs) == f
    column = diff_matrix(t, [(0,), (2,)], [(0, 2)])[(0, 2)]
    assert t.apply_diff(t.basis_element((0, 2))).coeffs == column
