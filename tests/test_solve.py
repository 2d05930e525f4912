"""The affine space of Leibniz multiplications on a resolution."""

import random
from fractions import Fraction

import pytest

from dgares.complexes import Element, algebraic_scarf, taylor_complex
from dgares.corpus import (
    catalog_ideals,
    random_monomial_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.ideals import MonomialIdeal
from dgares.minimize import minimal_resolution
from dgares.multiplication import Multiplication, check_dga_axioms, taylor_multiplication
from dgares.solve import (
    CONST,
    aff_add,
    aff_const,
    aff_eval,
    aff_scale,
    associativity_scan,
    canonical_pairs,
    forced_products,
    leibniz_solution_space,
)

F = Fraction


def test_affine_scalar_helpers():
    a = {CONST: F(2), 0: F(1)}
    b = {0: F(-1), 1: F(3)}
    assert aff_add(a, b) == {CONST: F(2), 1: F(3)}
    assert aff_scale(a, F(2)) == {CONST: F(4), 0: F(2)}
    assert aff_scale(a, F(0)) == {}
    assert aff_const(F(0)) == {}
    assert aff_eval(a, (F(5),)) == F(7)
    assert aff_eval({}, ()) == F(0)


def test_canonical_pairs_shape():
    t = taylor_complex(taylor_equals_scarf_ideal())
    pairs = canonical_pairs(t)
    for u, v in pairs:
        assert u <= v
        assert t.by_id[u].hdeg >= 1 and t.by_id[v].hdeg >= 1
        if u == v:
            assert t.by_id[u].hdeg % 2 == 0
    levels = [t.by_id[u].hdeg + t.by_id[v].hdeg for u, v in pairs]
    assert levels == sorted(levels)
    # 3 singletons and 3 pairs and 1 triple: C(7,2) minus nothing, no
    # even squares below hdeg 2 except the three pair elements
    assert ((0, 1), (0, 1)) in pairs


def test_solution_space_of_length_three_resolution():
    t = taylor_complex(taylor_equals_scarf_ideal())
    space = leibniz_solution_space(t)
    assert space.dim == 1
    gamma0 = space.table_at((F(0),))
    assert gamma0 == {
        ((0,), (1,)): {(0, 1): F(1)},
        ((0,), (2,)): {(0, 2): F(1)},
        ((1,), (2,)): {(0, 1): F(-1), (0, 2): F(1)},
        ((0,), (1, 2)): {(0, 1, 2): F(1)},
        ((1,), (1, 2)): {(0, 1, 2): F(1)},
        ((1, 2), (2,)): {(0, 1, 2): F(1)},
    }
    gamma1 = space.table_at((F(1),))
    assert gamma1 == {
        ((0,), (1,)): {(0, 1): F(1)},
        ((0,), (2,)): {(0, 2): F(1)},
        ((1,), (2,)): {(1, 2): F(1)},
        ((0,), (1, 2)): {(0, 1, 2): F(1)},
        ((0, 1), (2,)): {(0, 1, 2): F(1)},
        ((0, 2), (1,)): {(0, 1, 2): F(-1)},
    }
    assert gamma1 == {p: dict(r) for p, r in taylor_multiplication(t).table.items()}


def test_locate_parameter_values():
    t = taylor_complex(taylor_equals_scarf_ideal())
    space = leibniz_solution_space(t)
    assert space.locate(taylor_multiplication(t)) == (F(1),)
    assert space.locate(space.particular()) == (F(0),)
    assert space.locate(space.at((F(7),))) == (F(7),)
    # a sign flip violates Leibniz, so it lies outside the space
    broken = {p: dict(r) for p, r in taylor_multiplication(t).table.items()}
    broken[((0,), (1,))] = {(0, 1): F(-1)}
    assert space.locate(Multiplication(t, broken)) is None


def test_solve_for_one_pair():
    pair = ((0,), (2,))
    space = leibniz_solution_space(algebraic_scarf(tagged_four_cycle_ideal()))
    assert space.dim == 2
    # the row is 1 + p0 + p1, 1 + p1, -p0 - p1, p0, p1 on five targets
    want = {(0, 1): F(4), (1, 2): F(2), (0, 3): F(-3), (1, 3): F(2), (2, 3): F(1)}
    assert space.solve_for({pair: want}, [pair]) == (F(2), F(1))
    assert space.solve_for({pair: {**want, (0, 1): F(5)}}, [pair]) is None
    # a missing row asks for zero; no rows leave every parameter free at 0
    assert space.solve_for({}, [pair]) is None
    values = space.solve_for({}, [])
    assert values == (F(0), F(0)) and all(type(v) is Fraction for v in values)


def test_leibniz_without_a_solution_raises():
    # without g_01 the boundary of g_0 * g_1 has nothing to hit
    t = taylor_complex(MonomialIdeal(2, ((1, 0), (0, 1)))).restricted_to([(), (0,), (1,)])
    with pytest.raises(ValueError, match="Leibniz has no solution"):
        leibniz_solution_space(t)
    with pytest.raises(ValueError, match="Leibniz has no solution"):
        forced_products(t)


def test_table_at_rejects_the_wrong_number_of_values():
    space = leibniz_solution_space(taylor_complex(taylor_equals_scarf_ideal()))
    with pytest.raises(ValueError, match="dimension 1"):
        space.table_at(())
    with pytest.raises(ValueError, match="dimension 1"):
        space.at((F(0), F(1)))


def test_every_point_of_the_space_is_a_multiplication():
    t = taylor_complex(taylor_equals_scarf_ideal())
    space = leibniz_solution_space(t)
    rng = random.Random(9)
    for _ in range(6):
        values = (F(rng.randint(-5, 5)),)
        report = check_dga_axioms(space.at(values), associativity=False)
        assert report.is_multiplication


def test_length_three_space_is_associative_everywhere():
    space = leibniz_solution_space(taylor_complex(taylor_equals_scarf_ideal()))
    results = associativity_scan(space, samples=12, rng=random.Random(4))
    assert all(witness is None for _, witness in results)


def test_four_cycle_space_has_two_parameters():
    ideal = tagged_four_cycle_ideal()
    res = algebraic_scarf(ideal)
    space = leibniz_solution_space(res)
    assert space.dim == 2
    lam0 = space.table_at((F(0), F(-1)))
    lam1 = space.table_at((F(0), F(0)))
    pair = ((0,), (2,))
    assert lam0[pair] == {(0, 3): F(1), (2, 3): F(-1)}
    assert lam1[pair] == {(0, 1): F(1), (1, 2): F(1)}
    assert lam0 != lam1
    for values in ((F(0), F(-1)), (F(0), F(0))):
        report = check_dga_axioms(space.at(values))
        assert report.is_dga, report.summary()


def test_strongly_generic_space_never_associative():
    space = leibniz_solution_space(algebraic_scarf(strongly_generic_ideal()))
    assert space.dim == 1
    results = associativity_scan(space, samples=8, rng=random.Random(4))
    assert all(witness is not None for _, witness in results)
    for _, (u, v, w) in results:
        assert space.complex.by_id[u].hdeg >= 1
    # the axiom check walks the same triples: its first witness is the scan's
    for values, witness in results:
        report = check_dga_axioms(space.at(values), max_witnesses=1)
        assert [f[:3] for f in report.associative_failures] == [witness]


def test_forced_products_on_length_three_resolution():
    t = taylor_complex(taylor_equals_scarf_ideal())
    forced = forced_products(t)
    got = forced.get((0,), (1,))
    assert got == Element(2, (3, 1, 0), {(0, 1): F(1)})
    # swap sign
    assert forced.get((1,), (0,)) == Element(2, (3, 1, 0), {(0, 1): F(-1)})
    # the free parameter lives here, so nothing is forced
    assert forced.get((1,), (2,)) is None
    assert ((1,), (2,)) in forced.free_pairs()
    assert ((0,), (1,)) in forced.forced_pairs()
    # odd squares are structurally zero
    sq = forced.get((0,), (0,))
    assert sq is not None and sq.is_zero()
    # unit pairs come back as the other factor
    assert forced.get((), (0, 1)) == t.basis_element((0, 1))


def test_forced_products_on_strongly_generic_resolution():
    res = algebraic_scarf(strongly_generic_ideal())
    forced = forced_products(res)
    assert forced.get((0,), (2,)).coeffs == {(0, 1): F(1), (1, 2): F(1)}
    assert forced.get((2,), (4,)).coeffs == {(2, 3): F(1), (3, 4): F(1)}
    assert forced.get((1, 2), (4,)).coeffs == {(1, 2, 3): F(1), (1, 3, 4): F(1)}


def test_forced_values_agree_with_every_space_point():
    # whatever is forced must be constant across the solution space
    res = algebraic_scarf(tagged_four_cycle_ideal())
    space = leibniz_solution_space(res)
    forced = forced_products(res)
    points = [space.particular(), space.at((F(2), F(-3)))]
    for pair in forced.forced_pairs():
        u, v = pair
        want = forced.get(u, v)
        for mult in points:
            assert mult.product(u, v) == want
    # on the catalog and seeded random ideals, the affine entry of every
    # forced pair carries only the constant term, and it is the forced row
    rng = random.Random(17)
    ideals = [ideal for _, ideal in catalog_ideals()]
    ideals += [random_monomial_ideal(rng, max_gens=5, max_vars=5) for _ in range(8)]
    checked = 0
    for ideal in ideals:
        F_min = minimal_resolution(ideal).complex
        space = leibniz_solution_space(F_min)
        forced = forced_products(F_min)
        for u, v in forced.forced_pairs():
            if (u, v) not in space.entries:
                continue  # odd square, zero by construction
            row = space.entries[(u, v)]
            assert all(set(aff) == {CONST} for aff in row.values())
            assert {w: aff[CONST] for w, aff in row.items()} == forced.get(u, v).coeffs
            checked += 1
    assert checked > 100
