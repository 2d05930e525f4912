"""Consequences of multiplications: forced Scarf products, generation,
algebra maps, obstruction and cone certificates, relabeling."""

import random
from fractions import Fraction

import pytest

from dgares.complexes import (
    BasisElement,
    Element,
    FreeComplex,
    add_scaled,
    algebraic_scarf,
    apply,
    canonical_pairs,
    is_chain_map,
    is_minimal,
    is_resolution,
    scarf_complex,
    taylor_complex,
)
from dgares.corpus import (
    catalog_ideals,
    cycle_ideal,
    path_ideal,
    random_cone_complex,
    random_monomial_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.homotopy import scaled_dga
from dgares.ideals import MonomialIdeal, divides, vec_sub
from dgares.linalg import rank
from dgares.minimize import cancel_pairs, minimal_resolution, minimize
from dgares.morse import cone_morse_matching, ideal_from_cone_complex
from dgares.multiplication import (
    Multiplication,
    associator,
    check_dga_axioms,
    is_supportive,
    taylor_multiplication,
    transfer_multiplication,
)
from dgares.solve import leibniz_solution_space
from dgares.structure import (
    TaylorMap,
    avramov_obstruction,
    degree_one_generation,
    hilbert_cone_check,
    in_degree_one_span,
    nested_product,
    relabel,
    scarf_product_check,
    supportive_multiplication,
    taylor_algebra_map,
)

F = Fraction


def modified_length_three_multiplication():
    """The non-Taylor point of the solution space on the resolution of
    (x^2, xy, xz): parameter zero."""
    t = taylor_complex(taylor_equals_scarf_ideal())
    return leibniz_solution_space(t).particular()


def test_scarf_product_check_on_taylor():
    for ideal in (cycle_ideal(6), path_ideal(6), tagged_four_cycle_ideal()):
        mult = taylor_multiplication(taylor_complex(ideal))
        ok, witnesses = scarf_product_check(ideal, mult)
        assert ok and witnesses == []


def test_scarf_product_check_across_the_solution_space():
    ideal = tagged_four_cycle_ideal()
    space = leibniz_solution_space(algebraic_scarf(ideal))
    rng = random.Random(13)
    for _ in range(4):
        values = tuple(F(rng.randint(-4, 4)) for _ in range(space.dim))
        ok, _ = scarf_product_check(ideal, space.at(values))
        assert ok


def test_scarf_product_check_catches_tampering():
    ideal = tagged_four_cycle_ideal()
    mult = taylor_multiplication(algebraic_scarf(ideal))
    mult.table[((0,), (1,))] = {(0, 1): F(2)}
    ok, witnesses = scarf_product_check(ideal, mult)
    assert not ok
    assert witnesses[0][:2] == ((0,), (1,))


def test_scarf_product_check_requires_squarefree():
    ideal = taylor_equals_scarf_ideal()
    mult = taylor_multiplication(taylor_complex(ideal))
    with pytest.raises(ValueError):
        scarf_product_check(ideal, mult)


def inline_sign_scarf_check(ideal, mult, max_witnesses=10):
    """scarf_product_check as it was with its own copy of the Taylor
    sign; the reference for the check that reads `shuffle_sign`."""
    faces = {tuple(sorted(f)) for f in scarf_complex(ideal).faces}
    complex_ = mult.complex
    witnesses = []
    for u, v in canonical_pairs(complex_):
        if u not in faces or v not in faces:
            continue
        union = tuple(sorted(set(u) | set(v)))
        if union not in faces:
            continue
        got = mult.product(u, v)
        bu, bv = complex_.by_id[u], complex_.by_id[v]
        hdeg, mdeg = bu.hdeg + bv.hdeg, tuple(a + b for a, b in zip(bu.mdeg, bv.mdeg))
        if set(u) & set(v):
            expected = Element(hdeg, mdeg, {})
        else:
            s = sum(1 for a in u for b in v if b < a)
            expected = Element(hdeg, mdeg, {union: F(1) if s % 2 == 0 else F(-1)})
        if got != expected:
            witnesses.append((u, v, got))
    return not witnesses, witnesses[:max_witnesses]


def test_scarf_check_agrees_with_the_inline_sign():
    ideals = [ideal for _, ideal in catalog_ideals() if ideal.is_squarefree()]
    rng = random.Random(67)
    while len(ideals) < 10:
        ideal = random_monomial_ideal(rng, max_gens=6, max_vars=5, squarefree=True)
        if 3 <= ideal.k <= 5:
            ideals.append(ideal)
    compared = failed = 0
    for ideal in ideals:
        taylor = taylor_complex(ideal)
        shuffle = taylor_multiplication(taylor)
        for (u, v), row in shuffle.table.items():
            s = sum(1 for a in u for b in v if b < a)
            assert row == {tuple(sorted(u + v)): F(-1) ** s}
        small, transfer = minimize(taylor)
        faces = {tuple(sorted(f)) for f in scarf_complex(ideal).faces}
        for mult in (shuffle, transfer_multiplication(shuffle, transfer),
                     leibniz_solution_space(small).particular()):
            # each copy with one Scarf-forced nonzero entry doubled
            copies = [mult]
            for pair in sorted(mult.table):
                if set(pair) <= faces and tuple(sorted(pair[0] + pair[1])) in faces:
                    table = {p: dict(r) for p, r in mult.table.items()}
                    table[pair] = {w: 2 * c for w, c in table[pair].items()}
                    copies.append(Multiplication(mult.complex, table))
            for m in copies:
                got = scarf_product_check(ideal, m)
                assert got == inline_sign_scarf_check(ideal, m)
                compared += 1
                failed += not got[0]
    assert compared > 300 and failed > 300, (compared, failed)


def test_nested_product_convention():
    t = taylor_complex(cycle_ideal(6))
    m = taylor_multiplication(t)
    p = nested_product(m, [(0,), (2,), (4,)])
    assert p == m.multiply(t.basis_element((0,)), m.product((2,), (4,)))
    assert p.coeffs == {(0, 2, 4): F(1)}


def test_degree_one_generation_on_taylor():
    m = taylor_multiplication(taylor_complex(cycle_ideal(6)))
    ok, uncovered = degree_one_generation(m)
    assert ok and uncovered == []
    with pytest.raises(ValueError, match="squarefree"):
        degree_one_generation(
            taylor_multiplication(taylor_complex(taylor_equals_scarf_ideal()))
        )


def test_in_degree_one_span():
    m33 = modified_length_three_multiplication()
    # hdeg <= 1 is always generated
    assert in_degree_one_span(m33, (0,))
    # products overshoot the target degree: the top element is out of
    # reach for both the modified and the shuffle product
    assert not in_degree_one_span(m33, (1, 2))
    taylor33 = taylor_multiplication(m33.complex)
    assert not in_degree_one_span(taylor33, (1, 2))
    # with squarefree generators, disjoint pairs are reachable
    c6 = taylor_multiplication(taylor_complex(cycle_ideal(6)))
    assert in_degree_one_span(c6, (0, 3))
    assert not in_degree_one_span(c6, (0, 1))


def test_taylor_algebra_map_full_run():
    ideal = tagged_four_cycle_ideal()
    res = algebraic_scarf(ideal)
    space = leibniz_solution_space(res)
    mult = space.particular()
    phi = taylor_algebra_map(ideal, mult)
    assert phi.verify_chain_map()
    assert phi.verify_algebra_map()
    assert phi.surjective()
    for i in range(ideal.k):
        assert phi.images[(i,)] == res.basis_element((i,))
    top = ideal.top_degree()
    # six Taylor pairs map onto the five hdeg-2 basis vectors
    assert phi.kernel_dimension(2, top) == 1
    for vec in phi.kernel_vectors(2, top):
        assert phi.image_of(vec).is_zero()
        # the kernel is a DG-ideal: differentials of kernel vectors die too
        assert phi.image_of(phi.taylor.apply_diff(vec)).is_zero()
    # a flipped image of g_01 breaks phi(g_0 g_1) = phi(g_0) phi(g_1)
    flipped = dict(phi.images)
    flipped[(0, 1)] = phi.images[(0, 1)].neg()
    broken = TaylorMap(phi.taylor, phi.taylor_mult, phi.target_mult, flipped)
    assert not broken.verify_algebra_map()
    assert not broken.verify_chain_map()


def test_verify_chain_map_rejects_an_ungraded_image():
    # phi + dk + kd is a chain map for any k raising hdeg by one; with k
    # one entry off the grading, only the grading rule rejects it
    ideal = tagged_four_cycle_ideal()
    res = algebraic_scarf(ideal)
    phi = taylor_algebra_map(ideal, leibniz_solution_space(res).particular())
    T = phi.taylor
    g = T.basis_at(1)[0]
    h = next(b for b in res.basis_at(2) if not divides(b.mdeg, g.mdeg))
    k = {g.bid: {h.bid: F(1)}}
    images = {}
    for bid, img in phi.images.items():
        row = dict(img.coeffs)
        add_scaled(row, 1, apply(res.diff, k.get(bid, {})))
        add_scaled(row, 1, apply(k, T.diff_of(bid)))
        images[bid] = Element(img.hdeg, img.mdeg, row)
    assert is_chain_map(T, res, {bid: img.coeffs for bid, img in images.items()})
    assert not TaylorMap(T, phi.taylor_mult, phi.target_mult, images).verify_chain_map()


def test_taylor_algebra_map_rejects_bad_inputs():
    with pytest.raises(ValueError, match="squarefree"):
        ideal = taylor_equals_scarf_ideal()
        taylor_algebra_map(ideal, taylor_multiplication(taylor_complex(ideal)))
    ideal = path_ideal(6)
    t = taylor_complex(ideal)
    small, transfer = minimize(t)
    m = transfer_multiplication(taylor_multiplication(t), transfer)
    with pytest.raises(ValueError, match="full DGA"):
        taylor_algebra_map(ideal, m)


def test_obstruction_certificate():
    report = avramov_obstruction(path_ideal(6))
    assert report.ok
    assert report.betti_vanishing
    assert report.saturation_products
    assert report.combination_matches
    assert report.relation_degrees
    assert report.nonzero_relation
    assert report.scarf_witnesses == ((0, 1, 4), (0, 3, 4))
    assert report.combination == Element(
        3,
        (1, 1, 1, 1, 1, 1),
        {
            (0, 1, 4): F(1),
            (0, 3, 4): F(-1),
            (1, 3, 4): F(1),
            (0, 1, 3): F(-1),
            (2, 3, 4): F(-1),
            (0, 1, 2): F(1),
        },
    )


def test_obstruction_is_specific():
    with pytest.raises(ValueError):
        avramov_obstruction(cycle_ideal(6))


def test_hilbert_cone_check_on_scaled_dgas():
    sd = scaled_dga(tagged_four_cycle_ideal())
    report = hilbert_cone_check(sd.multiplication)
    assert report.passed
    assert report.hilbert == (1, 4, 5, 2)
    assert report.cone_base == (1, 3, 2)
    assert report.cycle_dims == (1, 3, 2, 0)
    sd51 = scaled_dga(strongly_generic_ideal())
    report51 = hilbert_cone_check(sd51.multiplication)
    assert report51.passed
    assert report51.hilbert == (1, 5, 8, 5, 1)
    assert report51.cone_base == (1, 4, 4, 1)


def evaluated_ranks(complex_, point):
    """Ranks of the differential with its monomial entries evaluated
    at a rational point; a copy of the old generic-rank route."""
    ranks = []
    for i in range(1, complex_.max_hdeg + 1):
        cols = {}
        for s in complex_.basis_at(i):
            col = {}
            for t in complex_.basis_at(i - 1):
                c = complex_.diff_of(s.bid).get(t.bid, F(0))
                for base, e in zip(point, vec_sub(s.mdeg, t.mdeg)):
                    c = c * base**e
                col[t.bid] = c
            cols[s.bid] = col
        ranks.append(rank(cols))
    return ranks


def old_points(num_vars, attempts=8):
    primes = []
    cand = 2
    while len(primes) < num_vars:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return [tuple(F(p + shift) for p in primes) for shift in range(attempts)]


def test_scalar_ranks_match_the_evaluated_ranks():
    # d_i = diag(x^deg) C_i diag(x^-deg), so every point with nonzero
    # coordinates gives the rank of the scalar matrix C_i
    complexes = [scaled_dga(ideal).complex for _, ideal in catalog_ideals()]
    rng = random.Random(31)
    for _ in range(8):
        delta = random_cone_complex(rng)
        ideal = ideal_from_cone_complex(delta)
        matching = cone_morse_matching(ideal, delta, delta.num_vertices - 1)
        small, _, leftover = cancel_pairs(taylor_complex(ideal), matching)
        assert leftover == []
        complexes.append(small)
    for cx in complexes:
        mats = cx.matrices()
        scalar = [rank(mats[i]) for i in range(1, cx.max_hdeg + 1)]
        assert scalar
        for point in old_points(cx.num_vars):
            assert evaluated_ranks(cx, point) == scalar


def test_hilbert_cone_check_needs_a_dga():
    ideal = path_ideal(6)
    t = taylor_complex(ideal)
    small, transfer = minimize(t)
    m = transfer_multiplication(taylor_multiplication(t), transfer)
    with pytest.raises(ValueError, match="full DGA"):
        hilbert_cone_check(m)


def test_hilbert_cone_check_certifies_the_forced_ranks():
    # the exterior algebra on two generators over a complex with zero
    # differential is a DGA, and its ranks (1, 2, 1) are the f-vector of
    # a cone; only the scalar ranks of d, which miss the ranks (1, 1)
    # that exactness forces, give it away
    b = {bid: BasisElement(bid, len(bid), deg)
         for bid, deg in (((), (0, 0)), ((0,), (1, 0)), ((1,), (0, 1)), ((0, 1), (1, 1)))}
    cx = FreeComplex(2, {0: [b[()]], 1: [b[(0,)], b[(1,)]], 2: [b[(0, 1)]]}, {})
    mult = Multiplication(cx, {((0,), (1,)): {(0, 1): F(1)}})
    assert check_dga_axioms(mult).is_dga
    report = hilbert_cone_check(mult)
    assert report.hilbert == (1, 2, 1) and report.cone_base is not None
    assert not report.decomposition_ok and not report.passed


def test_relabel_koszul_pair():
    src = MonomialIdeal(2, ((1, 0), (0, 1)))
    tgt = MonomialIdeal(2, ((2, 0), (0, 3)))
    res = minimal_resolution(src).complex
    mult = taylor_multiplication(res)
    iso = {(0, 0): (0, 0), (1, 0): (2, 0), (0, 1): (0, 3), (1, 1): (2, 3)}
    relabeled, m2 = relabel(res, mult, iso, tgt)
    assert is_resolution(relabeled, tgt)
    assert is_minimal(relabeled)
    assert check_dga_axioms(m2).is_dga
    assert relabeled.by_id[(0, 1)].mdeg == (2, 3)


def test_relabel_error_paths():
    src = MonomialIdeal(2, ((1, 0), (0, 1)))
    tgt = MonomialIdeal(2, ((2, 0), (0, 3)))
    res = minimal_resolution(src).complex
    mult = taylor_multiplication(res)
    with pytest.raises(ValueError, match="injective"):
        relabel(res, mult, {(0, 0): (0, 0), (1, 0): (2, 0), (0, 1): (2, 0), (1, 1): (2, 3)}, tgt)
    with pytest.raises(ValueError, match="divisibility"):
        relabel(res, mult, {(0, 0): (0, 0), (1, 0): (2, 0), (0, 1): (0, 3), (1, 1): (1, 3)}, tgt)
    with pytest.raises(ValueError, match="missing"):
        relabel(res, mult, {(0, 0): (0, 0), (1, 0): (2, 0), (0, 1): (0, 3)}, tgt)
    m33 = modified_length_three_multiplication()
    flag, _ = is_supportive(m33)
    assert not flag
    with pytest.raises(ValueError, match="supportive"):
        relabel(m33.complex, m33, {}, tgt)


def test_supportive_multiplication_squarefree_route():
    ideal = cycle_ideal(6)
    sm = supportive_multiplication(ideal)
    assert sm.polarization is None
    assert is_resolution(sm.complex, ideal)
    assert is_minimal(sm.complex)
    assert check_dga_axioms(sm.multiplication, associativity=False).is_multiplication
    flag, _ = is_supportive(sm.multiplication)
    assert flag


def test_supportive_multiplication_polarization_route():
    ideal = taylor_equals_scarf_ideal()
    sm = supportive_multiplication(ideal)
    assert sm.polarization is not None
    assert sm.polarization.ideal.is_squarefree()
    assert is_resolution(sm.complex, ideal)
    assert is_minimal(sm.complex)
    assert check_dga_axioms(sm.multiplication, associativity=False).is_multiplication
    flag, _ = is_supportive(sm.multiplication)
    assert flag


def test_strongly_generic_associator_identity():
    res = algebraic_scarf(strongly_generic_ideal())
    mult = leibniz_solution_space(res).particular()
    g = res.basis_element
    gap = associator(mult, g((0,)), g((2,)), g((4,)))
    want = res.apply_diff(g((0, 1, 3, 4))).shifted((0, 1, 1, 0))
    assert gap == want
    left = mult.multiply(mult.product((0,), (2,)), g((4,)))
    right = mult.multiply(g((0,)), mult.product((2,), (4,)))
    assert left.coeffs == {(0, 1, 4): F(1), (1, 2, 3): F(1), (1, 3, 4): F(1)}
    assert right.coeffs == {(0, 1, 3): F(1), (1, 2, 3): F(1), (0, 3, 4): F(1)}
