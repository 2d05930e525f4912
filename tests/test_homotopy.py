"""Scalar contractions, Laurent products, and scaling."""

import random
from fractions import Fraction

import pytest

from dgares.complexes import (
    add_scaled,
    apply,
    apply_rows,
    is_homotopy,
    is_minimal,
    is_resolution,
    taylor_complex,
)
from dgares.corpus import (
    cycle_ideal,
    path_ideal,
    random_monomial_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.homotopy import (
    Homotopy,
    contracting_homotopy,
    laurent_dga,
    scale_complex,
    scaled_dga,
)
from dgares.ideals import divides, scale_ideal, vec_add
from dgares.minimize import minimal_resolution
from dgares.multiplication import check_dga_axioms
from test_minimize import dropped_entries

F = Fraction


def test_contraction_identities():
    for ideal in (taylor_equals_scarf_ideal(), cycle_ideal(6)):
        res = minimal_resolution(ideal).complex
        h = contracting_homotopy(res)
        assert h.verify()


def test_contraction_elementwise():
    res = minimal_resolution(tagged_four_cycle_ideal()).complex
    h = contracting_homotopy(res)
    # the Element reference for Homotopy.verify
    def sigma(f):
        return apply_rows(h.sigma, f, f.hdeg + 1)

    for bid in res.by_id:
        f = res.basis_element(bid)
        lhs = res.apply_diff(sigma(f)).add(sigma(res.apply_diff(f)))
        # multidegrees of sigma images ride along, compare coefficients
        assert lhs.coeffs == f.coeffs
        assert sigma(sigma(f)).is_zero()


def test_contraction_verify_rejects_a_flipped_entry():
    res = minimal_resolution(cycle_ideal(6)).complex
    sigma = contracting_homotopy(res).sigma
    entries = [(g, h) for g in sorted(sigma) for h in sorted(sigma[g])]
    assert entries
    for g, h in entries:
        flipped = {k: dict(v) for k, v in sigma.items()}
        flipped[g][h] = -flipped[g][h]
        assert not Homotopy(res, flipped).verify()


def test_contraction_verify_rejects_a_dropped_entry():
    res = minimal_resolution(cycle_ideal(6)).complex
    sigma = contracting_homotopy(res).sigma
    count = emptied = 0
    for dropped in dropped_entries(sigma):
        assert not Homotopy(res, dropped).verify()
        count += 1
        emptied += len(dropped) < len(sigma) or {} in dropped.values()
    assert count > 0 and emptied > 0


def test_contraction_verify_rejects_a_nonzero_sigma_square():
    # sigma' = sigma + dt - td keeps d sigma' + sigma' d = id for any t
    # raising hdeg by two, but not always sigma' sigma' = 0, the one
    # identity left for verify to check
    res = minimal_resolution(cycle_ideal(6)).complex
    sigma = contracting_homotopy(res).sigma
    identity = {g: {g: F(1)} for g in res.by_id}
    for i in sorted(res.bases):
        for g in res.basis_at(i):
            for h in res.basis_at(i + 2):
                t = {g.bid: {h.bid: F(1)}}
                moved = {}
                for x in res.by_id:
                    row = moved[x] = dict(sigma.get(x, {}))
                    add_scaled(row, 1, apply(res.diff, t.get(x, {})))
                    add_scaled(row, -1, apply(t, res.diff_of(x)))
                assert is_homotopy(res, moved, identity)
                if any(apply(moved, moved[x]) for x in res.by_id):
                    assert not Homotopy(res, moved).verify()
                    return
    pytest.fail("every sigma' squares to zero")


def test_contraction_rejects_non_exact_scalar_complexes():
    # Taylor of the triangle ideal has nonminimal entries but is exact;
    # a non-resolution complex must be refused instead
    ideal = taylor_equals_scarf_ideal()
    t = taylor_complex(ideal)
    broken = t.restricted_to([w for w in t.by_id if w != (0, 1, 2)])
    with pytest.raises(ValueError, match="not a resolution"):
        contracting_homotopy(broken)


def test_laurent_product_is_a_dga():
    res = minimal_resolution(cycle_ideal(6)).complex
    lau = laurent_dga(res)
    assert lau.laurent
    report = check_dga_axioms(lau)
    assert report.is_dga, report.summary()


def test_laurent_product_needs_negative_exponents_somewhere():
    res = minimal_resolution(path_ideal(6)).complex
    lau = laurent_dga(res)
    by_id = res.by_id
    negative = []
    for (u, v), row in lau.table.items():
        mdeg = vec_add(by_id[u].mdeg, by_id[v].mdeg)
        for w in row:
            if not divides(by_id[w].mdeg, mdeg):
                negative.append((u, v, w))
    assert negative, "expected at least one Laurent-only product entry"


def test_scale_complex_shifts_positive_degrees():
    res = minimal_resolution(taylor_equals_scarf_ideal()).complex
    shifted = scale_complex(res, (1, 1, 1))
    assert shifted.by_id[()].mdeg == (0, 0, 0)
    for bid, b in shifted.by_id.items():
        if b.hdeg >= 1:
            assert b.mdeg == vec_add(res.by_id[bid].mdeg, (1, 1, 1))
    assert shifted.diff == res.diff


def test_scaled_dga_on_catalog_ideals():
    for ideal in (taylor_equals_scarf_ideal(), tagged_four_cycle_ideal()):
        sd = scaled_dga(ideal)
        assert sd.scaled_ideal.generators == scale_ideal(ideal).generators
        assert is_resolution(sd.complex, sd.scaled_ideal)
        assert is_minimal(sd.complex)
        report = check_dga_axioms(sd.multiplication)
        assert report.is_dga, report.summary()
        assert not sd.multiplication.laurent
        # same scalar table before and after the shift
        assert sd.multiplication.table == sd.laurent.table


def test_scaled_dga_random_ideals():
    rng = random.Random(19)
    for _ in range(4):
        ideal = random_monomial_ideal(rng, max_gens=4, max_vars=4)
        sd = scaled_dga(ideal)
        assert is_resolution(sd.complex, sd.scaled_ideal)
        assert is_minimal(sd.complex)
        assert check_dga_axioms(sd.multiplication).is_dga
