"""The identity checks on sparse rows against the Element loops they
replaced: d∘d = 0, chain maps, homotopies, `TransferData.verify` and
`Homotopy.verify` must give the same verdicts on the true maps and on
every copy with one entry negated or deleted."""

import random

from dgares.complexes import (
    Element,
    FreeComplex,
    is_chain_map,
    is_homotopy,
    taylor_complex,
)
from dgares.corpus import catalog_ideals, random_monomial_ideal
from dgares.homotopy import Homotopy, contracting_homotopy
from dgares.minimize import TransferData, minimize
from test_minimize import dropped_entries, flipped_entries


# -- the Element loops, as the library ran them before the row checks ---


def element_apply(rows, f, hdeg):
    out = {}
    for g, c in f.coeffs.items():
        for h, v in rows.get(g, {}).items():
            out[h] = out.get(h, 0) + c * v
    return Element(hdeg, f.mdeg, out)


def element_diff(complex_, f):
    return element_apply(complex_.diff, f, f.hdeg - 1)


def element_dd_is_zero(by_id, diff):
    for g, row in diff.items():
        src = by_id[g]
        if element_apply(diff, Element(src.hdeg - 1, src.mdeg, row), src.hdeg - 2).coeffs:
            return False
    return True


def element_is_chain_map(src, tgt, rows):
    for g in src.by_id:
        f = src.basis_element(g)
        image = element_diff(tgt, element_apply(rows, f, f.hdeg))
        if image != element_apply(rows, element_diff(src, f), f.hdeg - 1):
            return False
    return True


def element_is_homotopy(complex_, rows, lhs):
    for g in complex_.by_id:
        f = complex_.basis_element(g)
        dh = element_diff(complex_, element_apply(rows, f, f.hdeg + 1))
        hd = element_apply(rows, element_diff(complex_, f), f.hdeg)
        if lhs(f) != dh.add(hd):
            return False
    return True


def element_incl_proj_minus_id(tr):
    return lambda f: element_apply(tr.incl, element_apply(tr.proj, f, f.hdeg), f.hdeg).sub(f)


def element_transfer_verify(tr):
    for g in tr.small.by_id:
        f = tr.small.basis_element(g)
        if element_apply(tr.proj, element_apply(tr.incl, f, f.hdeg), f.hdeg) != f:
            return False
    return (
        element_is_homotopy(tr.big, tr.homotopy, element_incl_proj_minus_id(tr))
        and element_is_chain_map(tr.small, tr.big, tr.incl)
        and element_is_chain_map(tr.big, tr.small, tr.proj)
    )


def element_contraction_verify(h):
    F = h.complex
    if not element_is_homotopy(F, h.sigma, lambda f: f):
        return False
    for g in F.by_id:
        s = element_apply(h.sigma, F.basis_element(g), F.by_id[g].hdeg + 1)
        if element_apply(h.sigma, s, s.hdeg + 1).coeffs:
            return False
        if element_apply(h.sigma, element_diff(F, s), s.hdeg) != s:
            return False
    return True


# -- the comparisons -------------------------------------------------------


def _ideals():
    """The catalog and 8 seeded random ideals of 3 or 4 generators (most
    draws collapse to fewer, whose maps are nearly identities)."""
    rng = random.Random(53)
    ideals = [ideal for _, ideal in catalog_ideals()]
    while len(ideals) < 14:
        ideal = random_monomial_ideal(rng, max_gens=8, max_vars=5)
        if 3 <= ideal.k <= 4:
            ideals.append(ideal)
    return ideals


def _copies(rows):
    """rows itself, then every copy with one entry negated or deleted."""
    yield rows
    yield from flipped_entries(rows)
    yield from dropped_entries(rows)


def _as_rows(complex_, lhs):
    """An Element map on basis elements, as the sparse map is_homotopy takes."""
    return {g: lhs(complex_.basis_element(g)).coeffs for g in complex_.by_id}


def test_dd_check_matches_the_element_loop():
    verdicts = set()
    for ideal in _ideals():
        small, _ = minimize(taylor_complex(ideal))
        for diff in _copies(small.diff):
            want = element_dd_is_zero(small.by_id, diff)
            try:
                FreeComplex(small.num_vars, small.bases, diff)
                got = True
            except ValueError as err:
                assert "d∘d" in str(err)
                got = False
            assert got == want
            verdicts.add(got)
    assert verdicts == {True, False}


def test_transfer_checks_match_the_element_loops():
    verdicts = set()
    for ideal in _ideals():
        _, tr = minimize(taylor_complex(ideal))
        big, small = tr.big, tr.small
        maps = {"incl": tr.incl, "proj": tr.proj, "homotopy": tr.homotopy}
        lhs = element_incl_proj_minus_id(tr)
        lhs_rows = _as_rows(big, lhs)
        for name, rows in maps.items():
            for new in _copies(rows):
                broken = TransferData(big, small, **dict(maps, **{name: new}))
                want = element_transfer_verify(broken)
                assert broken.verify() == want
                verdicts.add(want)
                # verify stops at its first failing identity, so each
                # changed map also meets its own check directly
                if name == "homotopy":
                    assert is_homotopy(big, new, lhs_rows) == element_is_homotopy(big, new, lhs)
                else:
                    src, tgt = (small, big) if name == "incl" else (big, small)
                    assert is_chain_map(src, tgt, new) == element_is_chain_map(src, tgt, new)
    assert verdicts == {True, False}


def test_contraction_checks_match_the_element_loops():
    verdicts = set()
    for ideal in _ideals():
        small, _ = minimize(taylor_complex(ideal))
        identity = _as_rows(small, lambda f: f)
        for sigma in _copies(contracting_homotopy(small).sigma):
            h = Homotopy(small, sigma)
            want = element_contraction_verify(h)
            assert h.verify() == want
            verdicts.add(want)
            assert is_homotopy(small, sigma, identity) == element_is_homotopy(small, sigma, lambda f: f)
    assert verdicts == {True, False}
