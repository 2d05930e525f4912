"""Gaussian cancellation to minimal resolutions, with transfer data."""

import random

import pytest

from dgares.complexes import (
    FreeComplex,
    add_scaled,
    apply,
    apply_rows,
    grading_fault,
    is_chain_map,
    is_homotopy,
    is_minimal,
    is_resolution,
    scarf_complex,
    taylor_complex,
)
from dgares.corpus import (
    catalog_ideals,
    cycle_ideal,
    random_cone_complex,
    random_monomial_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
)
from dgares.ideals import MonomialIdeal, divides
from dgares.minimize import (
    TransferData,
    _Reduction,
    cancel_pairs,
    minimal_resolution,
    minimize,
)
from dgares.morse import cone_morse_matching, ideal_from_cone_complex
from dgares.simplicial import f_vector


def test_minimize_cycle_ideal():
    ideal = cycle_ideal(6)
    t = taylor_complex(ideal)
    small, transfer = minimize(t)
    assert small.ranks() == (1, 6, 9, 6, 2)
    assert is_resolution(small, ideal)
    assert is_minimal(small)
    assert transfer.verify()


def test_pivot_orders_agree_on_ranks():
    rng = random.Random(23)
    for _ in range(8):
        ideal = random_monomial_ideal(rng, max_gens=5, max_vars=5)
        t = taylor_complex(ideal)
        fwd, tf = minimize(t, order="forward")
        rev, tr = minimize(t, order="reversed")
        assert fwd.ranks() == rev.ranks()
        assert is_minimal(fwd) and is_minimal(rev)
        assert is_resolution(fwd, ideal) and is_resolution(rev, ideal)
        assert tf.verify() and tr.verify()


def test_scarf_ids_survive_minimization():
    rng = random.Random(31)
    for _ in range(6):
        ideal = random_monomial_ideal(rng, max_gens=5, max_vars=5)
        small, _ = minimize(taylor_complex(ideal))
        scarf_ids = {tuple(sorted(f)) for f in scarf_complex(ideal).faces}
        assert scarf_ids <= set(small.by_id)
        # hdeg-1 generators always survive: the resolution is of S/I
        assert {(i,) for i in range(ideal.k)} <= set(small.by_id)


def test_strongly_generic_minimal_equals_scarf():
    ideal = strongly_generic_ideal()
    small, _ = minimize(taylor_complex(ideal))
    assert small.ranks() == (1, 5, 8, 5, 1)
    assert small.ranks() == f_vector(scarf_complex(ideal))
    assert set(small.by_id) == {tuple(sorted(f)) for f in scarf_complex(ideal).faces}


def test_minimize_is_idempotent():
    ideal = tagged_four_cycle_ideal()
    small, _ = minimize(taylor_complex(ideal))
    again, transfer = minimize(small)
    assert again.ranks() == small.ranks()
    assert again.diff == small.diff
    # nothing was cancelled, so the transfer is the identity
    assert transfer.homotopy == {}
    assert all(row == {g: 1} for g, row in transfer.incl.items())


def test_minimal_resolution_wrapper():
    ideal = cycle_ideal(6)
    res = minimal_resolution(ideal)
    assert res.taylor.ranks() == taylor_complex(ideal).ranks()
    assert res.complex.ranks() == (1, 6, 9, 6, 2)
    assert res.transfer.big is res.taylor
    assert res.transfer.small is res.complex
    assert res.transfer.verify()


def test_transfer_identities_elementwise():
    ideal = tagged_four_cycle_ideal()
    t = taylor_complex(ideal)
    small, tr = minimize(t)
    # the reference for TransferData.verify: every identity on Elements
    for g in small.by_id:
        f = small.basis_element(g)
        # chain map through the inclusion
        assert t.apply_diff(apply_rows(tr.incl, f, f.hdeg)) == apply_rows(
            tr.incl, small.apply_diff(f), f.hdeg - 1)
        assert apply_rows(tr.proj, apply_rows(tr.incl, f, f.hdeg), f.hdeg) == f
    for g in t.by_id:
        f = t.basis_element(g)
        lhs = apply_rows(tr.incl, apply_rows(tr.proj, f, f.hdeg), f.hdeg).sub(f)
        rhs = t.apply_diff(apply_rows(tr.homotopy, f, f.hdeg + 1)).add(
            apply_rows(tr.homotopy, t.apply_diff(f), f.hdeg))
        assert lhs == rhs


def flipped_entries(rows):
    """Every copy of the sparse map rows with one entry negated."""
    for g in sorted(rows):
        for h in sorted(rows[g]):
            new = {k: dict(v) for k, v in rows.items()}
            new[g][h] = -new[g][h]
            yield new


def dropped_entries(rows):
    """Every copy of the sparse map rows with one entry deleted; a row
    that this leaves empty comes once as {} and once deleted too."""
    for g in sorted(rows):
        for h in sorted(rows[g]):
            new = {k: dict(v) for k, v in rows.items()}
            del new[g][h]
            yield new
            if not new[g]:
                yield {k: v for k, v in new.items() if k != g}


@pytest.mark.parametrize("name", ["incl", "proj", "homotopy"])
def test_transfer_verify_rejects_a_flipped_entry(name):
    small, tr = minimize(taylor_complex(cycle_ideal(6)))
    assert tr.verify()
    maps = {"incl": tr.incl, "proj": tr.proj, "homotopy": tr.homotopy}
    count = 0
    for new in flipped_entries(maps[name]):
        broken = TransferData(tr.big, tr.small, **dict(maps, **{name: new}))
        assert not broken.verify()
        count += 1
    assert count > 0


@pytest.mark.parametrize("name", ["incl", "proj", "homotopy"])
def test_transfer_verify_rejects_a_dropped_entry(name):
    small, tr = minimize(taylor_complex(cycle_ideal(6)))
    maps = {"incl": tr.incl, "proj": tr.proj, "homotopy": tr.homotopy}
    count = emptied = 0
    for new in dropped_entries(maps[name]):
        broken = TransferData(tr.big, tr.small, **dict(maps, **{name: new}))
        assert not broken.verify()
        count += 1
        emptied += len(new) < len(maps[name]) or {} in new.values()
    # rows left empty or missing must read as zero on both sides
    assert count > 0 and emptied > 0


def test_transfer_verify_rejects_a_projection_that_is_not_a_left_inverse():
    # proj' = proj + ek + kd, for a graded k from big to small raising
    # hdeg by one, is still a graded chain map, and incl∘proj' - id =
    # dH' + H'd with H' = H + incl∘k, so only proj∘incl = id can fail.
    # After one cancellation such a k breaks it.  On the minimal C6 none
    # does: no id there has an id one hdeg up whose mdeg divides its
    # own, so k∘incl = 0 and proj'∘incl = proj∘incl.
    small, tr, _ = cancel_pairs(taylor_complex(cycle_ideal(6)), [((0, 2), (0, 1, 2))])
    assert tr.verify()
    big, incl = tr.big, tr.incl
    graded = (
        {bg.bid: {bh.bid: 1}}
        for bg in sorted(big.by_id.values(), key=lambda b: (b.hdeg, b.bid))
        for bh in small.basis_at(bg.hdeg + 1)
        if divides(bh.mdeg, bg.mdeg)
    )

    def moved(k):
        return combine((1, tr.proj), (1, compose(small.diff, k)), (1, compose(k, big.diff)))

    def left_inverse(proj):
        return all(apply(proj, incl.get(g, {})) == {g: 1} for g in small.by_id)

    k = next(k for k in graded if not left_inverse(moved(k)))
    proj, homotopy = moved(k), combine((1, tr.homotopy), (1, compose(incl, k)))
    lhs = combine((1, compose(incl, proj)), (-1, {g: {g: 1} for g in big.by_id}))
    assert not grading_fault(big, small, proj, 0) and not grading_fault(big, big, homotopy, 1)
    assert is_chain_map(big, small, proj) and is_homotopy(big, homotopy, lhs)
    assert not TransferData(big, small, incl, proj, homotopy).verify()


def test_transfer_verify_rejects_a_small_complex_with_a_scaled_top_row():
    # 2·d on one top basis element is a change of basis: the small
    # complex still resolves S/I, and proj∘incl = id and the homotopy
    # identity read neither differential of it, so only the inclusion's
    # chain-map check sees that incl no longer commutes with d
    ideal = cycle_ideal(6)
    small, tr = minimize(taylor_complex(ideal))
    assert tr.verify()
    top = small.basis_at(small.max_hdeg)[0].bid
    diff = {g: {h: 2 * c for h, c in row.items()} if g == top else row
            for g, row in small.diff.items()}
    scaled = FreeComplex(small.num_vars, small.bases, diff)
    assert is_resolution(scaled, ideal)
    assert all(apply(tr.proj, tr.incl.get(g, {})) == {g: 1} for g in scaled.by_id)
    assert not TransferData(tr.big, scaled, tr.incl, tr.proj, tr.homotopy).verify()


def five_check_verify(tr):
    """TransferData.verify as it was with its fifth check, that proj is a
    chain map; the reference for the trimmed verify."""
    big, small, incl, proj = tr.big, tr.small, tr.incl, tr.proj
    if (
        grading_fault(small, big, incl, 0)
        or grading_fault(big, small, proj, 0)
        or grading_fault(big, big, tr.homotopy, 1)
    ):
        return False
    if any(apply(proj, incl.get(g, {})) != {g: 1} for g in small.by_id):
        return False
    lhs = {g: apply(incl, proj.get(g, {})) for g in big.by_id}
    for g, row in lhs.items():
        row[g] = row.get(g, 0) - 1
    return (
        is_homotopy(big, tr.homotopy, lhs)
        and is_chain_map(small, big, incl)
        and is_chain_map(big, small, proj)
    )


def changed_entries(rows):
    """Every copy of rows with one entry negated, deleted or doubled."""
    yield from flipped_entries(rows)
    yield from dropped_entries(rows)
    for g in sorted(rows):
        for h in sorted(rows[g]):
            new = {k: dict(v) for k, v in rows.items()}
            new[g][h] *= 2
            yield new


def test_trimmed_verify_agrees_with_the_five_checks():
    ideals = [ideal for _, ideal in catalog_ideals()]
    rng = random.Random(59)
    for squarefree in (True, False):
        drawn = 0
        while drawn < 5:
            ideal = random_monomial_ideal(rng, max_gens=6, max_vars=5, squarefree=squarefree)
            if 3 <= ideal.k <= 5:
                ideals.append(ideal)
                drawn += 1
    transfers = [minimize(taylor_complex(ideal), order)[1]
                 for ideal in ideals for order in ("forward", "reversed")]
    rng = random.Random(61)
    for _ in range(4):
        delta = random_cone_complex(rng, max_base_vertices=4)
        ideal = ideal_from_cone_complex(delta)
        matching = cone_morse_matching(ideal, delta, delta.num_vertices - 1)
        transfers.append(cancel_pairs(taylor_complex(ideal), matching)[1])
    for tr in transfers:
        assert tr.verify() and five_check_verify(tr)
    # every one-entry change of each map, on C6 (squarefree) and on the
    # first random ideal that is not squarefree
    c6 = [label for label, _ in catalog_ideals()].index("4.3")
    rough = next(n for n in range(len(ideals) - 5, len(ideals)) if not ideals[n].is_squarefree())
    verdicts = []
    for tr in (transfers[2 * c6], transfers[2 * rough]):
        maps = {"incl": tr.incl, "proj": tr.proj, "homotopy": tr.homotopy}
        for name, rows in maps.items():
            for new in changed_entries(rows):
                broken = TransferData(tr.big, tr.small, **dict(maps, **{name: new}))
                want = five_check_verify(broken)
                assert broken.verify() == want
                verdicts.append(want)
    assert len(verdicts) > 300 and not any(verdicts)


def compose(a, b):
    """The sparse row map a∘b: first b, then a."""
    return {g: apply(a, row) for g, row in b.items()}


def combine(*terms):
    """The sparse row map sum of c·m over the (c, m) terms."""
    out = {}
    for c, m in terms:
        for g, row in m.items():
            add_scaled(out.setdefault(g, {}), c, row)
    return {g: {h: x for h, x in row.items() if x} for g, row in out.items()}


def ungraded_transfer(tr, name):
    """The first transfer (incl, proj, H) that keeps every scalar
    identity but breaks the grading of the named map.  It adds one
    ungraded entry k0, from an id g to an id h with mdeg h not dividing
    mdeg g, one hdeg up (two for H): proj' = proj + dk + kd with k =
    k0∘(id - incl∘proj) and H' = H + incl∘k; incl' = incl + dk + kd
    with k = (id - incl∘proj)∘k0 and H' = H + k∘proj; or H' = H + dk0 -
    k0d."""
    big, small, incl, proj, H = tr.big, tr.small, tr.incl, tr.proj, tr.homotopy
    src, tgt, shift = {"incl": (small, big, 0), "proj": (big, small, 0),
                       "homotopy": (big, big, 1)}[name]
    for bg in sorted(src.by_id.values(), key=lambda b: (b.hdeg, b.bid)):
        for bh in tgt.basis_at(bg.hdeg + shift + 1):
            if divides(bh.mdeg, bg.mdeg):
                continue
            k0 = {bg.bid: {bh.bid: 1}}
            if name == "incl":
                k = combine((1, k0), (-1, compose(incl, compose(proj, k0))))
                maps = {"incl": combine((1, incl), (1, compose(big.diff, k)),
                                        (1, compose(k, small.diff))),
                        "homotopy": combine((1, H), (1, compose(k, proj)))}
            elif name == "proj":
                k = combine((1, k0), (-1, compose(k0, compose(incl, proj))))
                maps = {"proj": combine((1, proj), (1, compose(small.diff, k)),
                                        (1, compose(k, big.diff))),
                        "homotopy": combine((1, H), (1, compose(incl, k)))}
            else:
                maps = {"homotopy": combine((1, H), (1, compose(big.diff, k0)),
                                            (-1, compose(k0, big.diff)))}
            maps = {"incl": incl, "proj": proj, **maps}
            if grading_fault(src, tgt, maps[name], shift):
                return maps
    pytest.fail(f"no ungraded {name} found")


@pytest.mark.parametrize("name", ["incl", "proj", "homotopy"])
def test_transfer_verify_rejects_an_ungraded_map(name):
    small, tr = minimize(taylor_complex(cycle_ideal(6)))
    big = tr.big
    maps = ungraded_transfer(tr, name)
    incl, proj, H = maps["incl"], maps["proj"], maps["homotopy"]
    # every scalar identity still holds: the grading rule alone rejects it
    assert all(apply(proj, incl.get(g, {})) == {g: 1} for g in small.by_id)
    lhs = combine((1, compose(incl, proj)), (-1, {g: {g: 1} for g in big.by_id}))
    assert is_homotopy(big, H, lhs)
    assert is_chain_map(small, big, incl) and is_chain_map(big, small, proj)
    assert not TransferData(big, small, incl, proj, H).verify()


def test_cancel_pairs_runs_requested_cancellations():
    # triangle ideal: the triple shares its lcm with every pair
    tri = MonomialIdeal(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    t = taylor_complex(tri)
    small, transfer, leftover = cancel_pairs(t, [((0, 1), (0, 1, 2))])
    assert leftover == []
    assert (0, 1, 2) not in small.by_id and (0, 1) not in small.by_id
    assert transfer.verify()
    assert is_resolution(small, tri)


def test_cancel_pairs_reports_impossible_pairs():
    ideal = tagged_four_cycle_ideal()  # Taylor pair degrees here
    t = taylor_complex(ideal)
    # (0,) and (0,1) have different multidegrees: never cancellable
    small, _, leftover = cancel_pairs(t, [((0,), (0, 1))])
    assert leftover == [((0,), (0, 1))]
    assert small.ranks() == t.ranks()


def _scanned_unit(red, order):
    """The pivot search before the heap: rescan every live basis element
    and take the smallest (hdeg, source, target), or the largest."""
    reverse = order == "reversed"
    for i in sorted(red.base.bases, reverse=reverse):
        found = []
        for b in red.base.bases[i]:
            if b.bid not in red.by_id:
                continue
            for h, c in red.diff.get(b.bid, {}).items():
                if c and red.by_id[h].mdeg == b.mdeg:
                    found.append((b.bid, h))
        if found:
            found.sort(reverse=reverse)
            return found[0]
    return None


def _columns(rows):
    cols = {}
    for x, row in rows.items():
        for t in row:
            cols.setdefault(t, set()).add(x)
    return cols


def _assert_indexes_exact(red):
    # the column indexes must name exactly the rows that hold each target
    assert {t: s for t, s in red.into.items() if s} == _columns(red.diff)
    assert {t: s for t, s in red.holders.items() if s} == _columns(red.proj)
    assert set(red.holders) == set(red.by_id)


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_heap_picks_the_scanned_pivot(order):
    ideals = [ideal for _, ideal in catalog_ideals()]
    rng = random.Random(41)
    drawn = 0
    while drawn < 8:
        # most draws collapse to a few generators, which cancel little
        ideal = random_monomial_ideal(rng, max_gens=12, max_vars=6, max_exp=2)
        if 5 <= ideal.k <= 7:
            ideals.append(ideal)
            drawn += 1
    steps = 0
    for ideal in ideals:
        red = _Reduction(taylor_complex(ideal), order)
        while True:
            expected = _scanned_unit(red, order)
            assert red.next_unit() == expected
            if expected is None:
                break
            red.cancel(*expected)
            _assert_indexes_exact(red)
            steps += 1
        small, transfer = red.result()
        assert is_minimal(small) and is_resolution(small, ideal)
        assert transfer.verify()
    assert steps > 150, steps


def test_cancel_pairs_runs_the_engine_without_a_heap(monkeypatch):
    cancel = _Reduction.cancel
    pivots = []

    def checked_cancel(red, g, h):
        assert red.heap is None
        cancel(red, g, h)
        _assert_indexes_exact(red)
        pivots.append((h, g))

    monkeypatch.setattr(_Reduction, "cancel", checked_cancel)
    rng = random.Random(43)
    for _ in range(6):
        delta = random_cone_complex(rng, max_base_vertices=4)
        ideal = ideal_from_cone_complex(delta)
        matching = cone_morse_matching(ideal, delta, delta.num_vertices - 1)
        t = taylor_complex(ideal)
        pivots.clear()
        small, transfer, leftover = cancel_pairs(t, matching)
        assert leftover == []
        assert sorted(pivots) == sorted(matching)
        # the unmatched ids are exactly the faces of the cone
        assert set(small.by_id) == {tuple(sorted(f)) for f in delta.faces}
        assert is_minimal(small) and is_resolution(small, ideal)
        assert transfer.verify()


def test_cancel_rejects_a_non_unit_pivot():
    t = taylor_complex(tagged_four_cycle_ideal())
    with pytest.raises(ValueError, match="no invertible entry"):
        _Reduction(t).cancel((0, 1), (0,))
