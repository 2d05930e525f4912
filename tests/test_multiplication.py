"""Products on resolutions: Taylor shuffle, transfer, axiom checks."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import dgares
from dgares.complexes import BasisElement, Element, FreeComplex, strand_ids, taylor_complex
from dgares.corpus import (
    catalog_ideals,
    cycle_ideal,
    path_ideal,
    random_monomial_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.homotopy import laurent_dga
from dgares.ideals import vec_add
from dgares.minimize import minimize
from dgares.multiplication import (
    Multiplication,
    associator,
    associators,
    check_dga_axioms,
    gauge_equivalent,
    is_supportive,
    lookup,
    taylor_multiplication,
    transfer_multiplication,
)
from dgares.solve import leibniz_solution_space
from dgares.structure import supportive_multiplication

F = Fraction


def test_taylor_product_signs():
    t = taylor_complex(taylor_equals_scarf_ideal())
    m = taylor_multiplication(t)
    assert m.product((0,), (1,)) == Element(2, (3, 1, 0), {(0, 1): F(1)})
    # swapped orientation picks up (-1)^(1*1)
    assert m.product((1,), (0,)) == Element(2, (3, 1, 0), {(0, 1): F(-1)})
    # one transposition: vertex 1 passes over vertex 2 in the merge
    assert m.product((0, 2), (1,)).coeffs == {(0, 1, 2): F(-1)}
    # swapping hdeg 1 against hdeg 2 costs (-1)^2, so the sign stays
    assert m.product((1,), (0, 2)).coeffs == {(0, 1, 2): F(-1)}
    assert m.product((0,), (1, 2)).coeffs == {(0, 1, 2): F(1)}
    # overlapping subsets multiply to zero
    assert m.product((0,), (0, 1)).is_zero()
    assert m.product((0,), (0,)).is_zero()


def test_unit_acts_trivially():
    t = taylor_complex(taylor_equals_scarf_ideal())
    m = taylor_multiplication(t)
    one = t.unit()
    g = t.basis_element((0, 1))
    assert m.multiply(one, g) == g
    assert m.multiply(g, one) == g
    assert m.product((), (0, 1)) == g


def test_taylor_multiplication_is_a_dga():
    for ideal in (taylor_equals_scarf_ideal(), tagged_four_cycle_ideal()):
        m = taylor_multiplication(taylor_complex(ideal))
        report = check_dga_axioms(m)
        assert report.is_dga, report.summary()
        assert report.summary().count("ok") == 5
    rng = random.Random(3)
    for _ in range(5):
        ideal = random_monomial_ideal(rng, max_gens=4, max_vars=5)
        report = check_dga_axioms(taylor_multiplication(taylor_complex(ideal)))
        assert report.is_dga


def test_multiply_is_bilinear_and_associator_vanishes():
    t = taylor_complex(taylor_equals_scarf_ideal())
    m = taylor_multiplication(t)
    f = Element(1, (2, 1, 0), {(0,): F(2), (1,): F(-3)})
    g = Element(1, (2, 1, 1), {(1,): F(1), (2,): F(5)})
    h = t.basis_element((2,))
    fg = m.multiply(f, g)
    assert fg.hdeg == 2 and fg.mdeg == (4, 2, 1)
    # bilinearity against a split of f
    f1 = Element(1, (2, 1, 0), {(0,): F(2)})
    f2 = Element(1, (2, 1, 0), {(1,): F(-3)})
    assert fg == m.multiply(f1, g).add(m.multiply(f2, g))
    assert associator(m, f, g, h).is_zero()


def test_table_normalization_and_validation():
    t = taylor_complex(taylor_equals_scarf_ideal())
    # swapped key folds in with the sign
    m = Multiplication(t, {((1,), (0,)): {(0, 1): F(-1)}})
    assert m.table == {((0,), (1,)): {(0, 1): F(1)}}
    with pytest.raises(ValueError, match="hdeg-0"):
        Multiplication(t, {((), (0,)): {(0,): F(1)}})
    with pytest.raises(ValueError, match="odd-degree"):
        Multiplication(t, {((0,), (0,)): {(0, 1): F(1)}})
    with pytest.raises(ValueError, match="wrong hdeg"):
        Multiplication(t, {((0,), (1,)): {(0, 1, 2): F(1)}})
    with pytest.raises(ValueError, match="negative exponent"):
        Multiplication(t, {((0,), (1,)): {(0, 2): F(1)}})
    # the same entry is fine in a Laurent table
    lau = Multiplication(t, {((0,), (1,)): {(0, 2): F(1)}}, laurent=True)
    assert lau.laurent


def test_axiom_report_catches_broken_tables():
    t = taylor_complex(taylor_equals_scarf_ideal())
    good = taylor_multiplication(t)
    table = {p: dict(r) for p, r in good.table.items()}
    table[((0,), (1,))] = {(0, 1): F(-1)}  # flipped sign
    report = check_dga_axioms(Multiplication(t, table))
    assert not report.leibniz
    assert report.leibniz_failures
    u, v, residual = report.leibniz_failures[0]
    assert not residual.is_zero()
    assert not report.is_dga


def test_axiom_check_without_associativity():
    # the supportive product on P6 is not associative, so a skipped
    # check must not read as a pass
    mult = supportive_multiplication(path_ideal(6)).multiplication
    report = check_dga_axioms(mult, associativity=False)
    assert report.is_multiplication
    assert report.associative is None and report.associative_failures == []
    assert not report.is_dga
    assert report.summary().endswith("associative=skipped")
    full = check_dga_axioms(mult)
    assert full.associative is False and full.associative_failures
    assert full.summary().endswith("associative=FAIL")


def _two_generator_complex():
    """Not augmented, with two hdeg-0 generators: no unit exists."""
    zeros = [BasisElement((0,), 0, (0,)), BasisElement((1,), 0, (1,))]
    return FreeComplex(1, {0: zeros}, {}, augmented=False)


def test_unit_check_reports_a_missing_unit():
    c = _two_generator_complex()
    with pytest.raises(ValueError, match="unit"):
        c.unit()
    report = check_dga_axioms(Multiplication(c, {}))
    assert not report.unit
    assert report.summary().startswith("unit=FAIL")


def test_transfer_multiplication_cycle_ideal():
    ideal = cycle_ideal(6)
    t = taylor_complex(ideal)
    small, transfer = minimize(t)
    m = transfer_multiplication(taylor_multiplication(t), transfer)
    report = check_dga_axioms(m, associativity=False)
    assert report.is_multiplication, report.summary()


def test_transfer_multiplication_rejects_another_complex():
    ideal = taylor_equals_scarf_ideal()
    _, transfer = minimize(taylor_complex(ideal))
    # an equal complex that is not the transfer's own object
    foreign = taylor_multiplication(taylor_complex(ideal))
    with pytest.raises(ValueError, match="another complex"):
        transfer_multiplication(foreign, transfer)


def test_is_supportive_on_taylor():
    for ideal in (taylor_equals_scarf_ideal(), cycle_ideal(6)):
        m = taylor_multiplication(taylor_complex(ideal))
        flag, witnesses = is_supportive(m)
        assert flag and witnesses == []


def test_is_supportive_rejects_overflowing_products():
    t = taylor_complex(taylor_equals_scarf_ideal())
    # send g_a * g_b to the triple: legal degreewise, but the target
    # does not divide the join of the factors
    table = {((0,), (1,)): {(0, 1): F(1)}}
    m = Multiplication(t, table)
    m.table[((0,), (1,))] = {(0, 1, 2): F(1)}
    flag, witnesses = is_supportive(m)
    assert not flag
    assert ((0,), (1,), (0, 1, 2)) in witnesses


def test_gauge_equivalent_finds_sign_patterns():
    t = taylor_complex(taylor_equals_scarf_ideal())
    m = taylor_multiplication(t)
    eps = gauge_equivalent(m, {p: dict(r) for p, r in m.table.items()})
    assert eps is not None
    assert all(e * e == F(1) for e in eps.values())
    # flip the top basis element in the reference; a matching gauge exists
    ref = {p: dict(r) for p, r in m.table.items()}
    for p, row in ref.items():
        for w in row:
            if w == (0, 1, 2):
                row[w] = -row[w]
    eps2 = gauge_equivalent(m, ref)
    assert eps2 is not None
    factors = {
        (u, v, w): eps2[u] * eps2[v] * eps2[w]
        for (u, v) in m.table
        for w in m.table[(u, v)]
    }
    for (u, v, w), factor in factors.items():
        want = F(-1) if w == (0, 1, 2) else F(1)
        assert factor == want


def test_gauge_equivalent_rejects_impossible_tables():
    t = taylor_complex(taylor_equals_scarf_ideal())
    m = taylor_multiplication(t)
    ref = {p: dict(r) for p, r in m.table.items()}
    ref[((0,), (1,))] = {(0, 1): F(2)}  # wrong magnitude, no sign fixes it
    assert gauge_equivalent(m, ref) is None
    # one entry alone: either sign on it is realizable, but neither a
    # doubled entry nor a missing one is
    m = taylor_multiplication(taylor_complex(path_ideal(3)))
    assert m.table == {((0,), (1,)): {(0, 1): F(1)}}
    assert gauge_equivalent(m, {((0,), (1,)): {(0, 1): F(-1)}}) is not None
    assert gauge_equivalent(m, {((0,), (1,)): {(0, 1): F(2)}}) is None
    assert gauge_equivalent(m, {}) is None


def test_gauge_equivalent_rejects_a_negated_entry():
    # the cells (0)(1) -> (0,1), (0,1)(2) -> (0,1,2), (0)(2) -> (0,2) and
    # (0,2)(1) -> (0,1,2) hold every id an even number of times, so the
    # product of their four gauge factors is 1: negate one and no
    # pattern realizes the table
    m = taylor_multiplication(taylor_complex(taylor_equals_scarf_ideal()))
    ref = {p: dict(r) for p, r in m.table.items()}
    ref[((0,), (1,))] = {(0, 1): F(-1)}
    assert _exhaustive_gauge(m, ref) is None
    assert gauge_equivalent(m, ref) is None


def _exhaustive_gauge(mult, table):
    """The search gauge_equivalent ran before elimination, kept as the
    reference: every sign pattern in turn, + before -, the first id
    varying slowest."""
    ids = mult.complex.positive_ids()
    pairs = sorted(set(mult.table) | set(table))
    zero = F(0)
    for signs in itertools.product((F(1), F(-1)), repeat=len(ids)):
        eps = dict(zip(ids, signs))
        ok = True
        for u, v in pairs:
            factor = eps[u] * eps[v]
            ours = mult.table.get((u, v), {})
            ref = table.get((u, v), {})
            for w in set(ours) | set(ref):
                if factor * eps[w] * ours.get(w, zero) != ref.get(w, zero):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return eps
    return None


def _twisted(table, eps):
    return {(u, v): {w: eps[u] * eps[v] * eps[w] * c for w, c in row.items()}
            for (u, v), row in table.items()}


def _gauge_references(mult, rng):
    """(kind, table): the table itself, a seeded sign twist of it, and
    copies of the twist with one seeded entry scaled by 2, dropped or
    added, and with each entry in turn negated."""
    ids = mult.complex.positive_ids()
    twist = _twisted(mult.table, {w: rng.choice((F(1), F(-1))) for w in ids})
    yield "same", mult.table
    yield "twisted", twist
    entries = [(p, w) for p in sorted(twist) for w in sorted(twist[p])]
    for kind in ("scaled", "dropped", "negated", "added"):
        changes = entries if kind == "negated" else [rng.choice(entries)] if entries else []
        for p, w in changes:
            ref = {q: dict(r) for q, r in twist.items()}
            if kind == "scaled":
                ref[p][w] *= 2
            elif kind == "dropped":
                del ref[p][w]
            elif kind == "negated":
                ref[p][w] = -ref[p][w]
            else:
                # a cell outside the table: a pair of ids, any target
                u, v = sorted(rng.sample(ids, 2))
                target = rng.choice([x for x in ids if x not in ref.get((u, v), {})])
                ref.setdefault((u, v), {})[target] = F(1)
            yield kind, ref


def test_gauge_equivalent_agrees_with_the_exhaustive_search():
    rng = random.Random(27)
    ideals = [ideal for _, ideal in catalog_ideals()]
    ideals += [random_monomial_ideal(rng, max_gens=5, max_vars=5) for _ in range(30)]
    verdicts = {}
    for ideal in ideals:
        taylor = taylor_complex(ideal)
        shuffle = taylor_multiplication(taylor)
        small, transfer = minimize(taylor)
        for mult in (shuffle, transfer_multiplication(shuffle, transfer),
                     leibniz_solution_space(small).particular()):
            if not 2 <= len(mult.complex.positive_ids()) <= 12:
                continue
            for kind, ref in _gauge_references(mult, rng):
                want = _exhaustive_gauge(mult, ref)
                got = gauge_equivalent(mult, ref)
                assert (got and list(got.items())) == (want and list(want.items())), kind
                verdicts.setdefault(kind, set()).add(got is not None)
    # the inputs reach every verdict: negations both realizable and not
    assert verdicts == {"same": {True}, "twisted": {True}, "scaled": {False},
                        "dropped": {False}, "added": {False}, "negated": {True, False}}


def _twist_of_c8():
    m = taylor_multiplication(taylor_complex(cycle_ideal(8)))
    rng = random.Random(8)
    eps = {w: rng.choice((F(1), F(-1))) for w in m.complex.positive_ids()}
    return m, _twisted(m.table, eps)


def test_gauge_equivalent_recovers_a_twist_of_c8():
    # 255 positive ids: far past any exhaustive search
    m, ref = _twist_of_c8()
    assert len(m.complex.positive_ids()) == 255
    eps = gauge_equivalent(m, ref)
    assert eps is not None and list(eps) == m.complex.positive_ids()
    assert _twisted(m.table, eps) == ref


def test_gauge_equivalent_has_no_size_cap():
    m = taylor_multiplication(taylor_complex(cycle_ideal(6)))
    assert len(m.complex.positive_ids()) == 63
    assert gauge_equivalent(m, {}) is None


_WITHOUT_ASSERTS = """
import sys
from dgares.betti import BettiTable, TVector, t_vector
from dgares.complexes import BasisElement, Element, FreeComplex, taylor_complex
from dgares.corpus import cycle_ideal, path_ideal, taylor_equals_scarf_ideal
from dgares.minimize import _Reduction
from dgares.morse import cone_morse_matching, ideal_from_cone_complex
from dgares.multiplication import Multiplication, check_dga_axioms
from dgares.simplicial import SimplicialComplex, _cascade, cone

if not sys.flags.optimize:
    sys.exit(3)
zeros = [BasisElement((0,), 0, (0,)), BasisElement((1,), 0, (1,))]
c = FreeComplex(1, {0: zeros}, {}, augmented=False)
if not check_dga_axioms(Multiplication(c, {})).unit:
    print("unit")
t = taylor_complex(taylor_equals_scarf_ideal())
points = SimplicialComplex.from_faces(2, [(0,), (1,)])
guards = {
    "add": lambda: Element(1, (1, 0), {}).add(Element(2, (1, 0), {})),
    "leak": lambda: t.restricted_to([(), (0,), (0, 1)]),
    "tvector": lambda: TVector((1, 2)),
    "path": lambda: path_ideal(1),
    "cycle": lambda: cycle_ideal(2),
    "pivot": lambda: _Reduction(t).cancel((0, 1), (0,)),
    "cone": lambda: cone_morse_matching(
        ideal_from_cone_complex(cone(points)), cone(SimplicialComplex.from_faces(3, [(0,), (1,), (2,)])), 3),
    "noncone": lambda: cone_morse_matching(ideal_from_cone_complex(points), points, 1),
    "gap": lambda: t_vector(BettiTable(2, {(0, (0, 0)): 1, (2, (1, 1)): 1})),
    "cascade": lambda: _cascade(5, 0),
}
for name, call in guards.items():
    try:
        call()
    except ValueError:
        print(name)
"""


def test_guards_hold_without_asserts():
    # python -O strips asserts; the unit check must still report a
    # missing unit, and every input guard must still raise
    src = os.path.dirname(os.path.dirname(os.path.abspath(dgares.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WITHOUT_ASSERTS],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "unit", "add", "leak", "tvector", "path", "cycle", "pivot", "cone", "noncone", "gap",
        "cascade",
    ]


@pytest.mark.parametrize("table", [
    {((99,), (1,)): {(0, 1): F(1)}},
    {((0,), (1,)): {(99,): F(1)}},
], ids=["pair", "target"])
def test_multiplication_names_an_unknown_basis_id(table):
    t = taylor_complex(taylor_equals_scarf_ideal())
    with pytest.raises(ValueError, match=r"unknown basis id \(99,\)"):
        Multiplication(t, table)


def _elementwise_leibniz(mult, max_witnesses):
    """The Leibniz check as check_dga_axioms ran it before the sweep:
    d(e_u e_v) - (du * e_v + (-1)^|u| e_u * dv) on every pair, with
    Element products and differentials."""
    complex_ = mult.complex
    failures = []
    for u, v in mult.pairs():
        fu = complex_.basis_element(u)
        fv = complex_.basis_element(v)
        lhs = complex_.apply_diff(mult.product(u, v))
        rhs = mult.multiply(complex_.apply_diff(fu), fv).add(
            mult.multiply(fu, complex_.apply_diff(fv)).scale(F(-1) ** fu.hdeg)
        )
        residual = lhs.sub(rhs)
        if not residual.is_zero():
            failures.append((u, v, residual))
    return not failures, failures[:max_witnesses]


def _strand(complex_, u, v):
    """The basis ids a valid table entry on (u, v) may land on."""
    bu, bv = complex_.by_id[u], complex_.by_id[v]
    return strand_ids(complex_, bu.hdeg + bv.hdeg, vec_add(bu.mdeg, bv.mdeg))


def _perturbed(mult, rng):
    """The same table with one entry moved by a nonzero scalar, inside
    the pair's strand so that the table stays valid."""
    complex_ = mult.complex
    pairs = [(u, v) for u, v in mult.pairs() if _strand(complex_, u, v)]
    u, v = rng.choice(pairs)
    w = rng.choice(_strand(complex_, u, v))
    table = {p: dict(r) for p, r in mult.table.items()}
    row = table.setdefault((u, v), {})
    row[w] = row.get(w, 0) + F(rng.choice([-2, -1, 1, 3]))
    return Multiplication(complex_, table, laurent=mult.laurent)


def test_swept_leibniz_matches_the_elementwise_check():
    rng = random.Random(11)
    ideals = [ideal for _, ideal in catalog_ideals()]
    ideals += [random_monomial_ideal(rng, max_gens=6, squarefree=s % 2 == 0) for s in range(8)]
    compared = failing = 0
    for ideal in ideals:
        t = taylor_complex(ideal)
        small, transfer = minimize(t)
        products = (
            transfer_multiplication(taylor_multiplication(t), transfer),
            leibniz_solution_space(small).particular(),
            laurent_dga(small),
        )
        for mult in products:
            if not mult.pairs():
                continue
            for candidate in (mult, _perturbed(mult, rng)):
                for max_witnesses in (1, 10):
                    flag, witnesses = _elementwise_leibniz(candidate, max_witnesses)
                    report = check_dga_axioms(candidate, associativity=False, max_witnesses=max_witnesses)
                    assert report.leibniz == flag
                    assert report.leibniz_failures == witnesses
                    compared += 1
                    failing += not flag
    # every unperturbed product is Leibniz, so the witnesses come from
    # the perturbed tables, and some of those fail on several pairs
    assert compared >= 100 and failing >= compared // 3


def _element_associators(mult):
    """The associator scan as it ran before the row kernel: every basis
    triple, with Element products and multiply's basis loop inlined."""
    complex_ = mult.complex
    by_id = complex_.by_id

    def product(u, v):
        row, sign = lookup(by_id, mult.table, u, v, F(1))
        bu, bv = by_id[u], by_id[v]
        return Element(bu.hdeg + bv.hdeg, vec_add(bu.mdeg, bv.mdeg),
                       {w: sign * c for w, c in row.items()})

    def multiply(f, g):
        acc = {}
        for u, cu in f.coeffs.items():
            for v, cv in g.coeffs.items():
                for w, c in product(u, v).coeffs.items():
                    acc[w] = acc.get(w, 0) + cu * cv * c
        return Element(f.hdeg + g.hdeg, vec_add(f.mdeg, g.mdeg), acc)

    ids = complex_.positive_ids()
    basis = [complex_.basis_element(w) for w in ids]
    products = [[product(v, w) for w in ids] for v in ids]
    witnesses = []
    for i, u in enumerate(ids):
        for j, v in enumerate(ids):
            p_uv = products[i][j]
            for w, fw, p_vw in zip(ids, basis, products[j]):
                if not p_uv.coeffs and not p_vw.coeffs:
                    continue
                left = multiply(p_uv, fw)
                right = multiply(basis[i], p_vw)
                if left != right:
                    witnesses.append((u, v, w, left.sub(right)))
    return witnesses


def test_row_scan_matches_the_element_scan():
    rng = random.Random(23)
    ideals = [ideal for _, ideal in catalog_ideals()]
    ideals += [random_monomial_ideal(rng, max_gens=5, squarefree=s % 2 == 0) for s in range(8)]
    compared = failing = at_top = 0
    for ideal in ideals:
        t = taylor_complex(ideal)
        shuffle = taylor_multiplication(t)
        small, transfer = minimize(t)
        products = (
            shuffle,
            transfer_multiplication(shuffle, transfer),
            leibniz_solution_space(small).particular(),
            laurent_dga(small),
        )
        for mult in products:
            if not mult.pairs():
                continue
            for candidate in (mult, _perturbed(mult, rng)):
                want = _element_associators(candidate)
                assert list(associators(candidate)) == want
                for max_witnesses in (1, 10):
                    report = check_dga_axioms(candidate, max_witnesses=max_witnesses)
                    assert report.associative == (not want)
                    assert report.associative_failures == want[:max_witnesses]
                by_id = candidate.complex.by_id
                top = candidate.complex.max_hdeg
                at_top += sum(1 for w in want if sum(by_id[x].hdeg for x in w[:3]) == top)
                compared += 1
                failing += bool(want)
    # the scan stops at the top hdeg, so witnesses sitting on it test
    # that the bound is not cut one degree short
    assert compared >= 80 and failing >= 10 and at_top > 0
