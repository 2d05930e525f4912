"""Acceptance gate: thirteen criteria, one pass/fail line each.

Every comparison is exact (Fraction or integer equality); there are no
tolerances anywhere.  `pytest tests/test_acceptance.py -v` gives one
pytest line per criterion; add `-s` to also see the [PASS]/[FAIL]
lines printed here.
"""

import random
from fractions import Fraction

from test_simplicial import candidate_box, exhaustive_fvectors, trim

from dgares.betti import (
    betti_from_complex,
    betti_table,
    betti_table_direct,
    check_subadditivity,
    t_vector,
)
from dgares.complexes import (
    Element,
    algebraic_scarf,
    is_minimal,
    is_resolution,
    lyubeznik,
    scarf_complex,
    taylor_complex,
)
from dgares.corpus import (
    catalog_ideals,
    cone_lattice_ideal,
    cycle_ideal,
    path_ideal,
    random_cone_complex,
    random_monomial_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.homotopy import scaled_dga
from dgares.ideals import is_strongly_generic, total_degree
from dgares.lattices import atom_isomorphism, atom_sets
from dgares.minimize import minimal_resolution, minimize
from dgares.morse import (
    cone_morse_matching,
    dga_ideal_check,
    ideal_from_cone_complex,
    morse_quotient,
    verify_morse_matching,
)
from dgares.multiplication import (
    associator,
    check_dga_axioms,
    gauge_equivalent,
    is_supportive,
    taylor_multiplication,
)
from dgares.simplicial import SimplicialComplex, cone, f_vector, is_cone_fvector, kruskal_katona_check
from dgares.solve import associativity_scan, forced_products, leibniz_solution_space
from dgares.structure import (
    avramov_obstruction,
    hilbert_cone_check,
    in_degree_one_span,
    scarf_product_check,
    supportive_multiplication,
)

F = Fraction

_CORPUS = None


def corpus():
    """Six catalog ideals plus fifty seeded random ones (at most five
    generators in at most six variables)."""
    global _CORPUS
    if _CORPUS is None:
        ideals = [ideal for _, ideal in catalog_ideals()]
        rng = random.Random(20240)
        for _ in range(50):
            ideals.append(random_monomial_ideal(rng, max_gens=5, max_vars=6))
        _CORPUS = tuple(ideals)
    return _CORPUS


def finish(num, description, problems):
    print("[%s] criterion %02d: %s" % ("FAIL" if problems else "PASS", num, description))
    assert not problems, problems


def match_point(space, pair, want):
    """Parameter values sending one pair's row to the wanted scalars."""
    return space.solve_for({pair: want}, [pair])


def test_criterion_01_cycle_betti_numbers():
    problems = []
    totals = betti_table(cycle_ideal(6)).totals()
    if totals != (1, 6, 9, 6, 2):
        problems.append("totals %s" % (totals,))
    finish(1, "six-cycle edge ideal has betti numbers 1 6 9 6 2", problems)


def test_criterion_02_taylor_axioms_everywhere():
    problems = []
    for ideal in corpus():
        ax = check_dga_axioms(taylor_multiplication(taylor_complex(ideal)))
        if not (ax.unit and ax.multigraded and ax.commutative
                and ax.leibniz and ax.associative):
            problems.append("%s: %s" % (ideal.generators, ax.summary()))
    finish(2, "inclusion-exclusion product satisfies all five axioms on "
           "%d ideals" % len(corpus()), problems)


def test_criterion_03_minimization():
    problems = []
    for ideal in corpus():
        T = taylor_complex(ideal)
        small, transfer = minimize(T)
        other, _ = minimize(T, order="reversed")
        if small.ranks() != other.ranks():
            problems.append("%s: pivot orders disagree" % (ideal.generators,))
        if not (is_resolution(small, ideal) and is_minimal(small)
                and transfer.verify()):
            problems.append("%s: not a verified minimal resolution" % (ideal.generators,))
        table = betti_from_complex(small)
        sc = scarf_complex(ideal)
        for face in sc.faces:
            if not face:
                continue
            key = (len(face), ideal.lcm_of(sorted(face)))
            if table.entries.get(key, 0) < 1:
                problems.append("%s: unique-degree subset %s missing"
                                % (ideal.generators, sorted(face)))
        if is_strongly_generic(ideal) and small.ranks() != f_vector(sc):
            problems.append("%s: strongly generic ranks %s != %s"
                            % (ideal.generators, small.ranks(), f_vector(sc)))
    finish(3, "minimization is correct, order-independent, and contains "
           "the unique-degree faces", problems)


def test_criterion_04_squarefree_scarf_products_invariant():
    problems = []
    rng = random.Random(9)
    members = [i for i in corpus() if i.is_squarefree()]
    for ideal in members:
        space = leibniz_solution_space(minimal_resolution(ideal).complex)
        points = [tuple(F(0) for _ in range(space.dim))]
        points += [tuple(F(rng.randint(-3, 3)) for _ in range(space.dim))
                   for _ in range(2)]
        for values in points:
            ok, wit = scarf_product_check(ideal, space.at(values))
            if not ok:
                problems.append("%s at %s: %s" % (ideal.generators, values, wit[:1]))
    finish(4, "every sampled product on %d squarefree ideals multiplies "
           "unique-degree faces identically" % len(members), problems)


def test_criterion_05_four_cycle_family():
    problems = []
    space = leibniz_solution_space(algebraic_scarf(tagged_four_cycle_ideal()))
    if space.dim < 1:
        problems.append("solution space dimension %d" % space.dim)
    targets = {
        0: {(0, 3): F(1), (2, 3): F(-1)},
        1: {(0, 1): F(1), (1, 2): F(1)},
    }
    for lam, want in targets.items():
        point = match_point(space, ((0,), (2,)), want)
        if point is None:
            problems.append("no member matches the lambda=%d product" % lam)
            continue
        mult = space.at(point)
        if mult.table.get(((0,), (2,))) != want:
            problems.append("lambda=%d row %s" % (lam, mult.table.get(((0,), (2,)))))
        ax = check_dga_axioms(mult)
        if not ax.is_dga:
            problems.append("lambda=%d: %s" % (lam, ax.summary()))
    finish(5, "tagged four-cycle: both catalogued opposite-pair products "
           "extend to full associative structures", problems)


_TABLE_ONE = {
    ((0,), (1,)): {(0, 1): F(1)},
    ((0,), (2,)): {(0, 2): F(1)},
    ((1,), (2,)): {(0, 1): F(1), (0, 2): F(-1)},
    ((0,), (1, 2)): {(0, 1, 2): F(1)},
    ((1,), (1, 2)): {(0, 1, 2): F(-1)},
    ((1, 2), (2,)): {(0, 1, 2): F(-1)},
}


def test_criterion_06_modified_product_table():
    problems = []
    T = taylor_complex(taylor_equals_scarf_ideal())
    modified = leibniz_solution_space(T).particular()
    if gauge_equivalent(modified, _TABLE_ONE) is None:
        problems.append("catalogued table not matched up to basis signs")
    ax = check_dga_axioms(modified)
    if not ax.is_dga:
        problems.append(ax.summary())
    sup, _ = is_supportive(modified)
    if sup:
        problems.append("modified product unexpectedly supportive")
    if in_degree_one_span(modified, (1, 2)):
        problems.append("top edge unexpectedly generated in degree one")
    finish(6, "modified product matches its table, is associative, "
           "not supportive, not degree-one generated", problems)


def test_criterion_07_scaling_restores_associativity():
    problems = []
    assert path_ideal(6) in corpus()
    for ideal in corpus():
        sd = scaled_dga(ideal)
        ax = check_dga_axioms(sd.multiplication)
        if not (is_resolution(sd.complex, sd.scaled_ideal)
                and is_minimal(sd.complex) and ax.is_dga):
            problems.append("%s: %s" % (ideal.generators, ax.summary()))
    finish(7, "scaled copy of every corpus ideal carries a minimal "
           "associative resolution", problems)


def test_criterion_08_path_ideal_obstruction():
    problems = []
    ideal = path_ideal(6)
    table = betti_table(ideal)
    for window in ((1, 1, 1, 1, 0, 0), (0, 0, 1, 1, 1, 1)):
        if (3, window) in table.entries:
            problems.append("unexpected betti number at %s" % (window,))
    rep = avramov_obstruction(ideal)
    want = Element(3, (1, 1, 1, 1, 1, 1), {
        (0, 1, 4): F(1), (0, 3, 4): F(-1), (1, 3, 4): F(1),
        (0, 1, 3): F(-1), (2, 3, 4): F(-1), (0, 1, 2): F(1),
    })
    if rep.combination != want or rep.combination.is_zero():
        problems.append("combination %s" % (rep.combination,))
    if not rep.relation_degrees:
        problems.append("a relation degree misses betti number one")
    if rep.scarf_witnesses != ((0, 1, 4), (0, 3, 4)):
        problems.append("witnesses %s" % (rep.scarf_witnesses,))
    faces = scarf_complex(ideal).faces
    for triple in rep.scarf_witnesses:
        if frozenset(triple) not in faces:
            problems.append("%s not a unique-degree subset" % (triple,))
    if not rep.ok:
        problems.append("certificate incomplete")
    finish(8, "path ideal obstruction: vanishing windows, nonzero "
           "catalogued combination, unique-degree witnesses", problems)


_TABLE_TWO = {
    (0,): 2, (1,): 2, (2,): 4, (3,): 2, (4,): 2,
    (0, 1): 3, (0, 3): 4, (0, 4): 4, (1, 2): 5, (1, 3): 4,
    (1, 4): 4, (2, 3): 5, (3, 4): 3,
    (0, 1, 3): 5, (0, 1, 4): 5, (0, 3, 4): 5, (1, 2, 3): 6, (1, 3, 4): 5,
    (0, 1, 3, 4): 6,
}

_FORCED = {
    ((0,), (2,)): {(0, 1): F(1), (1, 2): F(1)},
    ((2,), (4,)): {(2, 3): F(1), (3, 4): F(1)},
    ((1, 2), (4,)): {(1, 2, 3): F(1), (1, 3, 4): F(1)},
}


def test_criterion_09_strongly_generic_ideal():
    problems = []
    ideal = strongly_generic_ideal()
    if not is_strongly_generic(ideal):
        problems.append("not strongly generic")
    res = algebraic_scarf(ideal)
    degs = {b.bid: total_degree(b.mdeg)
            for bl in res.bases.values() for b in bl if b.hdeg >= 1}
    if degs != _TABLE_TWO:
        problems.append("degree table differs")
    fp = forced_products(res)
    for pair, want in _FORCED.items():
        val = fp.get(*pair)
        if val is None or dict(val.coeffs) != want:
            problems.append("forced product %s" % (pair,))
    mult = leibniz_solution_space(res).particular()
    g = res.basis_element
    gap = associator(mult, g((0,)), g((2,)), g((4,)))
    want_gap = res.apply_diff(g((0, 1, 3, 4))).shifted((0, 1, 1, 0))
    if gap != want_gap or gap.is_zero():
        problems.append("associator gap %s" % (gap,))
    L = lyubeznik(ideal, (1, 3, 0, 2, 4))
    if not (is_resolution(L, ideal) and is_minimal(L)
            and L.ranks() == (1, 5, 8, 5, 1)):
        problems.append("catalogued deletion order not minimal")
    finish(9, "strongly generic ideal: degrees, forced products, boundary "
           "associator, minimal deletion order", problems)


def run_cone_pipeline(delta, apex):
    ideal = ideal_from_cone_complex(delta)
    matching = cone_morse_matching(ideal, delta, apex)
    T = taylor_complex(ideal)
    if not verify_morse_matching(matching, T).valid:
        return "invalid matching"
    mult = taylor_multiplication(T)
    ok, _ = dga_ideal_check(mult, matching)
    if not ok:
        return "matched span is not a DG-ideal"
    small, small_mult, _ = morse_quotient(T, mult, matching)
    if not (is_resolution(small, ideal) and is_minimal(small)):
        return "quotient is not a minimal resolution"
    if not check_dga_axioms(small_mult).is_dga:
        return "quotient product not associative"
    if small.ranks() != f_vector(delta):
        return "ranks %s != %s" % (small.ranks(), f_vector(delta))
    if not hilbert_cone_check(small_mult).passed:
        return "rank sequence fails the cone deconvolution"
    return None


def test_criterion_10_cone_pipeline():
    problems = []
    path3 = cone(SimplicialComplex.from_faces(3, [(0, 1), (1, 2)]))
    deltas = [path3]
    rng = random.Random(77)
    for _ in range(20):
        deltas.append(random_cone_complex(rng, max_base_vertices=5))
    for delta in deltas:
        err = run_cone_pipeline(delta, delta.num_vertices - 1)
        if err is not None:
            problems.append("%d vertices: %s" % (delta.num_vertices, err))
    if is_cone_fvector((1, 6, 9, 6, 2)):
        problems.append("1 6 9 6 2 accepted as a cone face count")
    if not is_cone_fvector((1, 4, 5, 2)):
        problems.append("1 4 5 2 rejected as a cone face count")
    finish(10, "face-indexed ideal, apex matching, and quotient DGA on "
           "%d cone complexes" % len(deltas), problems)


def test_criterion_11_subadditivity():
    problems = []
    rng = random.Random(4321)
    for _ in range(100):
        ideal = random_monomial_ideal(rng, max_gens=5, max_vars=6)
        rep = check_subadditivity(t_vector(betti_table(ideal)), mode="first_step")
        if not rep.passed:
            problems.append("%s: %s" % (ideal.generators, rep.violations))
    with_dga = []
    for ideal in corpus():
        if ideal == cone_lattice_ideal():
            with_dga.append(ideal)  # quotient product, checked in criterion 10
            continue
        space = leibniz_solution_space(minimal_resolution(ideal).complex)
        points = [p for p, w in associativity_scan(
            space, samples=6, rng=random.Random(1)) if w is None]
        if check_dga_axioms(space.particular()).is_dga or points:
            with_dga.append(ideal)
    if len(with_dga) < 3:
        problems.append("only %d corpus members carry a known associative "
                        "product" % len(with_dga))
    for ideal in with_dga:
        rep = check_subadditivity(t_vector(betti_table(ideal)), mode="all")
        if not rep.passed:
            problems.append("%s: %s" % (ideal.generators, rep.violations))
    finish(11, "degree subadditivity: first step on 100 random ideals, all "
           "splits on the %d members with associative products" % len(with_dga),
           problems)


def test_criterion_12_supportive_products():
    problems = []
    rng = random.Random(9)
    squarefree = [i for i in corpus() if i.is_squarefree()]
    for ideal in squarefree:
        sup, _ = is_supportive(taylor_multiplication(taylor_complex(ideal)))
        if not sup:
            problems.append("%s: full product not supportive" % (ideal.generators,))
        space = leibniz_solution_space(minimal_resolution(ideal).complex)
        for _ in range(2):
            values = tuple(F(rng.randint(-3, 3)) for _ in range(space.dim))
            sup, wit = is_supportive(space.at(values))
            if not sup:
                problems.append("%s at %s: %s" % (ideal.generators, values, wit[:1]))
    transported = [i for i in corpus() if not i.is_squarefree()][:8]
    for ideal in transported:
        sm = supportive_multiplication(ideal)
        sup, _ = is_supportive(sm.multiplication)
        if not (sm.polarization is not None
                and is_resolution(sm.complex, ideal) and is_minimal(sm.complex)
                and check_dga_axioms(sm.multiplication, associativity=False).is_multiplication
                and sup):
            problems.append("%s: transported product fails" % (ideal.generators,))
    betti_atoms = [atom_sets(J, {a for _, a in betti_table(J).entries})
                   for J in (cone_lattice_ideal(), strongly_generic_ideal())]
    if atom_isomorphism(*betti_atoms) is None:
        problems.append("betti posets of the cone ideal and its model differ")
    finish(12, "supportive products on %d squarefree members, transport "
           "through the squarefree copy on %d others"
           % (len(squarefree), len(transported)), problems)


def test_criterion_13_oracle_equivalence():
    problems = []
    fvecs, leaves = exhaustive_fvectors(5)
    if leaves != 7580:
        problems.append("enumeration found %d families" % leaves)
    box = 0
    for vec in candidate_box(5):
        box += 1
        if kruskal_katona_check(vec) != (trim(vec) in fvecs):
            problems.append("disagreement at %s" % (vec,))
    if box != 8712:
        problems.append("candidate box size %d" % box)
    rng = random.Random(5150)
    for _ in range(20):
        ideal = random_monomial_ideal(rng, max_gens=5, max_vars=6)
        if betti_table(ideal).entries != betti_table_direct(ideal).entries:
            problems.append("betti routes disagree on %s" % (ideal.generators,))
    finish(13, "face-count bound matches exhaustive enumeration; both betti "
           "routes agree on 20 random ideals", problems)
