"""Runnable catalog of the constructions the library ships with.

Each case rebuilds one construction from scratch and re-checks every
fact the library claims about it, returning a CaseResult with one line
per fact.  Case names are opaque catalog labels used by the command
line; `run_all` drives the whole catalog in one process.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .betti import betti_table, betti_table_direct
from .complexes import (
    algebraic_scarf,
    is_minimal,
    is_resolution,
    lyubeznik,
    scarf_complex,
    taylor_complex,
)
from .corpus import (
    catalog_ideals,
    cycle_ideal,
    path_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from .homotopy import scaled_dga
from .ideals import is_strongly_generic, scale_ideal, total_degree, vec_sub
from .lattices import atom_isomorphism, atom_sets
from .minimize import minimal_resolution
from .morse import cone_morse_matching, ideal_from_cone_complex, morse_quotient, verify_morse_matching
from .multiplication import (
    associator,
    check_dga_axioms,
    gauge_equivalent,
    is_supportive,
    taylor_multiplication,
    transfer_multiplication,
)
from .simplicial import f_vector, is_cone, is_cone_fvector, kruskal_katona_check
from .solve import associativity_scan, canonical_pairs, forced_products, leibniz_solution_space
from .structure import (
    avramov_obstruction,
    degree_one_generation,
    hilbert_cone_check,
    in_degree_one_span,
    scarf_product_check,
    supportive_multiplication,
)

ONE = Fraction(1)

CASES = ("3.2", "3.3", "3.8", "4.3", "5.1", "6.8", "thm2.1")


@dataclass
class CaseResult:
    name: str
    checks: list  # (label, ok, detail)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        out = ["[%s] %s" % (self.name, "PASS" if self.passed else "FAIL")]
        for label, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            out.append("  %s %s%s" % (mark, label, ": " + detail if detail else ""))
        return out

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"label": label, "ok": ok, "detail": detail}
                for label, ok, detail in self.checks
            ],
        }


def _table_realizable(space, ref):
    """Does any sign pattern carry some member of the space onto the
    reference table?  Exhaustive over per-basis signs; each pattern
    leaves a linear system for the parameters.  The conditions are
    bilinear in the signs and the parameters, so the GF(2) elimination
    of gauge_equivalent does not apply."""
    F = space.complex
    ids = F.positive_ids()
    pairs = canonical_pairs(F)
    for signs in iproduct((ONE, -ONE), repeat=len(ids)):
        eps = dict(zip(ids, signs))
        twisted = {
            (u, v): {w: eps[u] * eps[v] * eps[w] * c for w, c in row.items()}
            for (u, v), row in ref.items()
        }
        if space.solve_for(twisted, pairs) is not None:
            return True
    return False


# --- case "3.2": four generators, a plane of products -----------------

_FOUR_CYCLE_SCARF = {
    (),
    (0,), (1,), (2,), (3,),
    (0, 1), (0, 3), (1, 2), (1, 3), (2, 3),
    (0, 1, 3), (1, 2, 3),
}


def _four_cycle_entry(lam):
    """The published one-parameter family of products of the two
    opposite generators, in scalar form."""
    lam = Fraction(lam)
    vals = {(0, 1): lam, (0, 3): 1 - lam, (1, 2): lam, (2, 3): lam - 1}
    return {w: c for w, c in vals.items() if c}


def _case_32():
    checks = []
    I = tagged_four_cycle_ideal()
    F = algebraic_scarf(I)
    checks.append((
        "unique-degree subsets resolve minimally",
        is_resolution(F, I) and is_minimal(F),
        "ranks %s" % (F.ranks(),),
    ))
    checks.append(("betti numbers 1 4 5 2", F.ranks() == (1, 4, 5, 2), ""))
    ids = {b.bid for bl in F.bases.values() for b in bl}
    checks.append(("scarf faces as catalogued", ids == _FOUR_CYCLE_SCARF, ""))

    space = leibniz_solution_space(F)
    checks.append(("two free directions beyond the forced products",
                   space.dim == 2, "dim %d" % space.dim))

    points = {}
    pair = ((0,), (2,))
    for lam in (0, 1):
        point = space.solve_for({pair: _four_cycle_entry(lam)}, [pair])
        label = "catalogued product at lambda=%d lies in the space" % lam
        if point is None:
            checks.append((label, False, "no parameters match"))
            continue
        mult = space.at(point)
        points[lam] = mult
        ax = check_dga_axioms(mult)
        checks.append((label, True, ""))
        checks.append(("lambda=%d member is an associative product" % lam,
                       ax.is_dga, ax.summary()))
    if len(points) == 2:
        checks.append(("the two members differ",
                       points[0].table != points[1].table, ""))
    return CaseResult("3.2", checks)


# --- case "3.3": the modified product and its misprints ---------------

# Reference table in the source's own sign frame, scalar form.  The two
# products of a generator with the top edge were printed as zero; the
# rest of the table forces them to -y g_abc and -z g_abc.
_TABLE_ONE = {
    ((0,), (1,)): {(0, 1): ONE},
    ((0,), (2,)): {(0, 2): ONE},
    ((1,), (2,)): {(0, 1): ONE, (0, 2): -ONE},
    ((0,), (1, 2)): {(0, 1, 2): ONE},
    ((1,), (1, 2)): {(0, 1, 2): -ONE},
    ((1, 2), (2,)): {(0, 1, 2): -ONE},
}

_TABLE_ONE_PRINTED = {
    pair: row
    for pair, row in _TABLE_ONE.items()
    if pair not in {((1,), (1, 2)), ((1, 2), (2,))}
}


def _case_33():
    checks = []
    I = taylor_equals_scarf_ideal()
    T = taylor_complex(I)
    checks.append(("full complex is already minimal",
                   is_minimal(T) and is_resolution(T, I),
                   "ranks %s" % (T.ranks(),)))

    space = leibniz_solution_space(T)
    checks.append(("products form a line", space.dim == 1, "dim %d" % space.dim))

    MT = taylor_multiplication(T)
    modified = space.particular()
    checks.append(("inclusion-exclusion product sits at parameter 1",
                   space.locate(MT) == (ONE,), ""))

    gauge = gauge_equivalent(modified, _TABLE_ONE)
    checks.append(("corrected table matches up to basis signs",
                   gauge is not None, ""))
    checks.append(("printed zero cells match no product at all",
                   not _table_realizable(space, _TABLE_ONE_PRINTED), ""))

    for name, mult in (("modified", modified), ("inclusion-exclusion", MT)):
        ax = check_dga_axioms(mult)
        checks.append(("%s product is an associative product" % name,
                       ax.is_dga, ax.summary()))
    sup_t, _ = is_supportive(MT)
    sup_m, wit = is_supportive(modified)
    checks.append(("inclusion-exclusion product stays inside joins", sup_t, ""))
    checks.append(("modified product escapes the join of its factors",
                   not sup_m, "witness %s" % (wit[:1],)))
    checks.append((
        "top edge is not generated in homological degree one",
        not in_degree_one_span(modified, (1, 2))
        and not in_degree_one_span(MT, (1, 2)),
        "",
    ))
    return CaseResult("3.3", checks)


# --- case "3.8": the obstructed path ideal ----------------------------


def _case_38():
    checks = []
    I = path_ideal(6)
    rep = avramov_obstruction(I)
    checks.append(("window betti numbers vanish", rep.betti_vanishing, ""))
    checks.append(("saturation products are nonzero", rep.saturation_products, ""))
    checks.append(("boundary combination equals the catalogued element",
                   rep.combination_matches and rep.nonzero_relation, ""))
    checks.append(("all four relation degrees carry betti number one",
                   rep.relation_degrees, ""))
    checks.append(("a unique-degree witness with one-element window exists",
                   len(rep.scarf_witnesses) >= 1,
                   "witnesses %s" % (rep.scarf_witnesses,)))
    checks.append(("obstruction certificate complete", rep.ok, ""))

    bt = betti_table(I)
    checks.append(("betti numbers 1 5 7 4 1", bt.totals() == (1, 5, 7, 4, 1), ""))

    res = minimal_resolution(I)
    MT = taylor_multiplication(res.taylor)
    tm = transfer_multiplication(MT, res.transfer)
    ax = check_dga_axioms(tm)
    checks.append(("transferred product satisfies the four linear axioms",
                   ax.is_multiplication, ax.summary()))
    checks.append(("transferred product fails associativity",
                   not ax.associative, ""))

    sd = scaled_dga(I)
    sax = check_dga_axioms(sd.multiplication)
    checks.append((
        "scaled copy carries a minimal associative product",
        is_resolution(sd.complex, sd.scaled_ideal)
        and is_minimal(sd.complex) and sax.is_dga,
        "",
    ))

    sp_ok, _ = scarf_product_check(I, MT)
    checks.append(("unique-degree faces multiply like faces", sp_ok, ""))
    gen_ok, _ = degree_one_generation(MT)
    checks.append(("full complex is generated in homological degree one",
                   gen_ok, ""))
    return CaseResult("3.8", checks)


# --- case "4.3": betti numbers that no complex carries ----------------


def _case_43():
    checks = []
    I = cycle_ideal(6)
    bt = betti_table(I)
    direct = betti_table_direct(I)
    checks.append(("betti numbers 1 6 9 6 2", bt.totals() == (1, 6, 9, 6, 2), ""))
    checks.append(("strand-by-strand homology agrees",
                   direct.entries == bt.entries, ""))
    vec = bt.totals()
    checks.append(("no simplicial complex has this face count",
                   not kruskal_katona_check(vec), ""))
    checks.append(("no cone has this face count", not is_cone_fvector(vec), ""))
    checks.append(("1 4 5 2 is a cone face count, for contrast",
                   is_cone_fvector((1, 4, 5, 2)), ""))
    scaled = betti_table(scale_ideal(I))
    checks.append(("scaling the ideal keeps the betti numbers",
                   scaled.totals() == vec, ""))
    return CaseResult("4.3", checks)


# --- case "5.1": five generators with no associative product ----------

_TOTAL_DEGREES_51 = {
    (0,): 2, (1,): 2, (2,): 4, (3,): 2, (4,): 2,
    (0, 1): 3, (0, 3): 4, (0, 4): 4, (1, 2): 5, (1, 3): 4,
    (1, 4): 4, (2, 3): 5, (3, 4): 3,
    (0, 1, 3): 5, (0, 1, 4): 5, (0, 3, 4): 5, (1, 2, 3): 6, (1, 3, 4): 5,
    (0, 1, 3, 4): 6,
}

_FORCED_51 = {
    ((0,), (2,)): {(0, 1): ONE, (1, 2): ONE},
    ((2,), (4,)): {(2, 3): ONE, (3, 4): ONE},
    ((1, 2), (4,)): {(1, 2, 3): ONE, (1, 3, 4): ONE},
}


def _case_51():
    checks = []
    I = strongly_generic_ideal()
    checks.append(("generator degrees pairwise share no maximum",
                   is_strongly_generic(I), ""))
    F = algebraic_scarf(I)
    checks.append(("unique-degree subsets resolve minimally",
                   is_resolution(F, I) and is_minimal(F),
                   "ranks %s" % (F.ranks(),)))
    checks.append(("betti numbers 1 5 8 5 1", F.ranks() == (1, 5, 8, 5, 1), ""))

    degmap = {
        b.bid: total_degree(b.mdeg)
        for bl in F.bases.values()
        for b in bl
        if b.hdeg >= 1
    }
    checks.append(("total degrees match the catalogued table",
                   degmap == _TOTAL_DEGREES_51, ""))

    fp = forced_products(F)
    forced_ok = True
    for pair, want in _FORCED_51.items():
        val = fp.get(*pair)
        if val is None or dict(val.coeffs) != want:
            forced_ok = False
    checks.append(("three key products are forced as catalogued",
                   forced_ok, ""))

    space = leibniz_solution_space(F)
    checks.append(("products form a line", space.dim == 1, "dim %d" % space.dim))

    M = space.particular()
    ga, gc, ge = (F.basis_element((i,)) for i in (0, 2, 4))
    assoc = associator(M, ga, gc, ge)
    d_top = F.apply_diff(F.basis_element((0, 1, 3, 4)))
    expected = d_top.shifted(vec_sub(assoc.mdeg, d_top.mdeg))
    checks.append(("associator of the three outer generators is a shifted boundary",
                   assoc == expected and not assoc.is_zero(), ""))

    scan = associativity_scan(space, samples=20)
    checks.append(("no sampled member is associative",
                   all(w is not None for _, w in scan),
                   "%d samples" % len(scan)))

    L = lyubeznik(I, (1, 3, 0, 2, 4))
    checks.append(("reordered deletion complex is minimal too",
                   is_resolution(L, I) and is_minimal(L)
                   and L.ranks() == (1, 5, 8, 5, 1), ""))
    checks.append(("unique-degree complex is a cone",
                   is_cone(scarf_complex(I)) == 1, ""))

    sm = supportive_multiplication(I)
    ax = check_dga_axioms(sm.multiplication, associativity=False)
    sup, _ = is_supportive(sm.multiplication)
    checks.append((
        "square-freeing transport yields a supportive product",
        is_resolution(sm.complex, I) and is_minimal(sm.complex)
        and ax.is_multiplication and sup
        and sm.polarization.ideal.num_vars == 8,
        "",
    ))
    return CaseResult("5.1", checks)


# --- case "6.8": a lattice that forces an associative product ---------


def _case_68():
    checks = []
    I51 = strongly_generic_ideal()
    delta = scarf_complex(I51)
    apex = is_cone(delta)
    I = ideal_from_cone_complex(delta)
    checks.append(("face-indexed ideal built from the cone",
                   I.k == 5 and I.num_vars == 19,
                   "%d generators, %d variables" % (I.k, I.num_vars)))

    T = taylor_complex(I)
    MT = taylor_multiplication(T)
    sup, _ = is_supportive(MT)
    checks.append(("inclusion-exclusion product stays inside joins", sup, ""))

    matching = cone_morse_matching(I, delta, apex)
    rep = verify_morse_matching(matching, T)
    checks.append(("apex matching is a valid acyclic matching", rep.valid, ""))

    small, mult, _ = morse_quotient(T, MT, matching)
    ax = check_dga_axioms(mult)
    checks.append((
        "matched quotient is a minimal associative product",
        is_resolution(small, I) and is_minimal(small) and ax.is_dga,
        "ranks %s" % (small.ranks(),),
    ))
    checks.append(("quotient ranks equal the cone face count",
                   small.ranks() == tuple(f_vector(delta)), ""))

    hc = hilbert_cone_check(mult)
    checks.append(("rank sequence deconvolves over the cone",
                   hc.passed and hc.cone_base == (1, 4, 4, 1),
                   "base %s" % (hc.cone_base,)))

    betti_atoms = [atom_sets(J, {a for _, a in betti_table(J).entries}) for J in (I, I51)]
    iso = atom_isomorphism(*betti_atoms)
    checks.append(("betti degrees order-isomorphic to the generic model",
                   iso is not None, ""))
    return CaseResult("6.8", checks)


# --- case "thm2.1": scaling always restores an associative product ----


def _case_thm21():
    checks = []
    for label, ideal in catalog_ideals():
        sd = scaled_dga(ideal)
        ax = check_dga_axioms(sd.multiplication)
        ok = (
            is_resolution(sd.complex, sd.scaled_ideal)
            and is_minimal(sd.complex)
            and ax.is_dga
        )
        checks.append(("scaled %s carries a minimal associative product" % label,
                       ok, "" if ok else ax.summary()))
    return CaseResult("thm2.1", checks)


_RUNNERS = {
    "3.2": _case_32,
    "3.3": _case_33,
    "3.8": _case_38,
    "4.3": _case_43,
    "5.1": _case_51,
    "6.8": _case_68,
    "thm2.1": _case_thm21,
}


def run_case(name):
    if name not in _RUNNERS:
        raise ValueError("unknown case %r; known cases: %s" % (name, ", ".join(CASES)))
    return _RUNNERS[name]()


def run_all():
    """Run every case, in catalog order."""
    return [run_case(name) for name in CASES]
