"""Structural consequences of a multiplication on a minimal resolution.

Everything here consumes a FreeComplex whose basis ids are generator
index tuples (as built by taylor_complex and preserved by minimize)
plus a Multiplication on it:

- scarf_product_check: products landing on Scarf faces are forced,
- degree_one_generation / in_degree_one_span: which basis elements are
  combinations of products of homological-degree-one elements,
- taylor_algebra_map: the surjection from the Taylor algebra onto an
  associative multiplication for squarefree ideals, with its kernel,
- avramov_obstruction: mechanical certificate that the 5-generator
  path edge ideal has no multigraded DGA minimal resolution,
- hilbert_cone_check: rank vector of an associative DGA resolution
  must be the f-vector of a cone, via the cycle/cocycle splitting,
- relabel / supportive_multiplication: transport of a supportive
  multiplication along an lcm-lattice isomorphism, and the
  polarize-then-relabel construction for arbitrary monomial ideals.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

from . import linalg
from .betti import betti_table
from .complexes import (
    Element,
    apply_rows,
    canonical_pairs,
    grading_fault,
    is_chain_map,
    scarf_complex,
    squarefree_part,
    strand_ids,
    taylor_complex,
)
from .ideals import (
    MonomialIdeal,
    divides,
    is_squarefree,
    polarize,
)
from .lattices import lcm_lattice
from .minimize import minimal_resolution
from .multiplication import (
    Multiplication,
    check_dga_axioms,
    is_supportive,
    shuffle_sign,
    taylor_multiplication,
)
from .simplicial import cone_deconvolve
from .solve import leibniz_solution_space

ONE = Fraction(1)


def scarf_product_check(ideal, mult, max_witnesses=10):
    """Check that products forced by the Scarf complex have their forced
    value: for basis ids U, V (both Scarf faces) with U cup V again a
    Scarf face, g_U * g_V is 0 when U and V meet and otherwise the
    shuffle sign times g_{U cup V}.  Any multiplication satisfying the
    Leibniz rule must agree, so a mismatch is a bug in the table.

    Squarefree ideals only.  Returns (ok, witnesses) with witnesses
    (u, v, got_element).
    """
    if not ideal.is_squarefree():
        raise ValueError("Scarf products are only forced here for squarefree ideals")
    faces = {tuple(sorted(f)) for f in scarf_complex(ideal).faces}
    F = mult.complex
    witnesses = []
    # odd squares are skipped: they vanish, so they cannot be witnesses
    for u, v in canonical_pairs(F):
        if u not in faces or v not in faces:
            continue
        union = tuple(sorted(set(u) | set(v)))
        if union not in faces:
            continue
        got = mult.product(u, v)
        hdeg = F.by_id[u].hdeg + F.by_id[v].hdeg
        mdeg = tuple(a + b for a, b in zip(F.by_id[u].mdeg, F.by_id[v].mdeg))
        if set(u) & set(v):
            expected = Element(hdeg, mdeg, {})
        else:
            expected = Element(hdeg, mdeg, {union: shuffle_sign(u, v)})
        if got != expected:
            witnesses.append((u, v, got))
    return not witnesses, witnesses[:max_witnesses]


def nested_product(mult, seq):
    """Right-nested product g_{s1} * (g_{s2} * (... * g_{sk})) of basis
    elements given by their ids.  For non-associative multiplications
    the nesting matters; this fixes one convention."""
    F = mult.complex
    out = F.basis_element(seq[-1])
    for bid in reversed(seq[:-1]):
        out = mult.multiply(F.basis_element(bid), out)
    return out


def degree_one_generation(mult, max_witnesses=10):
    """Is every basis element a k-combination of squarefree parts of
    products of homological-degree-one elements?

    Requires every basis multidegree to be squarefree.  For each basis
    element in homological degree i >= 2 the test collects the
    squarefree parts of all right-nested i-fold products of hdeg-1
    basis elements with matching squarefree degree and asks whether the
    basis vector lies in their span.  Returns (ok, witnesses) where
    witnesses are uncovered basis ids.
    """
    F = mult.complex
    for blist in F.bases.values():
        for b in blist:
            if not is_squarefree(b.mdeg):
                raise ValueError(
                    f"degree-one generation needs squarefree basis degrees, got {b.mdeg}"
                )
    one = [b.bid for b in F.basis_at(1)]
    witnesses = []
    for i in range(2, F.max_hdeg + 1):
        if not F.basis_at(i):
            continue
        spans = {}
        for seq in iproduct(one, repeat=i):
            p = nested_product(mult, list(seq))
            if not p.coeffs:
                continue
            _, sq = squarefree_part(F, p)
            spans.setdefault(sq.mdeg, []).append(sq)
        for b in F.basis_at(i):
            window = set(strand_ids(F, i, b.mdeg))
            vectors = [
                {g: c for g, c in e.coeffs.items() if g in window}
                for e in spans.get(b.mdeg, [])
            ]
            if not linalg.in_span(vectors, {b.bid: ONE}):
                witnesses.append(b.bid)
    return not witnesses, witnesses[:max_witnesses]


def in_degree_one_span(mult, bid):
    """Is the given basis element an S-combination of right-nested
    products of homological-degree-one elements?

    No squarefreeness assumed: instead of squarefree parts this allows
    arbitrary monomial shifts, so a product contributes whenever its
    multidegree divides the target degree.  The membership test runs in
    the exact multidegree window of the basis element.
    """
    F = mult.complex
    b = F.by_id[bid]
    if b.hdeg <= 1:
        return True
    one = [x.bid for x in F.basis_at(1)]
    window = set(strand_ids(F, b.hdeg, b.mdeg))
    vectors = []
    for seq in iproduct(one, repeat=b.hdeg):
        p = nested_product(mult, list(seq))
        if not p.coeffs or not divides(p.mdeg, b.mdeg):
            continue
        vectors.append({g: c for g, c in p.coeffs.items() if g in window})
    return linalg.in_span(vectors, {bid: ONE})


@dataclass
class TaylorMap:
    """Algebra map from the Taylor complex onto a DGA structure on the
    minimal resolution of a squarefree ideal.

    The generator g_{(i,)} maps to the hdeg-1 basis element (i,); a
    subset g_A maps to the squarefree part of the right-nested product
    of its vertices.  images holds all basis images, including the
    unit.  The kernel in each homological degree and multidegree window
    is computed on demand; it is automatically a DG-ideal because the
    map is a chain and algebra map.
    """

    taylor: object
    taylor_mult: Multiplication
    target_mult: Multiplication
    images: dict

    @property
    def target(self):
        return self.target_mult.complex

    def image_of(self, f):
        """Push an element of the Taylor complex through the map."""
        return apply_rows({bid: self.images[bid].coeffs for bid in f.coeffs}, f, f.hdeg)

    def verify_chain_map(self):
        """Is the map graded (`grading_fault`) and a chain map?"""
        rows = {bid: img.coeffs for bid, img in self.images.items()}
        if grading_fault(self.taylor, self.target, rows, 0):
            return False
        return is_chain_map(self.taylor, self.target, rows)

    def verify_algebra_map(self):
        """phi(a *_T b) == phi(a) * phi(b) on all basis pairs; both
        products are graded commutative, so canonical pairs suffice."""
        for u, v in canonical_pairs(self.taylor):
            lhs = self.image_of(self.taylor_mult.product(u, v))
            rhs = self.target_mult.multiply(self.images[u], self.images[v])
            if lhs != rhs:
                return False
        return True

    def _window(self, hdeg, a, ids):
        """Columns of the map on the Taylor ids of the given hdeg whose
        degree divides a, restricted to the target ids `ids`."""
        ids = set(ids)
        return {
            bid: {w: c for w, c in self.images[bid].coeffs.items() if w in ids}
            for bid in strand_ids(self.taylor, hdeg, a)
        }

    def surjective(self):
        """Rank test per (hdeg, exact multidegree) group of the target
        basis: the images must span every graded piece."""
        groups = {}
        for i, blist in self.target.bases.items():
            if i == 0:
                continue
            for b in blist:
                groups.setdefault((i, b.mdeg), []).append(b.bid)
        for (i, a), exact in sorted(groups.items()):
            if linalg.rank(self._window(i, a, exact)) < len(exact):
                return False
        return True

    def kernel_dimension(self, hdeg, a):
        cols = self._window(hdeg, a, strand_ids(self.target, hdeg, a))
        return len(cols) - linalg.rank(cols)

    def kernel_vectors(self, hdeg, a):
        """Basis of the kernel in the (hdeg, a) window, as elements of
        the Taylor complex at multidegree a: combinations
        sum_j v_j x^(a - m_j) g_j that the map sends to zero."""
        cols = self._window(hdeg, a, strand_ids(self.target, hdeg, a))
        return [
            Element(hdeg, a, {g: vec[g] for g in cols if g in vec})
            for vec in linalg.nullspace(cols)
        ]


def taylor_algebra_map(ideal, mult):
    """Build the Taylor-algebra surjection onto an associative DGA
    structure on a minimal resolution of a squarefree ideal.

    Raises ValueError when the ideal is not squarefree, the
    multiplication fails any DGA axiom (associativity included), or its
    complex does not carry the generators and Taylor degrees of the ideal.
    """
    if not ideal.is_squarefree():
        raise ValueError("the Taylor algebra map needs a squarefree ideal")
    report = check_dga_axioms(mult)
    if not report.is_dga:
        raise ValueError(f"needs a full DGA structure: {report.summary()}")
    T = taylor_complex(ideal)
    MT = taylor_multiplication(T)
    F = mult.complex
    images = {(): F.unit()}
    for i in range(1, T.max_hdeg + 1):
        for b in T.basis_at(i):
            if i == 1:
                # hdeg-1 basis survives minimization (generator degrees
                # form an antichain, so no unit pivot exists there)
                if b.bid not in F.by_id:
                    raise ValueError(f"the generator {b.bid} is not a basis id of the resolution")
                images[b.bid] = F.basis_element(b.bid)
            else:
                p = nested_product(mult, [(j,) for j in b.bid])
                _, sq = squarefree_part(F, p)
                if sq.mdeg != b.mdeg:
                    raise ValueError(f"the image of {b.bid} lands in degree {sq.mdeg}, not {b.mdeg}")
                images[b.bid] = sq
    return TaylorMap(T, MT, mult, images)


@dataclass
class ObstructionReport:
    """Certificate that the minimal resolution of the path edge ideal
    (x1x2, x2x3, x3x4, x4x5, x5x6) carries no multigraded DGA structure.

    A DGA structure would present the minimal resolution as the Taylor
    complex modulo a DG-ideal J.  The two empty Betti windows force
    g_abc and g_cde into J; the nonzero saturation products then force
    g_abcd and g_bcde in as well, so the combination f of their
    products and differentials lies in J.  But f carries a nonzero
    coefficient on a Scarf face whose multidegree window contains no
    other hdeg-3 subset; the image of that face in the quotient is a
    basis vector, so f cannot map to zero.  Contradiction.

    All four triples supporting the relation part of f have Betti
    number 1 in their degree; the two that are Scarf faces with a
    one-element divisor window ({a,b,e} and {a,d,e}) each finish the
    argument on their own and are listed in scarf_witnesses.
    """

    betti_vanishing: bool
    saturation_products: bool
    combination: Element
    combination_matches: bool
    relation_degrees: bool
    scarf_witnesses: tuple
    nonzero_relation: bool

    @property
    def ok(self):
        return (
            self.betti_vanishing
            and self.saturation_products
            and self.combination_matches
            and self.relation_degrees
            and len(self.scarf_witnesses) >= 1
            and self.nonzero_relation
        )


PATH_SIX_GENERATORS = (
    (1, 1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 1, 1),
)

# f = (d g_abc) g_e - g_a (d g_cde) - x1 d g_bcde - x6 d g_abcd, expanded:
# x4 g_abe - x3 g_ade + x1 g_bde - x6 g_abd - x1x2 g_cde + x5x6 g_abc
_OBSTRUCTION_COMBINATION = Element(
    3,
    (1, 1, 1, 1, 1, 1),
    {
        (0, 1, 4): ONE,
        (0, 3, 4): -ONE,
        (1, 3, 4): ONE,
        (0, 1, 3): -ONE,
        (2, 3, 4): -ONE,
        (0, 1, 2): ONE,
    },
)


def avramov_obstruction(ideal):
    """Run the no-DGA-structure certificate for the 5-generator path
    edge ideal; raises ValueError on any other ideal."""
    expected = MonomialIdeal(6, PATH_SIX_GENERATORS)
    if (ideal.num_vars, ideal.generators) != (expected.num_vars, expected.generators):
        raise ValueError("the obstruction is specific to the path ideal x1x2, ..., x5x6")
    T = taylor_complex(ideal)
    MT = taylor_multiplication(T)
    table = betti_table(ideal)

    # the two windows below lcm(abc) and lcm(cde) are empty at hdeg 3,
    # so no correction terms are available there
    windows = ((1, 1, 1, 1, 0, 0), (0, 0, 1, 1, 1, 1))
    betti_vanishing = not any(
        i == 3 and divides(a, w)
        for (i, a) in table.entries
        for w in windows
    )

    # the products that saturate the two windows from below
    p1 = MT.product((0, 1, 2), (3,))
    p2 = MT.product((1,), (2, 3, 4))
    saturation_products = (
        p1.coeffs == {(0, 1, 2, 3): ONE}
        and p2.coeffs == {(1, 2, 3, 4): ONE}
    )

    g_a = T.basis_element((0,))
    g_e = T.basis_element((4,))
    d_abc = T.apply_diff(T.basis_element((0, 1, 2)))
    d_cde = T.apply_diff(T.basis_element((2, 3, 4)))
    f = MT.multiply(d_abc, g_e).sub(MT.multiply(g_a, d_cde))
    f = f.sub(T.apply_diff(T.basis_element((1, 2, 3, 4))).shifted((1, 0, 0, 0, 0, 0)))
    f = f.sub(T.apply_diff(T.basis_element((0, 1, 2, 3))).shifted((0, 0, 0, 0, 0, 1)))
    combination_matches = f == _OBSTRUCTION_COMBINATION

    faces = {tuple(sorted(w)) for w in scarf_complex(ideal).faces}
    triples = ((0, 1, 4), (0, 3, 4), (1, 3, 4), (0, 1, 3))
    relation_degrees = all(
        table.entries.get((3, ideal.lcm_of(t))) == 1 for t in triples
    )
    witnesses = []
    for t in triples:
        if t not in faces:
            continue
        window = [
            w for w in combinations(range(ideal.k), 3)
            if divides(ideal.lcm_of(w), ideal.lcm_of(t))
        ]
        if window == [t] and f.coeffs.get(t):
            witnesses.append(t)
    nonzero_relation = all(f.coeffs.get(t) for t in triples)

    return ObstructionReport(
        betti_vanishing,
        saturation_products,
        f,
        combination_matches,
        relation_degrees,
        tuple(witnesses),
        nonzero_relation,
    )


@dataclass
class HilbertConeReport:
    """Rank bookkeeping for an associative DGA minimal resolution.

    Tensoring the resolution with the fraction field of S gives a DGA
    over a field whose Hilbert function is the rank vector; the cycle
    subalgebra C splits it as rank_i = c_i + c_{i-1}, which forces the
    rank vector to be the f-vector of a cone.  cycle_dims holds the
    c_i = dim ker(d_i over the fraction field); they are pinned by
    exactness and certified by ranks: over the fraction field
    d_i = diag(x^deg) C_i diag(x^-deg) with C_i the scalar matrix, so
    rank d_i = rank C_i, and reaching the exactness-forced ranks
    certifies them.  cone_base is the deconvolved base f-vector, or
    None when none exists.
    """

    hilbert: tuple
    cone_base: tuple
    cycle_dims: tuple
    decomposition_ok: bool

    @property
    def passed(self):
        return self.cone_base is not None and self.decomposition_ok


def hilbert_cone_check(mult):
    """The rank vector of a minimal DGA resolution must be the f-vector
    of a cone; verify it together with the generic-rank computation
    that forces it.  Raises ValueError unless the multiplication passes
    all five axioms (the cone splitting needs the full algebra)."""
    report = check_dga_axioms(mult)
    if not report.is_dga:
        raise ValueError(f"hilbert_cone_check needs a full DGA: {report.summary()}")
    F = mult.complex
    hf = F.ranks()
    # exactness over the fraction field forces the ranks: the fraction
    # field kills S/I, so the complex becomes exact down to degree 0
    exp_rank = [0]
    for i in range(1, len(hf)):
        exp_rank.append(hf[i - 1] - exp_rank[i - 1])
    closes = hf[0] == 1 and (len(hf) == 1 or hf[-1] == exp_rank[-1])
    mats = F.matrices()
    certified = all(linalg.rank(mats[i]) == exp_rank[i] for i in range(1, len(hf)))
    # c_i = rank_i - exp_rank_i and exp_rank_i = c_{i-1} (with c_{-1} =
    # 0), so the splitting rank_i = c_i + c_{i-1} holds by construction
    cycles = tuple(hf[i] - exp_rank[i] for i in range(len(hf)))
    base = cone_deconvolve(tuple(hf))
    return HilbertConeReport(tuple(hf), base, cycles, certified and closes)


def relabel(complex_, mult, iso, target_ideal):
    """Transport a multiplication along an lcm-lattice isomorphism.

    iso maps every source multidegree that occurs (basis degrees and
    the bottom) to a multidegree over target_ideal's variables; it must
    be injective and preserve divisibility both ways on its domain.
    The relabeled complex keeps the basis ids and all scalar structure
    constants; supportiveness of the input guarantees the implied
    monomials stay polynomial, so it is required.

    Returns (relabeled complex, relabeled multiplication).
    """
    flag, witnesses = is_supportive(mult)
    if not flag:
        raise ValueError(
            f"relabeling needs a supportive multiplication; first witness {witnesses[:1]}"
        )
    dom = list(iso)
    values = [iso[a] for a in dom]
    if len(set(values)) != len(values):
        raise ValueError("relabeling map is not injective")
    for a in dom:
        for b in dom:
            if divides(a, b) != divides(iso[a], iso[b]):
                raise ValueError("relabeling map does not preserve divisibility")
    for b in complex_.by_id.values():
        if b.mdeg not in iso:
            raise ValueError(f"basis degree {b.mdeg} missing from the relabeling map")
    relabeled = complex_.with_degrees(
        lambda b: iso[b.mdeg], num_vars=target_ideal.num_vars
    )
    return relabeled, Multiplication(relabeled, {k: dict(v) for k, v in mult.table.items()})


@dataclass
class SupportiveMultiplication:
    """A minimal resolution of `ideal` carrying a supportive
    multiplication (unit, multigraded, commutative, Leibniz; built on
    the polarization when the ideal is not squarefree)."""

    ideal: MonomialIdeal
    polarization: object
    complex: object
    multiplication: Multiplication


def supportive_multiplication(ideal, cap=16):
    """Supportive multiplication on a minimal resolution of any
    monomial ideal.

    Squarefree ideals: any Leibniz multiplication on the minimal
    resolution is supportive (products can only involve squarefree
    degrees below the join).  Otherwise: polarize, solve on the
    squarefree side, and relabel along the depolarization isomorphism
    of lcm lattices.
    """
    if ideal.is_squarefree():
        res = minimal_resolution(ideal, cap=cap)
        m = leibniz_solution_space(res.complex).particular()
        return SupportiveMultiplication(ideal, None, res.complex, m)
    pol = polarize(ideal)
    res = minimal_resolution(pol.ideal, cap=cap)
    m = leibniz_solution_space(res.complex).particular()
    iso = pol.lattice_iso(lcm_lattice(pol.ideal))
    relabeled, m2 = relabel(res.complex, m, iso, ideal)
    return SupportiveMultiplication(ideal, pol, relabeled, m2)
