"""From a cone simplicial complex to a minimal DGA resolution.

The route: ideal_from_cone_complex builds a squarefree monomial ideal
whose lcm lattice is the face poset of the complex (plus a top when one
is missing), checked on the lattice's atom sets; cone_morse_matching
pairs every non-face Taylor basis element with its apex partner;
verify_morse_matching checks the pairing is a valid acyclic matching
with degree-equal edges (acyclicity by the standard library's
graphlib.TopologicalSorter); morse_quotient cancels the matching,
transfers the Taylor multiplication, and checks that the matched span
really is a two-sided DG-ideal, so the quotient is again a DGA.  The quotient complex is minimal with ranks equal to
the f-vector of the input complex.
"""

from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import combinations

from . import linalg
from .complexes import strand_ids
from .ideals import MonomialIdeal, divides
from .lattices import atom_sets
from .minimize import cancel_pairs
from .multiplication import transfer_multiplication

ONE = Fraction(1)


def ideal_from_cone_complex(delta):
    """Squarefree monomial ideal whose lcm lattice is the face poset of
    delta plus a top element (the set of all vertices, already a face
    when delta is the full simplex).

    One variable per nonempty face; the generator for vertex j is the
    product of the variables at faces not containing j.  Then a subset
    W of vertices has lcm = product over faces p with W not a subset of
    p, so faces embed into the lcm lattice and every non-face hits the
    top.  Generator order equals vertex order, so the isomorphism is
    known: the atom sets of the lattice (the generators dividing each
    element) must be exactly the faces and the set of all vertices, and
    that is checked before returning.
    """
    k = delta.num_vertices
    if k < 1:
        raise ValueError("need at least one vertex")
    for j in range(k):
        if frozenset((j,)) not in delta.faces:
            raise ValueError(f"vertex {j} is not a face")
    if k == 1:
        # the construction below would give the unit monomial; a single
        # variable already has the right 2-chain lattice
        ideal = MonomialIdeal(1, ((1,),))
    else:
        face_vars = sorted(
            (tuple(sorted(f)) for f in delta.faces if f), key=lambda f: (len(f), f)
        )
        gens = []
        for j in range(k):
            gens.append(tuple(0 if j in p else 1 for p in face_vars))
        ideal = MonomialIdeal(len(face_vars), tuple(gens))
    if set(atom_sets(ideal).values()) != delta.faces | {frozenset(range(k))}:
        raise ValueError("lcm lattice does not match the face poset")
    return ideal


def cone_morse_matching(ideal, delta, apex):
    """Matching on Taylor basis ids of the ideal built from delta:
    every non-face W containing the apex pairs with W minus the apex.

    In a cone with this apex, adding or removing the apex maps
    non-faces to non-faces, so the pairing is perfect on non-faces and
    the unmatched ids are exactly the faces of delta.  Pairs come back
    as (lower, upper) in cancellation order.  Raises ValueError when the
    vertex count differs from the generator count or delta is no cone
    with this apex.
    """
    faces = {tuple(sorted(f)) for f in delta.faces}
    k = ideal.k
    if delta.num_vertices != k:
        raise ValueError(f"the complex has {delta.num_vertices} vertices but the ideal {k} generators")
    matching = []
    for size in range(1, k + 1):
        for w in combinations(range(k), size):
            if w in faces or apex not in w:
                continue
            lower = tuple(v for v in w if v != apex)
            if lower in faces:
                raise ValueError(f"{lower} is a face but {w} is not: no cone with apex {apex}")
            matching.append((lower, w))
    return matching


@dataclass
class MatchingReport:
    """Validity checks for a Morse matching on a free complex:
    disjointness of the pairs, existence of the matched differential
    edges, equal multidegrees along them (so cancellation stays
    multigraded), and acyclicity of the edge-reversed diagram."""

    disjoint: bool
    edges: bool
    equal_degrees: bool
    acyclic: bool

    @property
    def valid(self):
        return self.disjoint and self.edges and self.equal_degrees and self.acyclic


def verify_morse_matching(matching, complex_):
    seen = set()
    disjoint = True
    for lower, upper in matching:
        if lower in seen or upper in seen or lower == upper:
            disjoint = False
        seen.add(lower)
        seen.add(upper)

    edges = True
    equal_degrees = True
    for lower, upper in matching:
        bl = complex_.by_id.get(lower)
        bu = complex_.by_id.get(upper)
        if bl is None or bu is None or bu.hdeg != bl.hdeg + 1:
            edges = False
            continue
        if not complex_.diff_of(upper).get(lower):
            edges = False
        if bu.mdeg != bl.mdeg:
            equal_degrees = False

    # reversed diagram: matched edges point lower -> upper, all other
    # differential edges upper -> lower; a directed cycle kills the
    # Morse collapse
    matched = set(matching)
    graph = {bid: [] for bid in complex_.by_id}
    for lower, upper in matching:
        if upper in graph and lower in graph:
            graph[lower].append(upper)
    for g, row in complex_.diff.items():
        for h in row:
            if (h, g) not in matched:
                graph[g].append(h)
    try:
        TopologicalSorter(graph).prepare()
        acyclic = True
    except CycleError:
        acyclic = False

    return MatchingReport(disjoint, edges, equal_degrees, acyclic)


def in_matched_span(complex_, uppers, f):
    """Is f in the S-span of {g_W, dg_W : W an upper element}?  Tested
    in the strand of f's multidegree."""
    if not f.coeffs:
        return True
    window = set(strand_ids(complex_, f.hdeg, f.mdeg))
    vectors = []
    for w in uppers:
        bw = complex_.by_id[w]
        if bw.hdeg == f.hdeg and divides(bw.mdeg, f.mdeg):
            vectors.append({w: ONE})
        elif bw.hdeg == f.hdeg + 1 and divides(bw.mdeg, f.mdeg):
            vectors.append({h: c for h, c in complex_.diff_of(w).items() if h in window})
    return linalg.in_span(vectors, {g: c for g, c in f.coeffs.items() if g in window})


def dga_ideal_check(mult, matching, max_witnesses=10):
    """Is the matched span a two-sided DG-ideal?  It is closed under
    the differential by construction, so only products need checking:
    g_u * g_W and g_u * dg_W must stay in the span for every basis u
    and matched upper W.  Returns (ok, witnesses)."""
    T = mult.complex
    uppers = [u for (_, u) in matching]
    ids = T.positive_ids()
    witnesses = []
    for w in uppers:
        gw = T.basis_element(w)
        dgw = T.apply_diff(gw)
        for u in ids:
            gu = T.basis_element(u)
            for f in (gw, dgw):
                if not in_matched_span(T, uppers, mult.multiply(gu, f)):
                    witnesses.append((u, w))
                    break
    return not witnesses, witnesses[:max_witnesses]


def morse_quotient(taylor, mult, matching):
    """Cancel a verified matching, transfer the multiplication, and
    check the matched span is a DG-ideal (so the quotient inherits a
    DGA structure, not just a chain homotopy type).

    Returns (small complex, transferred multiplication, transfer data).
    Raises ValueError when a pair never becomes cancellable or the span
    fails the ideal check.
    """
    if mult.complex is not taylor:
        raise ValueError("the multiplication lives on another complex than the matching's")
    ok, wit = dga_ideal_check(mult, matching)
    if not ok:
        raise ValueError(f"matched span is not a DG-ideal; witness {wit[:1]}")
    small, transfer, leftover = cancel_pairs(taylor, matching)
    if leftover:
        raise ValueError(f"uncancellable pairs remain: {leftover[:3]}")
    return small, transfer_multiplication(mult, transfer), transfer
