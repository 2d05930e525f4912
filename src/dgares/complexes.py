"""Multigraded free complexes with scalarized differentials.

A complex stores, per homological degree, an ordered list of basis
elements carrying multidegrees, and the differential as scalar
coefficients only: the entry c on (g -> h) means the actual matrix
entry is c * x^(mdeg g - mdeg h).  Because monomial factors telescope
under composition, dated identities like d∘d = 0 reduce to exact scalar
identities, and homology in a fixed multidegree becomes plain linear
algebra over Q.

An element's `coeffs` is already a sparse vector {id: scalar}, and
`diff_matrix` hands d between two lists of basis ids to `linalg` as
stored, column by column: g maps to d(g) restricted to the target ids.
`strand` lists the basis ids of one multidegree strand, and
`homology_dims` reads the homology of such an id set off the ranks of
those columns.  `apply` is the one application of a sparse map
{id: {id: scalar}} (the differential, a transfer map, a homotopy) to a
sparse vector, and `apply_rows` wraps it for Elements.  Identities of
such maps are checked here once, on the rows of every basis element:
`is_chain_map` (dm = md) and `is_homotopy` (lhs = dh + hd, lhs given as
rows); `grading_fault` is the one grading rule, run on d, the transfer
maps and the Taylor algebra map, but not on the Laurent contraction,
whose entries may carry negative exponents by design.  The contraction
(`homotopy.Homotopy`) is a sparse row map too, and the Leibniz sweep
over basis pairs lives in `multiplication.leibniz_sweep`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .ideals import divides, is_squarefree, squarefree_cap, vec_sub
from .lattices import lcm_lattice
from .simplicial import SimplicialComplex

ONE = Fraction(1)


@dataclass(frozen=True)
class BasisElement:
    """bid is an opaque sortable id; Taylor-derived bases use the sorted
    tuple of generator indices, and the hdeg-0 generator is ()."""

    bid: tuple
    hdeg: int
    mdeg: tuple


class Element:
    """A homogeneous element of a free complex.

    Stored as (hdeg, mdeg, coeffs) where coeffs maps basis id -> scalar;
    the monomial on basis g is implied: x^(mdeg - mdeg g).  Over the
    polynomial ring those exponents are nonnegative; Laurent-context
    elements simply drop that constraint.
    """

    __slots__ = ("hdeg", "mdeg", "coeffs")

    def __init__(self, hdeg, mdeg, coeffs=None):
        self.hdeg = hdeg
        self.mdeg = tuple(mdeg)
        self.coeffs = {g: c for g, c in (coeffs or {}).items() if c}

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        if self.hdeg != other.hdeg or self.mdeg != other.mdeg:
            raise ValueError(
                f"cannot add elements of degrees {self.hdeg}, {self.mdeg} "
                f"and {other.hdeg}, {other.mdeg}"
            )
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return Element(self.hdeg, self.mdeg, out)

    def sub(self, other):
        return self.add(other.scale(-ONE))

    def scale(self, c):
        return Element(self.hdeg, self.mdeg, {g: c * v for g, v in self.coeffs.items()})

    def neg(self):
        return self.scale(-ONE)

    def shifted(self, m):
        """Multiply by the monomial x^m (multidegree translation)."""
        return Element(self.hdeg, tuple(a + b for a, b in zip(self.mdeg, m)), self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.hdeg == other.hdeg
            and self.mdeg == other.mdeg
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = ", ".join(f"{c}*{g}" for g, c in sorted(self.coeffs.items()))
        return f"Element(hdeg={self.hdeg}, mdeg={self.mdeg}, [{terms}])"


class FreeComplex:
    """bases: {hdeg: ordered list of BasisElement};
    diff: {source id: {target id: scalar}} with one drop in hdeg per entry."""

    __slots__ = ("num_vars", "bases", "diff", "augmented", "by_id")

    def __init__(self, num_vars, bases, diff, augmented=True):
        self.num_vars = num_vars
        self.bases = {i: list(b) for i, b in bases.items() if b}
        self.diff = {g: {h: c for h, c in row.items() if c} for g, row in diff.items()}
        self.diff = {g: row for g, row in self.diff.items() if row}
        self.augmented = augmented
        self.by_id = {}
        for blist in self.bases.values():
            for b in blist:
                if b.bid in self.by_id:
                    raise ValueError(f"duplicate basis id {b.bid}")
                self.by_id[b.bid] = b
        self.validate()

    # -- structure ---------------------------------------------------------

    @property
    def max_hdeg(self):
        return max(self.bases) if self.bases else 0

    def basis_at(self, i):
        return self.bases.get(i, [])

    def ranks(self):
        return tuple(len(self.basis_at(i)) for i in range(self.max_hdeg + 1))

    def diff_of(self, bid):
        return self.diff.get(bid, {})

    def basis_element(self, bid):
        b = self.by_id[bid]
        return Element(b.hdeg, b.mdeg, {bid: ONE})

    def positive_ids(self):
        """Basis ids of positive homological degree, by hdeg and then in
        basis order."""
        return [b.bid for i, blist in sorted(self.bases.items()) if i >= 1 for b in blist]

    def unit(self):
        bottom = self.basis_at(0)
        if not self.augmented or len(bottom) != 1:
            raise ValueError("only an augmented complex with one hdeg-0 generator has a unit")
        return Element(0, bottom[0].mdeg, {bottom[0].bid: ONE})

    def validate(self):
        if self.augmented:
            bottom = self.basis_at(0)
            if len(bottom) != 1 or any(bottom[0].mdeg):
                raise ValueError("augmented complex needs exactly one hdeg-0 generator in degree 0")
        fault = grading_fault(self, self, self.diff, -1)
        if fault:
            raise ValueError(f"diff entry {fault}")
        for g, row in self.diff.items():
            if apply(self.diff, row):
                raise ValueError(f"d∘d != 0 at {g}")

    def apply_diff(self, f):
        return apply_rows(self.diff, f, f.hdeg - 1)

    def restricted_to(self, ids):
        """Subcomplex on the given basis ids; the differential must not
        leave the id set."""
        ids = set(ids)
        bases = {
            i: [b for b in blist if b.bid in ids] for i, blist in self.bases.items()
        }
        diff = {}
        for g in ids:
            row = self.diff_of(g)
            if not row:
                continue
            for h in row:
                if h not in ids:
                    raise ValueError(f"differential leaves the subcomplex at {g}->{h}")
            diff[g] = dict(row)
        return FreeComplex(self.num_vars, bases, diff, augmented=self.augmented)

    def with_degrees(self, mdeg_map, num_vars=None):
        """Same ids and scalar differential, new multidegrees."""
        n = self.num_vars if num_vars is None else num_vars
        bases = {
            i: [BasisElement(b.bid, b.hdeg, mdeg_map(b)) for b in blist]
            for i, blist in self.bases.items()
        }
        return FreeComplex(n, bases, self.diff, augmented=self.augmented)

    def matrices(self):
        """{i: columns of d_i : F_i -> F_{i-1}} over the full bases, in
        hdeg-i basis order."""
        ids = {i: [b.bid for b in blist] for i, blist in self.bases.items()}
        return {
            i: diff_matrix(self, ids.get(i - 1, []), ids.get(i, []))
            for i in range(1, self.max_hdeg + 1)
        }


# -- constructions ---------------------------------------------------------


def taylor_complex(ideal, cap=16):
    """The Taylor complex of a monomial ideal.

    Basis g_W per subset W of generator indices, deg g_W = lcm(W),
    d(g_W) = sum over m in W of (-1)^pos * (lcm W / lcm W-m) * g_(W-m)
    where pos counts the generators of W preceding m in input order.
    """
    k = ideal.k
    if k > cap:
        raise ValueError(f"{k} generators exceed the Taylor cap of {cap}")
    bases = {}
    diff = {}
    for size in range(k + 1):
        blist = []
        for w in combinations(range(k), size):
            mdeg = ideal.lcm_of(w)
            blist.append(BasisElement(w, size, mdeg))
            if size >= 1:
                row = {}
                for pos in range(size):
                    sub = w[:pos] + w[pos + 1:]
                    row[sub] = Fraction(-1) ** pos
                diff[w] = row
        bases[size] = blist
    return FreeComplex(ideal.num_vars, bases, diff)


def scarf_complex(ideal):
    """Subsets of generators whose lcm is unique among all subsets."""
    k = ideal.k
    multiplicity = {}
    for size in range(k + 1):
        for w in combinations(range(k), size):
            d = ideal.lcm_of(w)
            multiplicity[d] = multiplicity.get(d, 0) + 1
    faces = set()
    for size in range(k + 1):
        for w in combinations(range(k), size):
            if multiplicity[ideal.lcm_of(w)] == 1:
                faces.add(frozenset(w))
    # unique lcms are closed under subsets
    for f in faces:
        for v in f:
            if f - {v} not in faces:
                raise ValueError(f"Scarf faces are not closed under subsets at {sorted(f)}")
    return SimplicialComplex(k, frozenset(faces))


def algebraic_scarf(ideal):
    """The Taylor subcomplex spanned by the Scarf faces."""
    delta = scarf_complex(ideal)
    t = taylor_complex(ideal)
    ids = [tuple(sorted(f)) for f in delta.faces]
    return t.restricted_to(ids)


def lyubeznik(ideal, order):
    """Taylor subcomplex on the rooted sets for a total order on generators.

    `order` is a permutation of the generator indices listing them from
    smallest to largest.  W is rooted when for every tail T of W (in
    that order) no generator strictly below min(T) divides lcm(T).
    """
    k = ideal.k
    if sorted(order) != list(range(k)):
        raise ValueError(f"order {order} is not a permutation of 0..{k - 1}")
    pos = {g: p for p, g in enumerate(order)}
    t = taylor_complex(ideal)

    def rooted(w):
        ws = sorted(w, key=lambda g: pos[g])
        for i, head in enumerate(ws):
            tail_lcm = ideal.lcm_of(ws[i:])
            for q in range(k):
                if pos[q] < pos[head] and divides(ideal.generators[q], tail_lcm):
                    return False
        return True

    ids = [w for size in range(k + 1) for w in combinations(range(k), size) if rooted(w)]
    return t.restricted_to(ids)


# -- graded strands and homology ------------------------------------------


def strand(complex_, a):
    """The degree-a strand: {hdeg: basis ids whose degree divides a},
    with empty hdegs left out."""
    return {i: ids for i in complex_.bases if (ids := strand_ids(complex_, i, a))}


def homology_dims(complex_, ids):
    """{i: dim_k H_i} of the piece of the complex on the basis ids
    {hdeg: ids} (a strand, or the ids of one exact degree), with d
    between consecutive hdegs restricted to those ids."""
    ranks = {
        i: linalg.rank(diff_matrix(complex_, ids.get(i - 1, []), cols))
        for i, cols in ids.items()
        if i >= 1
    }
    return {
        i: len(ids.get(i, [])) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        for i in range(max(ids, default=-1) + 1)
    }


def exactness_test_degrees(ideal):
    """All lcm-lattice degrees.  The lattice holds the lcm of every
    subset of generators, so it is already closed under joins."""
    return sorted(lcm_lattice(ideal).elements)


def is_resolution(complex_, ideal):
    """Does the complex resolve S/I?  Checked degreewise on the lcm
    lattice: strands must be exact in positive hdeg, and H_0 must be
    k exactly when x^a is outside the ideal."""
    if not complex_.augmented:
        return False
    for a in exactness_test_degrees(ideal):
        dims = homology_dims(complex_, strand(complex_, a))
        expected_h0 = 0 if ideal.contains_monomial(a) else 1
        if dims.get(0, 0) != expected_h0:
            return False
        if any(d != 0 for i, d in dims.items() if i >= 1):
            return False
    return True


def is_minimal(complex_):
    """No differential entry between equal multidegrees (no unit entries)."""
    for g, row in complex_.diff.items():
        src = complex_.by_id[g]
        for h in row:
            if complex_.by_id[h].mdeg == src.mdeg:
                return False
    return True


# -- squarefree part -------------------------------------------------------


def squarefree_part(complex_, f):
    """Factor f = x^m * f' with deg f' = (deg f) wedge (1,...,1).

    Defined for complexes with squarefree basis degrees; k-linear on
    each multidegree (but not S-linear).  Returns (m, f').
    """
    for g in f.coeffs:
        if not is_squarefree(complex_.by_id[g].mdeg):
            raise ValueError(f"basis degree of {g} is not squarefree")
    cap = squarefree_cap(f.mdeg)
    m = vec_sub(f.mdeg, cap)
    return m, Element(f.hdeg, cap, f.coeffs)


# -- misc helpers ----------------------------------------------------------


def strand_ids(complex_, hdeg, a):
    """Basis ids at hdeg whose degree divides a: the degree-a strand."""
    return [b.bid for b in complex_.basis_at(hdeg) if divides(b.mdeg, a)]


def canonical_pairs(complex_):
    """Basis pairs (u, v) with u <= v, both of positive hdeg, odd
    squares excluded, sorted by total hdeg then by id."""
    ids = complex_.positive_ids()
    pairs = list(combinations(sorted(ids), 2))
    pairs += [(u, u) for u in ids if complex_.by_id[u].hdeg % 2 == 0]

    def level(pair):
        u, v = pair
        return complex_.by_id[u].hdeg + complex_.by_id[v].hdeg

    return sorted(pairs, key=lambda p: (level(p), p))


# -- sparse maps -----------------------------------------------------------


_HDEG_STEP = {-1: "drop hdeg by one", 0: "keep its hdeg", 1: "raise hdeg by one"}


def grading_fault(src, tgt, rows, shift):
    """The first entry g -> h of the sparse map rows, from src's basis
    to tgt's, that names an unknown id, does not move hdeg by `shift`,
    or has mdeg h not dividing mdeg g (a non-polynomial implied
    monomial), as a message; None when every entry is graded."""
    for g, row in rows.items():
        for h in row:
            if g not in src.by_id or h not in tgt.by_id:
                unknown = h if g in src.by_id else g
                return f"{g}->{h} names the unknown basis id {unknown}"
            bg, bh = src.by_id[g], tgt.by_id[h]
            if bh.hdeg != bg.hdeg + shift:
                return f"{g}->{h} does not {_HDEG_STEP[shift]}"
            if not divides(bh.mdeg, bg.mdeg):
                return f"{g}->{h} violates multigrading"
    return None


def diff_matrix(complex_, rows, cols):
    """Columns of d from the ids `cols` to the ids `rows`: g maps to
    d(g) with the entries landing outside `rows` left out."""
    rows = set(rows)
    return {g: {h: c for h, c in complex_.diff_of(g).items() if h in rows} for g in cols}


def add_scaled(acc, c, row):
    """acc += c * row on sparse vectors of plain scalars."""
    for w, x in row.items():
        acc[w] = acc.get(w, 0) + c * x


def apply(rows, vec):
    """The image of the sparse vector vec = {id: scalar} under the
    sparse map rows = {id: {id: scalar}}, with zero entries dropped; a
    missing row reads as zero."""
    out = {}
    for g, c in vec.items():
        if c:
            for h, v in rows.get(g, {}).items():
                out[h] = out.get(h, 0) + c * v
    return {h: c for h, c in out.items() if c}


def apply_rows(rows, f, hdeg):
    """`apply` on an Element: the image at hdeg, in f's multidegree."""
    return Element(hdeg, f.mdeg, apply(rows, f.coeffs))


def is_chain_map(src, tgt, rows):
    """Does the degree-preserving sparse map rows from src to tgt
    commute with the differentials on every basis element of src?"""
    return all(
        apply(tgt.diff, rows.get(g, {})) == apply(rows, src.diff_of(g)) for g in src.by_id
    )


def is_homotopy(complex_, rows, lhs):
    """Is lhs = dh + hd on every basis element, for the sparse maps h =
    rows raising hdeg by one and lhs?  A missing row reads as zero."""
    for g in complex_.by_id:
        residual = dict(lhs.get(g, {}))
        add_scaled(residual, -ONE, apply(complex_.diff, rows.get(g, {})))
        add_scaled(residual, -ONE, apply(rows, complex_.diff_of(g)))
        if any(residual.values()):
            return False
    return True
