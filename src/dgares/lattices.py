"""lcm lattices, finite posets, and poset isomorphism search."""

from dataclasses import dataclass

from .ideals import join, divides, zero_degree, total_degree


class CapExceeded(ValueError):
    """A structure exceeded a configured size cap."""


@dataclass(frozen=True)
class Poset:
    """A finite poset on hashable elements with a precomputed order matrix.

    `up[i]` is the frozenset of indices j with elements[i] <= elements[j]
    (reflexive).
    """

    elements: tuple
    up: tuple

    @staticmethod
    def from_leq(elements, leq):
        elems = tuple(elements)
        ups = []
        for i, x in enumerate(elems):
            ups.append(frozenset(j for j, y in enumerate(elems) if leq(x, y)))
        return Poset(elems, tuple(ups))

    @property
    def n(self):
        return len(self.elements)

    def index(self, x):
        return self.elements.index(x)

    def le(self, x, y):
        return self.index(y) in self.up[self.index(x)]

    def le_idx(self, i, j):
        return j in self.up[i]

    def down(self, i):
        return frozenset(j for j in range(self.n) if i in self.up[j])


def _refine_colors(poset):
    # Weisfeiler-Leman style color refinement on the comparability structure.
    n = poset.n
    colors = [(len(poset.up[i]), len(poset.down(i))) for i in range(n)]
    while True:
        sigs = []
        for i in range(n):
            above = sorted(colors[j] for j in poset.up[i] if j != i)
            below = sorted(colors[j] for j in poset.down(i) if j != i)
            sigs.append((colors[i], tuple(above), tuple(below)))
        # canonicalize to small ints; ids must come from the sorted
        # signatures, not encounter order, so that two isomorphic posets
        # refine to the same ids regardless of element order
        table = {s: rank for rank, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def poset_isomorphic(p, q, cap=64):
    """Search for an order isomorphism p -> q.

    Returns the isomorphism as a dict {element of p -> element of q}, or
    None.  Raises CapExceeded when either side has more than `cap`
    elements (the backtracking is only tuned for small lattice-like
    posets).
    """
    if p.n > cap or q.n > cap:
        raise CapExceeded(f"poset size {max(p.n, q.n)} exceeds cap {cap}")
    if p.n != q.n:
        return None
    cp = _refine_colors(p)
    cq = _refine_colors(q)
    if sorted(cp) != sorted(cq):
        return None
    by_color_q = {}
    for j, c in enumerate(cq):
        by_color_q.setdefault(c, []).append(j)
    # handle rarest color classes first
    order = sorted(range(p.n), key=lambda i: (len(by_color_q.get(cp[i], ())), cp[i], i))
    mapping = [None] * p.n
    used = [False] * q.n

    def consistent(i, j):
        for a, b in enumerate(mapping):
            if b is None:
                continue
            if p.le_idx(i, a) != q.le_idx(j, b):
                return False
            if p.le_idx(a, i) != q.le_idx(b, j):
                return False
        return True

    def backtrack(pos):
        if pos == len(order):
            return True
        i = order[pos]
        for j in by_color_q.get(cp[i], ()):
            if used[j] or not consistent(i, j):
                continue
            mapping[i] = j
            used[j] = True
            if backtrack(pos + 1):
                return True
            mapping[i] = None
            used[j] = False
        return False

    if not backtrack(0):
        return None
    return {p.elements[i]: q.elements[mapping[i]] for i in range(p.n)}


@dataclass(frozen=True)
class LcmLattice:
    """All lcms of generator subsets, ordered by divisibility.

    elements are sorted by (total degree, lex); the bottom (empty join,
    the zero vector) is always present.  atoms maps each generator index
    to the position of its multidegree in elements.
    """

    ideal: object
    elements: tuple
    atoms: tuple

    @property
    def bottom(self):
        return zero_degree(self.ideal.num_vars)

    @property
    def top(self):
        return self.elements[-1]

    def to_poset(self):
        return Poset.from_leq(self.elements, divides)


def lcm_lattice(ideal):
    seen = {zero_degree(ideal.num_vars)}
    for g in ideal.generators:
        seen |= {join(e, g) for e in seen}
    elements = tuple(sorted(seen, key=lambda d: (total_degree(d), d)))
    atoms = tuple(elements.index(g) for g in ideal.generators)
    return LcmLattice(ideal, elements, atoms)

