"""Abstract simplicial complexes, f-vectors, and cone detection.

Vertices are 0-based ints.  A complex is stored as the full set of
faces (frozensets), downward closed, containing the empty face whenever
the complex is nonempty.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb


@dataclass(frozen=True)
class SimplicialComplex:
    num_vertices: int
    faces: frozenset

    def __post_init__(self):
        for f in self.faces:
            for v in f:
                if not 0 <= v < self.num_vertices:
                    raise ValueError(f"vertex {v} out of range")
            for v in f:
                if f - {v} not in self.faces:
                    raise ValueError(f"faces not downward closed at {set(f)}")
        if self.faces and frozenset() not in self.faces:
            raise ValueError("nonempty complex must contain the empty face")

    @staticmethod
    def from_faces(num_vertices, faces):
        """Downward closure of the given generating faces."""
        closed = {frozenset()}
        stack = [frozenset(f) for f in faces]
        while stack:
            f = stack.pop()
            if f in closed:
                continue
            closed.add(f)
            for v in f:
                stack.append(f - {v})
        return SimplicialComplex(num_vertices, frozenset(closed))

    def vertices(self):
        return sorted(v for v in range(self.num_vertices) if frozenset([v]) in self.faces)

    def dim(self):
        return max((len(f) for f in self.faces), default=0) - 1

    def facets(self):
        out = []
        for f in self.faces:
            if not any(f < g for g in self.faces):
                out.append(f)
        return sorted(out, key=lambda f: (len(f), sorted(f)))


def f_vector(complex_):
    """(f_0, f_1, ...) with f_i = number of faces of cardinality i."""
    if not complex_.faces:
        return ()
    top = max(len(f) for f in complex_.faces)
    counts = [0] * (top + 1)
    for f in complex_.faces:
        counts[len(f)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def cone(complex_, apex=None):
    """Explicit apex join: every face F gains a companion F + {apex}.

    Default apex is a fresh vertex.
    """
    if apex is None:
        apex = complex_.num_vertices
    n = max(complex_.num_vertices, apex + 1)
    faces = set(complex_.faces) | {frozenset()}
    new = faces | {f | {apex} for f in faces}
    return SimplicialComplex(n, frozenset(new))


def is_cone(complex_):
    """Smallest apex vertex if the complex is a cone, else None."""
    for v in complex_.vertices():
        if all(f | {v} in complex_.faces for f in complex_.faces):
            return v
    return None


def _cascade(value, rank):
    """Binomial representation of value at the given rank.

    value = C(a_r, r) + C(a_{r-1}, r-1) + ... with a_r > a_{r-1} > ... >= index.
    Returns the list of (a, r) pairs.
    """
    rep = []
    r = rank
    rest = value
    while rest > 0 and r >= 1:
        a = r
        while comb(a + 1, r) <= rest:
            a += 1
        rep.append((a, r))
        rest -= comb(a, r)
        r -= 1
    if rest:
        raise ValueError(f"no binomial representation of {value} at rank {rank}")
    return rep


def _shadow_bound(value, rank):
    """Max number of (rank+1)-sets whose rank-shadows fit in `value` sets."""
    return sum(comb(a, r + 1) for a, r in _cascade(value, rank))


def kruskal_katona_check(f):
    """Is f the f-vector of some simplicial complex?

    Convention: f[0] = 1 counts the empty face, f[i] counts faces of
    cardinality i.  Trailing zeros are tolerated.
    """
    f = tuple(f)
    if not f or f[0] != 1:
        return False
    if any(x < 0 for x in f):
        return False
    for i in range(1, len(f) - 1):
        if f[i] == 0:
            if any(x != 0 for x in f[i + 1:]):
                return False
            break
        if f[i + 1] > _shadow_bound(f[i], i):
            return False
    return True


def cone_deconvolve(f):
    """Try to write f as the f-vector of a cone: f_i = g_i + g_{i-1}.

    Returns the base vector g on success, None on failure.  The
    all-faces count of the base must be exactly half, which forces the
    final carry to vanish; g must itself pass kruskal_katona_check.
    The degenerate vector (1,) is rejected: a cone has at least one
    vertex.
    """
    f = tuple(f)
    if len(f) < 2 or f[0] != 1:
        return None
    g = [1]
    for i in range(1, len(f) - 1):
        nxt = f[i] - g[i - 1]
        if nxt < 0:
            return None
        g.append(nxt)
    carry = f[-1] - g[-1]
    if carry != 0:
        return None
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    g = tuple(g)
    if not kruskal_katona_check(g):
        return None
    return g


def is_cone_fvector(f):
    return cone_deconvolve(f) is not None


def colex_complex(f):
    """The compressed family realizing f when one exists: first f_i
    cardinality-i subsets of N in colexicographic order.  Returns a
    SimplicialComplex or None if the family is not downward closed.
    """
    f = tuple(f)
    if not f or f[0] != 1:
        return None
    chosen = {frozenset()}
    top_vertex = 0
    for i in range(1, len(f)):
        count = f[i]
        if count == 0:
            if any(x != 0 for x in f[i:]):
                return None
            break
        sets = _first_colex(count, i)
        if sets is None:
            return None
        for s in sets:
            top_vertex = max(top_vertex, max(s) + 1)
        chosen |= set(sets)
    for face in chosen:
        for v in face:
            if face - {v} not in chosen:
                return None
    return SimplicialComplex(max(top_vertex, 1), frozenset(chosen))


def _first_colex(count, card):
    out = []
    universe = card
    while comb(universe, card) < count:
        universe += 1
    for s in sorted(combinations(range(universe), card), key=lambda t: tuple(reversed(t))):
        out.append(frozenset(s))
        if len(out) == count:
            break
    return out if len(out) == count else None
