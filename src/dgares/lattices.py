"""lcm lattices, and isomorphisms of degree sets read off their atoms.

An lcm lattice is atomistic and its atoms are the generators.  For a
degree a of the lattice let atoms(a) = {i : g_i divides a}; then
a = lcm(atoms(a)), so a divides b exactly when atoms(a) is a subset of
atoms(b).  A degree set that holds every generator (the whole lattice,
or the degrees of the Betti numbers of S/I) is therefore isomorphic to
its family of atom sets ordered by inclusion, and every isomorphism
sends atoms to atoms.  So two such sets are isomorphic exactly when a
bijection of generator indices maps one family onto the other; that
bijection is all `atom_isomorphism` searches for.
"""

from dataclasses import dataclass

from .ideals import join, divides, zero_degree, total_degree


@dataclass(frozen=True)
class LcmLattice:
    """All lcms of generator subsets, ordered by divisibility.

    elements are sorted by (total degree, lex); the bottom (empty join,
    the zero vector) is always present.
    """

    ideal: object
    elements: tuple


def lcm_lattice(ideal):
    seen = {zero_degree(ideal.num_vars)}
    for g in ideal.generators:
        seen |= {join(e, g) for e in seen}
    elements = tuple(sorted(seen, key=lambda d: (total_degree(d), d)))
    return LcmLattice(ideal, elements)


def atom_sets(ideal, degrees=None):
    """{degree: frozenset of the indices i with generator i dividing it},
    over `degrees` (default: the lcm lattice of the ideal)."""
    if degrees is None:
        degrees = lcm_lattice(ideal).elements
    gens = ideal.generators
    return {a: frozenset(i for i, g in enumerate(gens) if divides(g, a)) for a in degrees}


def _generator_count(family):
    k = len(frozenset().union(*family))
    if not all(frozenset((i,)) in family for i in range(k)):
        raise ValueError("the degree set must hold every generator")
    return k


def _invariants(family, k):
    """Per generator, the sorted sizes of the sets holding it; per pair
    of generators, the size of the smallest set holding both (0: none)."""
    signature = [sorted(len(s) for s in family if i in s) for i in range(k)]
    near = [[0] * k for _ in range(k)]
    for s in sorted(family, key=len):
        for i in s:
            for j in s:
                if not near[i][j]:
                    near[i][j] = len(s)
    return signature, near


def atom_isomorphism(p, q):
    """An order isomorphism between two degree sets given by their atom
    sets (see `atom_sets`), as {degree of p: degree of q}, or None.

    Each side must hold every one of its generators, {i} for i < k.
    Source generators are assigned in index order, and target generators
    are tried in index order, so the identity wins when it works.  A
    candidate is skipped when its signature or the smallest set holding
    it with an assigned generator differs from the source's; a bijection
    counts only when it maps the whole family of p onto that of q.
    """
    fp, fq = set(p.values()), set(q.values())
    k, kq = _generator_count(fp), _generator_count(fq)
    if len(fp) != len(fq) or k != kq:
        return None
    sig_p, near_p = _invariants(fp, k)
    sig_q, near_q = _invariants(fq, k)
    sigma = []

    def extend():
        i = len(sigma)
        if i == k:
            return {frozenset(sigma[a] for a in s) for s in fp} == fq
        for j in range(k):
            if j in sigma or sig_q[j] != sig_p[i]:
                continue
            if any(near_q[j][b] != near_p[i][a] for a, b in enumerate(sigma)):
                continue
            sigma.append(j)
            if extend():
                return True
            sigma.pop()
        return False

    if not extend():
        return None
    by_set = {s: b for b, s in q.items()}
    return {a: by_set[frozenset(sigma[i] for i in s)] for a, s in p.items()}
