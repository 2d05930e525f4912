"""Simplicial complexes, f-vectors, and realizability bounds."""

from functools import lru_cache
from itertools import combinations, product

import pytest

from dgares.simplicial import (
    SimplicialComplex,
    colex_complex,
    cone,
    cone_deconvolve,
    f_vector,
    is_cone,
    is_cone_fvector,
    kruskal_katona_check,
)


def trim(f):
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return tuple(f)


@lru_cache(maxsize=None)
def exhaustive_fvectors(n):
    """f-vectors of every simplicial complex on n labeled vertices.

    Brute DFS over downward closed families of nonempty subsets; kept
    deliberately independent of the package's counting code so the two
    can be compared.  Returns (set of trimmed f-vectors, family count).
    """
    subsets = sorted(
        (frozenset(c) for size in range(1, n + 1) for c in combinations(range(n), size)),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    out = set()
    chosen = set()
    leaves = 0

    def record():
        nonlocal leaves
        leaves += 1
        counts = [0] * (n + 1)
        counts[0] = 1
        for s in chosen:
            counts[len(s)] += 1
        out.add(trim(counts))

    def walk(pos):
        if pos == len(subsets):
            record()
            return
        s = subsets[pos]
        walk(pos + 1)
        if all(len(t) == 0 or t in chosen for t in (s - {v} for v in s)):
            chosen.add(s)
            walk(pos + 1)
            chosen.discard(s)

    walk(0)
    return frozenset(out), leaves


def candidate_box(n):
    """All vectors (1, a_1, ..., a_n) inside the binomial bounds."""
    ranges = [range(comb_count(n, i) + 1) for i in range(1, n + 1)]
    for tail in product(*ranges):
        yield (1,) + tail


def comb_count(n, k):
    from math import comb

    return comb(n, k)


def test_from_faces_closes_downward():
    delta = SimplicialComplex.from_faces(4, [(0, 1, 2), (2, 3)])
    assert frozenset({0, 1}) in delta.faces
    assert frozenset({3}) in delta.faces
    assert frozenset() in delta.faces
    assert f_vector(delta) == (1, 4, 4, 1)


def test_unclosed_face_set_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex(3, frozenset({frozenset({0, 1}), frozenset()}))
    with pytest.raises(ValueError):
        # nonempty family must contain the empty face
        SimplicialComplex(2, frozenset({frozenset({0})}))


def test_accessors():
    delta = SimplicialComplex.from_faces(5, [(0, 1), (1, 2), (4,)])
    assert delta.vertices() == [0, 1, 2, 4]
    assert delta.dim() == 1
    assert sorted(tuple(sorted(f)) for f in delta.facets()) == [(0, 1), (1, 2), (4,)]


def test_f_vector_knowns():
    triangle_boundary = SimplicialComplex.from_faces(3, [(0, 1), (1, 2), (0, 2)])
    assert f_vector(triangle_boundary) == (1, 3, 3)
    full = SimplicialComplex.from_faces(3, [(0, 1, 2)])
    assert f_vector(full) == (1, 3, 3, 1)
    point = SimplicialComplex.from_faces(1, [(0,)])
    assert f_vector(point) == (1, 1)


def test_cone_convolves_f_vector():
    base = SimplicialComplex.from_faces(3, [(0, 1), (1, 2), (0, 2)])
    c = cone(base)
    f = f_vector(base)
    g = f_vector(c)
    padded = tuple(f) + (0,)
    shifted = (0,) + tuple(f)
    assert g == tuple(a + b for a, b in zip(padded, shifted))
    assert is_cone(c) == 3  # fresh apex gets the next label
    assert is_cone(base) is None
    # a full simplex is a cone over any vertex
    full = SimplicialComplex.from_faces(3, [(0, 1, 2)])
    assert is_cone(full) == 0


def test_cone_deconvolve_inverts_cone():
    for faces in [[(0, 1), (1, 2)], [(0, 1, 2)], [(0,), (1,)], [(0, 1), (2, 3)]]:
        base = SimplicialComplex.from_faces(4, faces)
        assert cone_deconvolve(f_vector(cone(base))) == f_vector(base)


def test_kruskal_katona_spot_values():
    assert kruskal_katona_check((1,))
    assert kruskal_katona_check((1, 4, 5, 2))
    assert kruskal_katona_check((1, 5, 10, 10, 5, 1))
    assert not kruskal_katona_check((1, 6, 9, 6, 2))
    assert not kruskal_katona_check((1, 2, 2))
    assert not kruskal_katona_check((1, 5, 11))
    assert not kruskal_katona_check((1, 2, 0, 1))  # zero then nonzero
    assert not kruskal_katona_check((2, 1))
    assert not kruskal_katona_check(())
    assert not kruskal_katona_check((1, -1))
    assert kruskal_katona_check((1, 3, 2, 0, 0))  # trailing zeros fine


def test_kruskal_katona_matches_exhaustive_enumeration():
    realizable, leaves = exhaustive_fvectors(5)
    # independent structural check: count of downward closed families
    # containing the empty face on 5 labeled points
    assert leaves == 7580
    for v in candidate_box(5):
        assert kruskal_katona_check(v) == (trim(v) in realizable), v


def test_cone_fvector_matches_exhaustive_enumeration():
    bases, _ = exhaustive_fvectors(4)
    cones = set()
    for f in bases:
        padded = tuple(f) + (0,)
        shifted = (0,) + tuple(f)
        cones.add(trim(a + b for a, b in zip(padded, shifted)))
    for v in candidate_box(5):
        assert is_cone_fvector(v) == (trim(v) in cones), v


def test_cone_fvector_spot_values():
    assert not is_cone_fvector((1, 6, 9, 6, 2))
    assert is_cone_fvector((1, 4, 5, 2))
    assert not is_cone_fvector((1,))  # a cone has at least one vertex
    assert is_cone_fvector((1, 1))


def test_colex_realizes_every_admissible_vector():
    realizable, _ = exhaustive_fvectors(5)
    for f in realizable:
        delta = colex_complex(f)
        assert delta is not None, f
        assert f_vector(delta) == trim(f)
    assert colex_complex((1, 6, 9, 6, 2)) is None
    assert colex_complex((1, 2, 2)) is None
