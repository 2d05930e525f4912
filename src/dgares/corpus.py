"""Named ideals used throughout the tests, demos and the example
runner, plus seeded random generators for property sweeps.  Exponent
vectors are spelled out so the corpus is self-contained."""

from .ideals import MonomialIdeal, minimal_generators
from .simplicial import SimplicialComplex, cone


def tagged_four_cycle_ideal():
    """Edge ideal of a 4-cycle with two extra tag variables on a pair
    of opposite edges (6 variables).  The minimal resolution is the
    Scarf complex of length 3; the product of the antipodal generator
    pair (g_0, g_2) is not forced, giving a family of multiplications."""
    return MonomialIdeal(6, (
        (1, 1, 0, 0, 1, 0),
        (0, 1, 1, 0, 0, 0),
        (0, 0, 1, 1, 0, 1),
        (1, 0, 0, 1, 0, 0),
    ))


def taylor_equals_scarf_ideal():
    """x * (x, y, z): three generators whose Taylor complex is already
    the minimal resolution, so every Leibniz multiplication lives on
    the same complex and the solution space is a line."""
    return MonomialIdeal(3, ((2, 0, 0), (1, 1, 0), (1, 0, 1)))


def path_ideal(n=6):
    """Edge ideal of the path on n vertices (n-1 generators)."""
    if n < 2:
        raise ValueError(f"a path ideal needs n >= 2 vertices, got {n}")
    gens = []
    for i in range(n - 1):
        g = [0] * n
        g[i] = g[i + 1] = 1
        gens.append(tuple(g))
    return MonomialIdeal(n, tuple(gens))


def cycle_ideal(n=6):
    """Edge ideal of the n-cycle (n generators)."""
    if n < 3:
        raise ValueError(f"a cycle ideal needs n >= 3 vertices, got {n}")
    gens = []
    for i in range(n):
        g = [0] * n
        g[i] = g[(i + 1) % n] = 1
        gens.append(tuple(g))
    return MonomialIdeal(n, tuple(gens))


def strongly_generic_ideal():
    """x^2, xy, y^2z^2, zw, w^2 in four variables: strongly generic, so
    the Scarf complex (a cone with apex at the second generator) is the
    minimal resolution; no choice of multiplication on it is
    associative."""
    return MonomialIdeal(4, (
        (2, 0, 0, 0),
        (1, 1, 0, 0),
        (0, 2, 2, 0),
        (0, 0, 1, 1),
        (0, 0, 0, 2),
    ))


def cone_lattice_ideal():
    """Squarefree ideal whose lcm lattice is the face poset (plus top)
    of the Scarf complex of strongly_generic_ideal(), built through the
    cone construction; 5 generators in 19 variables."""
    from .complexes import scarf_complex
    from .morse import ideal_from_cone_complex

    return ideal_from_cone_complex(scarf_complex(strongly_generic_ideal()))


def catalog_ideals():
    """(label, ideal) pairs in catalog order; the labels are the ids
    accepted by the `examples run` command."""
    return (
        ("3.2", tagged_four_cycle_ideal()),
        ("3.3", taylor_equals_scarf_ideal()),
        ("3.8", path_ideal(6)),
        ("4.3", cycle_ideal(6)),
        ("5.1", strongly_generic_ideal()),
        ("6.8", cone_lattice_ideal()),
    )


def random_monomial_ideal(rng, max_gens=5, max_vars=6, max_exp=3, squarefree=False):
    """Random monomial ideal: sample monomials, keep the minimal ones.
    Always at least one generator."""
    n = rng.randint(2, max_vars)
    count = rng.randint(1, max_gens)
    mons = []
    for _ in range(count):
        while True:
            if squarefree:
                m = tuple(rng.randint(0, 1) for _ in range(n))
            else:
                m = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(m):
                break
        mons.append(m)
    return minimal_generators(mons, n)


def random_cone_complex(rng, max_base_vertices=4):
    """Cone over a random base complex: all base singletons plus a few
    random faces, downward closed, joined with a fresh apex.  Face sizes
    stay below b for b >= 3 so the base is rarely a full simplex."""
    b = rng.randint(1, max_base_vertices)
    faces = [(v,) for v in range(b)]
    cap = b if b <= 2 else b - 1
    for _ in range(rng.randint(0, 2 * b)):
        size = rng.randint(2, max(2, cap))
        faces.append(tuple(sorted(rng.sample(range(b), min(size, b)))))
    return cone(SimplicialComplex.from_faces(b, faces))
