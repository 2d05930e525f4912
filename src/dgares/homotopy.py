"""Contracting homotopies of scalarized resolutions and the products
they induce.

Reading only the scalar coefficients of a resolution of S/I gives an
exact complex of Q-vector spaces: after inverting all variables the
ideal contains units, so the localized complex resolves zero, and every
multidegree strand of it is the full scalar complex.  A contraction s
of that complex (ds + sd = id and ss = 0, which give sds = s) turns
each Leibniz right-hand side into a product, u*v := s(du * v +
(-1)^|u| u * dv), level by level.  The table is a DGA whose implied
monomials may carry negative exponents; shifting every positive-degree
basis degree by the lcm of the generators makes them polynomial again.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .complexes import FreeComplex, add_scaled, apply, is_homotopy
from .ideals import scale_ideal, vec_add
from .minimize import minimal_resolution
from .multiplication import Multiplication, leibniz_sweep

ONE = Fraction(1)


class Homotopy:
    """A contraction of the scalar complex, stored as the sparse row map
    sigma = {id at hdeg i: {id at hdeg i+1: scalar}}, with
    d sigma + sigma d = id and sigma sigma = 0 (see `verify`)."""

    __slots__ = ("complex", "sigma")

    def __init__(self, complex_, sigma):
        self.complex = complex_
        self.sigma = sigma

    def verify(self):
        """Exact check, on the rows of every basis element, of the two
        contraction identities d sigma + sigma d = id and sigma sigma =
        0.  Given the first, sigma d sigma = sigma - sigma sigma d and
        sigma sigma = (sigma sigma d) sigma + sigma (sigma sigma d), so
        sigma d sigma = sigma holds exactly when sigma sigma = 0 does
        and needs no check of its own."""
        F, sigma = self.complex, self.sigma
        if not is_homotopy(F, sigma, {g: {g: ONE} for g in F.by_id}):
            return False
        return not any(apply(sigma, sigma.get(g, {})) for g in F.by_id)


def contracting_homotopy(complex_):
    """Build a contraction of the scalar complex.

    At each hdeg i the pivot columns g of d_{i+1} span a complement V of
    ker d_{i+1}, and exactness forces Q^{n_i} = d(V) + V_i with V_i
    spanned by the pivot ids of d_i; sigma inverts d on the first
    summand and kills the second.  Raises when the scalar complex is
    not exact, which means the input was not a resolution."""
    mats = complex_.matrices()
    pivots = {i: linalg.pivots(cols) for i, cols in mats.items()}
    sigma = {}
    for i in range(complex_.max_hdeg + 1):
        up = pivots.get(i + 1, [])
        cols = {g: mats[i + 1][g] for g in up}
        cols.update((h, {h: ONE}) for h in pivots.get(i, []))
        ids = [b.bid for b in complex_.basis_at(i)]
        if len(cols) != len(ids):
            raise ValueError(f"scalar complex is not exact at hdeg {i}; not a resolution")
        sols = linalg.solve_many(cols, [{h: ONE} for h in ids])
        if any(sol is None for sol in sols):
            raise ValueError(f"scalar complex is not exact at hdeg {i}; not a resolution")
        for h, sol in zip(ids, sols):
            row = {g: sol[g] for g in up if g in sol}
            if row:
                sigma[h] = row
    return Homotopy(complex_, sigma)


def laurent_dga(complex_, homotopy=None):
    """The contraction-induced multiplication, with Laurent
    coefficients allowed.

    Every product of positive-degree elements lies in the image of
    sigma, and a sigma-image cycle is zero (ss = 0), which kills the
    associator; the result is an honest DGA over the Laurent ring."""
    if homotopy is None:
        homotopy = contracting_homotopy(complex_)
    table = {}
    for pair, rho in leibniz_sweep(complex_, table, ONE, add_scaled):
        prod = apply(homotopy.sigma, rho)
        if prod:
            table[pair] = prod
    return Multiplication(complex_, table, laurent=True)


def scale_complex(complex_, s):
    """Shift every basis degree in positive hdeg by s; scalar data is
    untouched, so resolutions stay resolutions (of the scaled ideal)."""
    return complex_.with_degrees(
        lambda b: b.mdeg if b.hdeg == 0 else vec_add(b.mdeg, s)
    )


@dataclass
class ScaledDGA:
    """A minimal DGA resolution of x^s * I, s = lcm of the generators.

    base/laurent are the minimal resolution of S/I and its contraction
    product; complex/multiplication are the shifted copies.  Every basis
    degree divides x^s, so all shifted product exponents are >= 0."""

    ideal: object
    scaled_ideal: object
    base: FreeComplex
    laurent: Multiplication
    complex: FreeComplex
    multiplication: Multiplication


def scaled_dga(ideal, cap=16):
    res = minimal_resolution(ideal, cap=cap)
    lau = laurent_dga(res.complex)
    s = ideal.top_degree()
    shifted = scale_complex(res.complex, s)
    mult = Multiplication(shifted, {p: dict(r) for p, r in lau.table.items()})
    return ScaledDGA(ideal, scale_ideal(ideal), res.complex, lau, shifted, mult)
