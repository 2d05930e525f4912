"""Solving the Leibniz rule for multiplications on a resolution.

The Leibniz constraints are linear in the table entries, and the entry
for a pair only depends on pairs of strictly smaller total homological
degree, so the full solution set is an affine space that can be built
level by level: solve each pair's linear system, absorb its kernel as
fresh free parameters, and carry everything forward as affine scalars.

Affine scalars are dicts {parameter index: coefficient} with the key -1
holding the constant term.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .complexes import Element, canonical_pairs, diff_matrix, strand_ids
from .ideals import vec_add
# add_scaled and leibniz_sweep are re-exported from here
from .multiplication import Multiplication, add_scaled, associators, leibniz_sweep, lookup

ZERO = Fraction(0)
ONE = Fraction(1)
CONST = -1


def aff_const(c):
    return {CONST: c} if c else {}


def aff_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def aff_scale(a, c):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def aff_eval(a, values):
    out = a.get(CONST, ZERO)
    for k, v in a.items():
        if k != CONST:
            out += v * values[k]
    return out


def aff_add_scaled(acc, c, row):
    """acc += c * row on rows of affine scalars."""
    for w, aff in row.items():
        acc[w] = aff_add(acc.get(w, {}), aff_scale(aff, c))


def _strand_data(complex_, u, v):
    """Candidate product targets W, differential targets T, and the
    columns of d on W restricted to the strand below mdeg u + mdeg v."""
    bu, bv = complex_.by_id[u], complex_.by_id[v]
    level = bu.hdeg + bv.hdeg
    degree = vec_add(bu.mdeg, bv.mdeg)
    targets = strand_ids(complex_, level, degree)
    below = strand_ids(complex_, level - 1, degree)
    return degree, targets, below, diff_matrix(complex_, below, targets)


@dataclass
class MultiplicationSpace:
    """The affine space of all multiplications on a complex.

    entries: {pair: {target id: affine scalar}} over `dim` parameters.
    Every parameter choice yields a multiplication (unit, multigraded,
    commutative, Leibniz); associativity is a further condition that
    holds on none, some, or all of the space.
    """

    complex: object
    entries: dict
    dim: int

    def table_at(self, values):
        if len(values) != self.dim:
            raise ValueError(f"{len(values)} parameter values for a space of dimension {self.dim}")
        table = {}
        for pair, row in self.entries.items():
            concrete = {w: aff_eval(aff, values) for w, aff in row.items()}
            concrete = {w: c for w, c in concrete.items() if c}
            if concrete:
                table[pair] = concrete
        return table

    def at(self, values):
        return Multiplication(self.complex, self.table_at(values))

    def particular(self):
        return self.at((ZERO,) * self.dim)

    def locate(self, mult):
        """Parameter values realizing a given multiplication, or None
        when it does not lie in the space.  The values are unique since
        each parameter is visible in the pair that introduced it."""
        if set(mult.complex.by_id) != set(self.complex.by_id):
            raise ValueError("the multiplication lives on a complex with another basis")
        return self.solve_for(mult.table, canonical_pairs(self.complex))

    def solve_for(self, table, pairs):
        """Parameter values sending every pair in `pairs` to its row
        {target id: scalar} of `table` (a missing row is zero), or None
        when no member of the space does.  Parameters the rows leave
        free come back as 0.  Each (pair, target) is one equation: the
        parameter coefficients of the entry against given - constant."""
        columns = {p: {} for p in range(self.dim)}
        rhs = {}
        for pair in pairs:
            row = self.entries.get(pair, {})
            given = table.get(pair, {})
            for w in {**row, **given}:
                aff = row.get(w, {})
                for p, c in aff.items():
                    if p != CONST:
                        columns[p][(pair, w)] = c
                rhs[(pair, w)] = given.get(w, ZERO) - aff.get(CONST, ZERO)
        sol = linalg.solve(columns, rhs)
        return None if sol is None else tuple(sol.get(p, ZERO) for p in range(self.dim))


def leibniz_solution_space(complex_):
    """All multiplications on an augmented resolution, as an affine
    space.  Raises ValueError when some Leibniz system is unsolvable
    (which cannot happen when the complex is a resolution: the right
    hand side is a cycle in an exact strand)."""
    entries = {}
    dim = 0
    for pair, rho in leibniz_sweep(complex_, entries, aff_const(ONE), aff_add_scaled):
        degree, targets, below, cols = _strand_data(complex_, *pair)
        if any(aff and w not in below for w, aff in rho.items()):
            raise ValueError(f"Leibniz right-hand side escapes the strand at pair {pair}")
        keys = [CONST] + sorted({p for aff in rho.values() for p in aff if p != CONST})
        rhs_list = [{h: rho.get(h, {}).get(key, ZERO) for h in below} for key in keys]
        echelon = linalg.Echelon(cols)
        sols = [echelon.solve(rhs) for rhs in rhs_list]
        if any(s is None for s in sols):
            raise ValueError(f"Leibniz has no solution at pair {pair}")
        # each kernel vector is a fresh parameter
        kernel = echelon.kernel()
        row = {}
        for key, vec in zip(keys + list(range(dim, dim + len(kernel))), sols + kernel):
            for w in targets:
                c = vec.get(w)
                if c:
                    row[w] = aff_add(row.get(w, {}), {key: c})
        dim += len(kernel)
        entries[pair] = row
    return MultiplicationSpace(complex_, entries, dim)


@dataclass
class ForcedProducts:
    """Products pinned down by the Leibniz rule alone.

    table: {canonical pair: row or None}, rows being {target id:
    scalar}; None marks a pair whose product is not forced (its strand
    has room, or it depends on an unforced lower pair).  Odd squares
    count as forced zero."""

    complex: object
    table: dict

    def get(self, u, v):
        """e_u * e_v as an Element when Leibniz forces it, else None."""
        by_id = self.complex.by_id
        row, sign = lookup(by_id, self.table, u, v, ONE)
        if row is None:
            return None
        bu, bv = by_id[u], by_id[v]
        return Element(bu.hdeg + bv.hdeg, vec_add(bu.mdeg, bv.mdeg),
                       {w: sign * c for w, c in row.items()})

    def forced_pairs(self):
        return sorted(p for p, row in self.table.items() if row is not None)

    def free_pairs(self):
        return sorted(p for p, row in self.table.items() if row is None)


def forced_products(complex_):
    """Which basis products does Leibniz force, and to what value?

    A pair is forced when every lower pair it draws on is forced and its
    strand system has a unique solution (trivial kernel)."""
    table = {(u, u): {} for u in complex_.positive_ids() if complex_.by_id[u].hdeg % 2 == 1}
    for pair, rho in leibniz_sweep(complex_, table, ONE, add_scaled):
        table[pair] = None
        if rho is None:
            continue
        degree, targets, below, cols = _strand_data(complex_, *pair)
        echelon = linalg.Echelon(cols)
        if len(echelon.keys) < len(targets):
            continue
        sol = echelon.solve({h: rho.get(h, ZERO) for h in below})
        if sol is None:
            raise ValueError(f"Leibniz has no solution at pair {pair}")
        table[pair] = {w: sol[w] for w in targets if w in sol}
    return ForcedProducts(complex_, table)


def associativity_scan(space, samples=20, rng=None):
    """Test associativity at integer parameter points of [-5, 5]^dim.

    Returns [(values, witness)] where witness is None for associative
    members and a triple (u, v, w) otherwise."""
    if rng is None:
        rng = random.Random(0)
    results = []
    for _ in range(samples):
        values = tuple(Fraction(rng.randint(-5, 5)) for _ in range(space.dim))
        witness = next((triple[:3] for triple in associators(space.at(values))), None)
        results.append((values, witness))
    return results
