"""Exact linear algebra over the rationals, on sparse columns.

A matrix is an ordered mapping {column key: {row key: scalar}}, the
shape in which `FreeComplex.diff` stores the differential, so a strand
of d is handed over as stored and never copied into a dense array.
Columns are reduced in order, and a column is a pivot exactly when it
is independent of the columns before it: these are the leftmost pivots
of the reduced row echelon form.  Vectors are sparse {key: scalar}
dicts.  A kernel basis has one vector per dependent column, with that
column's coefficient 1; a particular solution is 0 on every dependent
column.  Both are keyed by column key and are unique given the pivots.
"""

from fractions import Fraction

ONE = Fraction(1)


class Echelon:
    """The columns, each reduced against the pivots before it.

    Pivot k keeps its column key, a pivot row, the reduced column b_k
    scaled to 1 at that row (it is 0 at every earlier pivot row), and
    the recipe b_k = scale_k * column_k + sum_m steps_k[m] * b_m that
    `express` unwinds.  A dependent column keeps its coordinates on the
    b_k."""

    def __init__(self, columns):
        self.keys, self.rows, self.reduced, self.recipes = [], [], [], []
        self.dependent = []
        for key, col in columns.items():
            residual, coords = self.reduce(col)
            if not residual:
                self.dependent.append((key, coords))
                continue
            row = next(iter(residual))
            scale = ONE / residual[row]
            self.keys.append(key)
            self.rows.append(row)
            self.reduced.append({h: c * scale for h, c in residual.items()})
            self.recipes.append((scale, {m: -a * scale for m, a in coords.items()}))

    def reduce(self, vec):
        """(residual, coords) with vec = residual + sum_k coords[k] b_k
        and the residual 0 at every pivot row."""
        residual = {h: c for h, c in vec.items() if c}
        coords = {}
        for k, row in enumerate(self.rows):
            a = residual.get(row)
            if not a:
                continue
            coords[k] = a
            for h, c in self.reduced[k].items():
                v = residual.get(h, 0) - a * c
                if v:
                    residual[h] = v
                else:
                    del residual[h]
        return residual, coords

    def express(self, coords):
        """sum_k coords[k] b_k on the pivot columns, as {key: scalar}."""
        coords = dict(coords)
        out = {}
        for k in range(len(self.keys) - 1, -1, -1):
            a = coords.pop(k, None)
            if not a:
                continue
            scale, steps = self.recipes[k]
            out[self.keys[k]] = a * scale
            for m, s in steps.items():
                coords[m] = coords.get(m, 0) + a * s
        return out

    def solve(self, rhs):
        """The solution that is 0 on every dependent column, or None
        when rhs lies outside the column span."""
        residual, coords = self.reduce(rhs)
        return None if residual else self.express(coords)

    def kernel(self):
        """Kernel basis: per dependent column, that column with
        coefficient 1 minus its combination of the pivot columns before
        it."""
        return [
            {**{k: -c for k, c in self.express(coords).items()}, key: ONE}
            for key, coords in self.dependent
        ]


def pivots(columns):
    """Keys of the columns independent of the columns before them."""
    return Echelon(columns).keys


def rank(columns):
    return len(Echelon(columns).keys)


def nullspace(columns):
    return Echelon(columns).kernel()


def solve_many(columns, rhs_list):
    """Per right-hand side, `Echelon.solve` against one elimination."""
    return list(map(Echelon(columns).solve, rhs_list))


def solve(columns, rhs):
    return Echelon(columns).solve(rhs)


def in_span(vectors, vec):
    """Is vec a combination of the given sparse vectors?"""
    return not Echelon(dict(enumerate(vectors))).reduce(vec)[0]
