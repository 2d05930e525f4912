"""Multiplications on free complexes and the DGA axiom checks.

A multiplication is stored as a scalar table on canonical basis pairs
(u, v) with u <= v and both of positive homological degree: the entry c
on (u, v) -> w means e_u * e_v contains c * x^(mdeg u + mdeg v - mdeg w) e_w.
Products against the hdeg-0 generator are the module structure and are
handled structurally, and the swapped order is defined through the sign
rule e_v * e_u = (-1)^(|u||v|) e_u * e_v, so graded commutativity is
built in except for squares of odd-degree elements, which must be zero.

Every product of this layer (multiply, the associator scan) is formed on
scalar rows by row_product, which reads the table through lookup, and
the shape of every table (odd squares, hdeg, negative exponents) is
checked in one place, table_faults, when the Multiplication is built.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .complexes import Element, add_scaled, apply, canonical_pairs
from .ideals import divides, join, vec_add

ONE = Fraction(1)


def fold(by_id, a, b):
    """Table key and sign of the product e_a * e_b of positive-degree
    basis ids: ((u, v), sign) with u <= v and e_a * e_b = sign * e_u *
    e_v, by the rule e_b * e_a = (-1)^(|a||b|) e_a * e_b."""
    if a <= b:
        return (a, b), ONE
    return (b, a), -ONE if by_id[a].hdeg * by_id[b].hdeg % 2 else ONE


def lookup(by_id, table, a, b, one):
    """e_a * e_b read off a (possibly partial) table on canonical pairs,
    as (row, sign) with e_a * e_b = sign * row.

    A product with the hdeg-0 unit is {other factor: one}, `one` being
    the unit scalar of the table's rows, and the square of an odd-degree
    element is {}.  A missing row is zero; a row stored as None comes
    back as None."""
    ba, bb = by_id[a], by_id[b]
    if ba.hdeg == 0:
        return {b: one}, ONE
    if bb.hdeg == 0:
        return {a: one}, ONE
    if a == b and ba.hdeg % 2 == 1:
        return {}, ONE
    key, sign = fold(by_id, a, b)
    return table.get(key, {}), sign


def row_product(by_id, table, f, g):
    """The product of two rows {id: scalar} read through `lookup`, as a
    row with zero entries dropped.  The monomial coefficients of a
    product of homogeneous elements telescope, so the rows determine it."""
    acc = {}
    for a, ca in f.items():
        for b, cb in g.items():
            row, sign = lookup(by_id, table, a, b, ONE)
            add_scaled(acc, sign * ca * cb, row)
    return {w: c for w, c in acc.items() if c}


def leibniz_sweep(complex_, table, one, accumulate):
    """Walk the canonical pairs level by level and yield (pair, rhs),
    rhs = d(u)*v + (-1)^|u| u*d(v) as {target id: scalar}.

    The lower products come from `table` through the sign-folded lookup;
    the caller stores each pair's row there before asking for the next
    pair, so every level below is complete when a pair comes up.  `one`
    (the unit scalar) and `accumulate` (add_scaled, or
    solve.aff_add_scaled for affine scalars) fix the scalar type of the
    rows.  rhs is None when it draws on a row stored as None."""
    by_id = complex_.by_id
    for pair in canonical_pairs(complex_):
        u, v = pair
        s = -ONE if by_id[u].hdeg % 2 else ONE
        terms = [(h, v, d) for h, d in complex_.diff_of(u).items()]
        terms += [(u, h, s * d) for h, d in complex_.diff_of(v).items()]
        rho = {}
        for a, b, d in terms:
            row, sign = lookup(by_id, table, a, b, one)
            if row is None:
                rho = None
                break
            accumulate(rho, sign * d, row)
        yield pair, rho


class Multiplication:
    """A bilinear product on a free complex, given on basis pairs.

    table: {(u, v): {w: scalar}} with u <= v as ids.  Keys in the other
    order are folded in with the commutativity sign; zero rows are
    dropped.  laurent=True marks tables whose implied monomials may
    carry negative exponents.
    """

    __slots__ = ("complex", "table", "laurent")

    def __init__(self, complex_, table, laurent=False):
        self.complex = complex_
        self.laurent = laurent
        self.table = {}
        by_id = complex_.by_id
        for (u, v), row in table.items():
            unknown = [b for b in (u, v, *row) if b not in by_id]
            if unknown:
                raise ValueError(f"table entry ({u}, {v}) names the unknown basis id {unknown[0]}")
            if by_id[u].hdeg < 1 or by_id[v].hdeg < 1:
                raise ValueError(f"table pair ({u}, {v}) involves the hdeg-0 generator")
            key, sign = fold(by_id, u, v)
            row = {w: sign * c for w, c in row.items() if c}
            if key in self.table:
                if self.table[key] != row:
                    raise ValueError(f"conflicting table entries for {key}")
                continue
            if row:
                self.table[key] = row
        fault = next(table_faults(complex_, self.table, laurent), None)
        if fault is not None:
            raise ValueError(fault[2])

    def pairs(self):
        """Canonical basis pairs of positive hdeg that carry a (possibly
        zero) product, odd squares excluded, in id order."""
        return sorted(canonical_pairs(self.complex))

    def product(self, u, v):
        """e_u * e_v as an Element, for basis ids u, v."""
        return self.multiply(self.complex.basis_element(u), self.complex.basis_element(v))

    def multiply(self, f, g):
        """Extend the basis products bilinearly; monomial coefficients
        telescope, so this is one row_product on the scalar rows."""
        return Element(f.hdeg + g.hdeg, vec_add(f.mdeg, g.mdeg),
                       row_product(self.complex.by_id, self.table, f.coeffs, g.coeffs))


def table_faults(complex_, table, laurent):
    """The shape faults of a scalar table on canonical pairs, yielded as
    (axiom, witness, message): a nonzero square of an odd-degree element
    ("commutative", (u, v)), and an entry off the product's hdeg or,
    unless laurent, one whose implied monomial needs a negative exponent
    ("multigraded", (u, v, w))."""
    by_id = complex_.by_id
    for (u, v), row in table.items():
        bu, bv = by_id[u], by_id[v]
        if u == v and bu.hdeg % 2 == 1:
            yield "commutative", (u, v), f"nonzero square of the odd-degree element {u}"
        hdeg = bu.hdeg + bv.hdeg
        mdeg = vec_add(bu.mdeg, bv.mdeg)
        for w in row:
            bw = by_id[w]
            if bw.hdeg != hdeg:
                yield "multigraded", (u, v, w), f"entry ({u},{v})->{w} lands in the wrong hdeg"
            elif not laurent and not divides(bw.mdeg, mdeg):
                yield "multigraded", (u, v, w), f"entry ({u},{v})->{w} needs a negative exponent"


def associator(mult, f, g, h):
    """(f*g)*h - f*(g*h)."""
    left = mult.multiply(mult.multiply(f, g), h)
    right = mult.multiply(f, mult.multiply(g, h))
    return left.sub(right)


def shuffle_sign(u, v):
    """(-1)^#{(a, b) in u x v : b < a}, the Taylor sign of g_u * g_v."""
    return -ONE if sum(1 for a in u for b in v if b < a) % 2 else ONE


def taylor_multiplication(complex_):
    """The shuffle product on a Taylor-style complex whose basis ids are
    sorted index tuples: g_W * g_V = 0 when W and V meet, and otherwise
    shuffle_sign(W, V) g_(W u V).  The monomial factor lcm(W) lcm(V) /
    lcm(W u V) is implied by the scalar storage."""
    ids = complex_.positive_ids()
    if not all(isinstance(w, tuple) for w in ids):
        raise ValueError("taylor_multiplication needs index-tuple ids")
    table = {}
    for u, v in combinations(sorted(ids), 2):
        if set(u) & set(v):
            continue
        target = tuple(sorted(u + v))
        if target not in complex_.by_id:
            continue
        table[(u, v)] = {target: shuffle_sign(u, v)}
    return Multiplication(complex_, table)


def transfer_multiplication(mult, transfer):
    """Push a multiplication through a minimize() transfer: a * b is
    p(i(a) * i(b)) with the inclusion i and projection p of the
    transfer.  Both are chain maps, so unit, Leibniz, commutativity and
    the multigrading carry over; associativity does not in general and
    has to be re-checked on the result."""
    if mult.complex is not transfer.big:
        raise ValueError("the multiplication lives on another complex than the transfer's")
    by_id, incl = mult.complex.by_id, transfer.incl
    table = {}
    for u, v in canonical_pairs(transfer.small):
        back = apply(transfer.proj, row_product(by_id, mult.table, incl.get(u, {}), incl.get(v, {})))
        if back:
            table[(u, v)] = back
    return Multiplication(transfer.small, table)


@dataclass
class AxiomReport:
    """Outcome of the DGA axiom checks; failure lists hold witnesses.
    associative is None when the check was skipped."""

    unit: bool = True
    multigraded: bool = True
    commutative: bool = True
    leibniz: bool = True
    associative: bool | None = None
    multigraded_failures: list = field(default_factory=list)
    commutative_failures: list = field(default_factory=list)
    leibniz_failures: list = field(default_factory=list)
    associative_failures: list = field(default_factory=list)

    @property
    def is_multiplication(self):
        """Unit, degrees, commutativity and Leibniz; associativity not
        required."""
        return self.unit and self.multigraded and self.commutative and self.leibniz

    @property
    def is_dga(self):
        return self.is_multiplication and self.associative is True

    def summary(self):
        flags = [
            ("unit", self.unit),
            ("multigraded", self.multigraded),
            ("commutative", self.commutative),
            ("leibniz", self.leibniz),
            ("associative", self.associative),
        ]
        words = {True: "ok", False: "FAIL", None: "skipped"}
        return ", ".join(f"{n}={words[v]}" for n, v in flags)


def check_dga_axioms(mult, associativity=True, max_witnesses=10):
    """Check the DGA axioms on basis pairs and triples.

    Bilinearity over S makes the basis checks sufficient, and graded
    commutativity plus Leibniz on the stored orientation imply Leibniz
    on the swapped orientation, so canonical pairs suffice there too.
    The Leibniz residual of a pair is d(e_u e_v) minus the right-hand
    side of leibniz_sweep; its witnesses come in pair order.
    """
    complex_ = mult.complex
    report = AxiomReport()

    # unit: lookup answers every product with the hdeg-0 generator
    # structurally, and an augmented complex keeps that generator in
    # degree zero, so the unit acts as identity exactly when it exists.
    try:
        complex_.unit()
    except ValueError:
        report.unit = False

    # the table is a public dict, so its shape is read again here
    for axiom, witness, _ in table_faults(complex_, mult.table, mult.laurent):
        setattr(report, axiom, False)
        found = getattr(report, axiom + "_failures")
        if len(found) < max_witnesses:
            found.append(witness)

    by_id = complex_.by_id
    failures = []
    for (u, v), rhs in leibniz_sweep(complex_, mult.table, ONE, add_scaled):
        residual = apply(complex_.diff, mult.table.get((u, v), {}))
        add_scaled(residual, -ONE, rhs)
        if any(residual.values()):
            bu, bv = by_id[u], by_id[v]
            failures.append((u, v, Element(bu.hdeg + bv.hdeg - 1, vec_add(bu.mdeg, bv.mdeg), residual)))
    failures.sort(key=lambda witness: witness[:2])
    report.leibniz = not failures
    report.leibniz_failures = failures[:max_witnesses]

    if associativity:
        report.associative = True
        for witness in associators(mult):
            report.associative = False
            if len(report.associative_failures) >= max_witnesses:
                break
            report.associative_failures.append(witness)
    return report


def associators(mult):
    """Nonzero associators on basis triples of positive hdeg, yielded as
    (u, v, w, (e_u e_v) e_w - e_u (e_v e_w)) with u, v, w running over
    the ids in positive_ids order, w fastest.  Triples whose two inner
    products both vanish are skipped, and so are triples whose hdeg sum
    passes the top hdeg: a validated row lies in its product's hdeg, so
    both sides are zero there."""
    complex_ = mult.complex
    by_id, table = complex_.by_id, mult.table
    ids = complex_.positive_ids()
    hdegs = [by_id[w].hdeg for w in ids]
    top = max(hdegs, default=0)
    # every factor has hdeg >= 1, so both inner products of a kept triple
    # lie below the top; ids run by hdeg, so each loop stops at the bound
    products = {}
    for v, hv in zip(ids, hdegs):
        for w, hw in zip(ids, hdegs):
            if hv + hw >= top:
                break
            products[v, w] = row_product(by_id, table, {v: ONE}, {w: ONE})
    for u, hu in zip(ids, hdegs):
        for v, hv in zip(ids, hdegs):
            if hu + hv >= top:
                break
            uv = products[u, v]
            for w, hw in zip(ids, hdegs):
                if hu + hv + hw > top:
                    break
                vw = products[v, w]
                if not uv and not vw:
                    continue
                if row_product(by_id, table, uv, {w: ONE}) != row_product(by_id, table, {u: ONE}, vw):
                    yield u, v, w, associator(mult, *map(complex_.basis_element, (u, v, w)))


def is_supportive(mult, max_witnesses=10):
    """A multiplication is supportive when every product term divides the
    join of the factor degrees: mdeg w <= mdeg u v mdeg v on every table
    entry.  Returns (flag, witnesses)."""
    by_id = mult.complex.by_id
    witnesses = []
    for (u, v), row in mult.table.items():
        cap = join(by_id[u].mdeg, by_id[v].mdeg)
        for w, c in row.items():
            if c and not divides(by_id[w].mdeg, cap):
                if len(witnesses) < max_witnesses:
                    witnesses.append((u, v, w))
    return not witnesses, witnesses


def gauge_equivalent(mult, table):
    """Per-basis sign pattern carrying the multiplication onto a
    reference scalar table, or None when no pattern works.

    Rescaling g_w to eps_w g_w with eps_w in {1, -1} turns the entry at
    (u, v, w) into eps_u eps_v eps_w times the old one, so two tables
    related this way present the same multiplication on renamed bases.
    With eps_w = (-1)^x_w, a cell nonzero on either side needs equal
    magnitudes and gives x_u + x_v + x_w = [ours = -ref] over GF(2).
    Elimination pivots each row on its latest id and free ids get +1, so
    the pattern is the lexicographically first (+ before -, the first id
    varying slowest): the one an exhaustive search meets first."""
    ids = mult.complex.positive_ids()
    bit = {w: 2 << n for n, w in enumerate(ids)}  # bit 0: the right-hand side
    rows = {}  # bit length of the pivot -> row
    for u, v in set(mult.table) | set(table):
        ours, ref = mult.table.get((u, v), {}), table.get((u, v), {})
        for w in set(ours) | set(ref):
            a, b = ours.get(w, 0), ref.get(w, 0)
            if abs(a) != abs(b):
                return None
            if not a:
                continue
            row = bit[u] ^ bit[v] ^ bit[w] ^ (a != b)
            while row.bit_length() in rows:
                row ^= rows[row.bit_length()]
            if row > 1:
                rows[row.bit_length()] = row
            elif row:
                return None
    x = 1
    for top in sorted(rows):
        if (rows[top] & x).bit_count() % 2:
            x |= 1 << (top - 1)
    return {w: -ONE if x & bit[w] else ONE for w in ids}
