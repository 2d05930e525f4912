"""Multigraded Betti numbers, t-vectors, and subadditivity checks."""

from dataclasses import dataclass, field

from .complexes import homology_dims, taylor_complex
from .ideals import total_degree
from .minimize import minimal_resolution


@dataclass(frozen=True)
class BettiTable:
    """entries: {(hdeg, multidegree): rank}, zeros omitted."""

    num_vars: int
    entries: dict

    def total(self, i):
        return sum(r for (j, _), r in self.entries.items() if j == i)

    def totals(self):
        top = max((i for i, _ in self.entries), default=0)
        return tuple(self.total(i) for i in range(top + 1))

    def projective_dimension(self):
        return max((i for i, _ in self.entries), default=0)

    def degrees(self, i):
        return sorted(a for (j, a) in self.entries if j == i)


def betti_from_complex(complex_):
    """Read Betti numbers off a minimal complex."""
    entries = {}
    for i, blist in complex_.bases.items():
        for b in blist:
            key = (i, b.mdeg)
            entries[key] = entries.get(key, 0) + 1
    return BettiTable(complex_.num_vars, entries)


def betti_table(ideal, cap=16):
    """Betti numbers of S/I via minimization of the Taylor complex."""
    return betti_from_complex(minimal_resolution(ideal, cap=cap).complex)


def betti_table_direct(ideal):
    """Betti numbers computed without minimization, as an independent route.

    Tensoring the Taylor resolution with k kills every differential
    entry whose implied monomial is nonconstant, so beta_{i,a} is the
    homology of the subcomplex spanned by basis elements of multidegree
    exactly a, with only the equal-degree scalar entries.
    """
    t = taylor_complex(ideal)
    by_degree = {}
    for i, blist in t.bases.items():
        for b in blist:
            by_degree.setdefault(b.mdeg, {}).setdefault(i, []).append(b.bid)
    entries = {}
    for a, ids in by_degree.items():
        for i, dim in homology_dims(t, ids).items():
            if dim:
                entries[(i, a)] = dim
    return BettiTable(ideal.num_vars, entries)


@dataclass(frozen=True)
class TVector:
    """t_i = max total degree of a nonzero beta_{i,a}; t_0 = 0."""

    values: tuple

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError(f"a t-vector starts with t_0 = 0, got {self.values}")


def t_vector(table):
    top = table.projective_dimension()
    vals = []
    for i in range(top + 1):
        degs = table.degrees(i)
        if not degs:
            raise ValueError(f"no Betti numbers in hdeg {i} below the projective dimension")
        vals.append(max(total_degree(a) for a in degs))
    return TVector(tuple(vals))


@dataclass
class SubadditivityReport:
    mode: str
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def check_subadditivity(tv, mode="all"):
    """Check t_b <= t_a + t_{b-a} for 0 < a < b (mode="all") or just
    a = 1 (mode="first_step")."""
    if mode not in ("all", "first_step"):
        raise ValueError(f"unknown mode {mode!r}")
    t = tv.values
    report = SubadditivityReport(mode)
    for b in range(2, len(t)):
        splits = range(1, b) if mode == "all" else (1,)
        for a in splits:
            if t[b] > t[a] + t[b - a]:
                report.violations.append((a, b, t[b], t[a] + t[b - a]))
    return report
