"""The benchmark's three workloads: seeded inputs, one job per input,
and the reference checks run on each job's outputs.

A job is one ideal (or one cone complex) taken to a verified result.
Inputs reach dgares only as text, through `ioformats`.  Each workload
runs rounds of fixed composition: one job of each kind in its mix.  A
kind is one ideal or complex: a named ideal, or a random one drawn once
from a generator seeded with the kind's name, so every run measures the
same mix.  The run's seed relabels every input afresh in every round
(variables, generator order, vertex numbers, line order) and orders the
round's jobs, so no input text repeats.  See NOTES.md for why.
"""

import json
import random
from dataclasses import dataclass
from itertools import combinations

# Total Betti numbers of S/I for the edge ideals of the cycle C_n and
# the path P_n on n vertices (n generators and n - 1 generators).  They
# agree with Jacques' formulas for paths and cycles (for instance
# beta_top = 2 exactly for C_n with 3 | n) and were cross-checked with
# dgares.betti.betti_table_direct, the route that skips minimization.
CYCLE_TOTALS = {
    6: (1, 6, 9, 6, 2),
    7: (1, 7, 14, 14, 7, 1),
    8: (1, 8, 20, 24, 12, 1),
    9: (1, 9, 27, 39, 27, 9, 2),
}
PATH_TOTALS = {
    7: (1, 6, 11, 9, 3),
    8: (1, 7, 16, 17, 8, 1),
    9: (1, 8, 22, 29, 19, 6, 1),
}

# The two costly reference checks run in a run's first round (`thorough`),
# on every kind once; the certificates and the cheap checks run on every
# job.  betti_table_direct is the reference for random ideals only up to
# DIRECT_MAX_GENS generators: above it the direct route costs more than
# the job (seconds at k = 10, 16-39 s at k = 11), and the certificates
# that the job itself evaluates (is_resolution and is_minimal) certify
# the table.  The full associativity check of the Laurent product runs
# when the minimal resolution has at most LAURENT_FULL_MAX_BASIS basis
# elements of positive degree (the scan is cubic in that number).
DIRECT_MAX_GENS = 9
LAURENT_FULL_MAX_BASIS = 30


@dataclass
class Job:
    kind: str
    text: str
    expected_totals: tuple = None  # named ideals: Betti totals
    expected_fvector: tuple = None  # cone complexes: f-vector of the input
    apex: int = None  # cone complexes: 0-based apex vertex


# -- inputs (generated without dgares) ------------------------------------


def edge_generators(family, n):
    """Exponent vectors of the edge ideal of the cycle ("C") or the path
    ("P") on n vertices."""
    edges = [(i, (i + 1) % n) for i in range(n if family == "C" else n - 1)]
    return [tuple(1 if v in e else 0 for v in range(n)) for e in edges]


def random_generators(k, n, max_exp=3):
    """k monomials in n variables with exponents up to max_exp, none
    dividing another: a minimal generating set of exactly k generators.
    Drawn from a generator seeded with the kind's name."""
    rng = random.Random("R%dx%d" % (k, n))
    while True:
        gens = []
        for _ in range(200 * k):
            m = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(m) and not any(
                all(x <= y for x, y in zip(g, m)) or all(x <= y for x, y in zip(m, g))
                for g in gens
            ):
                gens.append(m)
                if len(gens) == k:
                    return gens


def ideal_text(rng, gens, n, monomials):
    """Ideal-file text of the generators with the variables permuted and
    the generators shuffled by rng, as monomials or exponent vectors."""
    perm = rng.sample(range(n), n)
    rows = [tuple(g[perm[i]] for i in range(n)) for g in gens]
    rng.shuffle(rows)
    lines = ["vars: %d" % n]
    for g in rows:
        if monomials:
            lines.append("*".join(
                "x%d" % (i + 1) + ("^%d" % e if e > 1 else "") for i, e in enumerate(g) if e))
        else:
            lines.append(str(list(g)))
    return "\n".join(lines) + "\n"


def named_ideal_job(rng, family, n):
    totals = (CYCLE_TOTALS if family == "C" else PATH_TOTALS)[n]
    text = ideal_text(rng, edge_generators(family, n), n, monomials=True)
    return Job("%s%d" % (family, n), text, expected_totals=totals)


def random_ideal_job(rng, k, n):
    return Job("R%dx%d" % (k, n), ideal_text(rng, random_generators(k, n), n, monomials=False))


def cone_base(base, edges, triangles):
    """Faces of a simplicial complex on `base` vertices with exactly the
    given numbers of edges and triangles and no larger faces (so it is
    never a full simplex), drawn from a generator seeded with the shape."""
    rng = random.Random("cone%d.%d.%d" % (base + 1, edges, triangles))
    while True:
        tris = rng.sample(list(combinations(range(base), 3)), triangles)
        covered = {e for t in tris for e in combinations(t, 2)}
        free = [e for e in combinations(range(base), 2) if e not in covered]
        if len(covered) <= edges <= len(covered) + len(free):
            return [(v,) for v in range(base)] + tris + sorted(covered) + rng.sample(
                free, edges - len(covered))


def cone_job(rng, base, edges, triangles):
    """Face-list text of the cone, with apex vertex `base`, over
    cone_base(...), its base vertices renumbered and its lines shuffled by
    rng; the expected f-vector is counted here from the faces."""
    perm = rng.sample(range(base), base)
    cone_faces = [tuple(sorted(perm[v] for v in f)) + (base,)
                  for f in cone_base(base, edges, triangles)]
    rng.shuffle(cone_faces)
    closure = {()}
    for f in cone_faces:
        for mask in range(1 << len(f)):
            closure.add(tuple(v for i, v in enumerate(f) if mask >> i & 1))
    fvec = [0] * (max(len(f) for f in closure) + 1)
    for f in closure:
        fvec[len(f)] += 1
    text = "".join(" ".join(str(v + 1) for v in f) + "\n" for f in cone_faces)
    return Job(
        "cone%d.%d.%d" % (base + 1, edges, triangles), text,
        expected_fvector=tuple(fvec), apex=base,
    )


# -- the workloads -------------------------------------------------------


def _positive_ids(complex_):
    return [b.bid for i in sorted(complex_.bases) if i >= 1 for b in complex_.bases[i]]


def _triple_counts(complex_):
    """(positive basis^3, triples whose hdegs sum to at most the top
    hdeg): what the associator scan visits, and the part of it that can
    be nonzero."""
    sizes = {i: len(bl) for i, bl in complex_.bases.items() if i >= 1}
    top = complex_.max_hdeg
    in_range = sum(
        sizes[a] * sizes[b] * sizes[c]
        for a in sizes for b in sizes for c in sizes
        if a + b + c <= top
    )
    return sum(sizes.values()) ** 3, in_range


def _taylor_record(lib, ideal, taylor, small):
    return {
        "gens": ideal.k,
        "vars": ideal.num_vars,
        "taylor_basis": len(taylor.by_id),
        "lcm_lattice": len(lib.lattices.lcm_lattice(ideal).elements),
        "minimal_ranks": list(small.ranks()),
    }


class _IdealMix:
    """A round is one job per named ideal (family, vertices) and per
    random ideal (generators, variables)."""

    NAMED = RANDOM = ()

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def next_round(self):
        jobs = [named_ideal_job(self.rng, f, n) for f, n in self.NAMED]
        jobs += [random_ideal_job(self.rng, k, n) for k, n in self.RANDOM]
        self.rng.shuffle(jobs)
        return jobs


def _count_reduction(tr, rec, small):
    tr.count("complexes.taylor_basis", rec["taylor_basis"])
    tr.count("minimize.input_basis", rec["taylor_basis"])
    tr.count("minimize.kept_basis", len(small.by_id))
    tr.count("minimize.cancellations", (rec["taylor_basis"] - len(small.by_id)) // 2)


class Resolve(_IdealMix):
    """Mirrors `dgares --json resolve --show-transfer` plus Betti numbers."""

    name = "resolve"
    # The cycle/path ladder has large lcm lattices, so is_resolution is
    # heavy; random ideals with the same generator counts in 4-8
    # variables have small lattices, so minimize dominates.
    NAMED = (("C", 8), ("C", 9), ("P", 9))
    RANDOM = ((8, 4), (8, 8), (9, 4), (9, 6), (9, 8))

    @staticmethod
    def run(lib, tr, job):
        ideal = tr.call("ioformats.parse", lib.ioformats.parse_ideal_text, job.text)
        taylor = tr.call("complexes.taylor_complex", lib.complexes.taylor_complex, ideal)
        small, transfer = tr.call("minimize.minimize", lib.minimize.minimize, taylor)
        resolved = tr.call("complexes.is_resolution", lib.complexes.is_resolution, small, ideal)
        minimal = tr.call("complexes.is_minimal", lib.complexes.is_minimal, small)
        verified = tr.call("minimize.transfer_verify", transfer.verify)
        betti = tr.call("betti.betti_from_complex", lib.betti.betti_from_complex, small)
        doc = tr.call("ioformats.to_json", _resolve_document, lib, small, transfer, betti, resolved and minimal and verified)
        return dict(ideal=ideal, taylor=taylor, small=small, betti=betti,
                    resolved=resolved, minimal=minimal, verified=verified, doc=doc)

    @staticmethod
    def check(lib, job, out, thorough):
        betti = out["betti"]
        checks = [
            ("is_resolution", out["resolved"]),
            ("is_minimal", out["minimal"]),
            ("transfer_verify", out["verified"]),
        ]
        doc = json.loads(out["doc"])
        checks.append(("json_betti", lib.ioformats.betti_from_json(doc["betti"]).entries == betti.entries
                       and doc["ranks"] == list(betti.totals())))
        if job.expected_totals is not None:
            checks.append(("betti_totals", betti.totals() == job.expected_totals))
        elif thorough and out["ideal"].k <= DIRECT_MAX_GENS:
            direct = lib.betti.betti_table_direct(out["ideal"])
            checks.append(("betti_direct", bool(direct.entries) and direct.entries == betti.entries))
        return checks

    @staticmethod
    def describe(lib, tr, job, out):
        taylor, small = out["taylor"], out["small"]
        rec = _taylor_record(lib, out["ideal"], taylor, small)
        _count_reduction(tr, rec, small)
        tr.count("complexes.is_resolution.degrees", rec["lcm_lattice"])
        return rec


def _resolve_document(lib, small, transfer, betti, ok):
    return json.dumps({
        "ranks": list(small.ranks()),
        "verified": ok,
        "complex": lib.ioformats.complex_to_json(small),
        "transfer": lib.ioformats.transfer_to_json(transfer),
        "betti": lib.ioformats.betti_to_json(betti),
    })


def _leibniz_space(lib, complex_):
    space = lib.solve.leibniz_solution_space(complex_)
    return space, space.particular()


class Products(_IdealMix):
    """Every product on the minimal resolution, each checked up to Leibniz."""

    name = "products"
    NAMED = (("C", 6), ("C", 7), ("P", 7))
    RANDOM = ((6, 4), (6, 5), (6, 6), (7, 4), (7, 5))

    @staticmethod
    def run(lib, tr, job):
        m = lib.multiplication
        ideal = tr.call("ioformats.parse", lib.ioformats.parse_ideal_text, job.text)
        taylor = tr.call("complexes.taylor_complex", lib.complexes.taylor_complex, ideal)
        small, transfer = tr.call("minimize.minimize", lib.minimize.minimize, taylor)
        shuffle = tr.call("multiplication.taylor_multiplication", m.taylor_multiplication, taylor)
        transferred = tr.call("multiplication.transfer_multiplication", m.transfer_multiplication, shuffle, transfer)
        space, particular = tr.call("solve.leibniz_solution_space", _leibniz_space, lib, small)
        forced = tr.call("solve.forced_products", lib.solve.forced_products, small)
        homotopy = tr.call("homotopy.contracting_homotopy", lib.homotopy.contracting_homotopy, small)
        homotopy_ok = tr.call("homotopy.verify", homotopy.verify)
        laurent = tr.call("homotopy.laurent_dga", lib.homotopy.laurent_dga, small, homotopy)
        supportive = tr.call("structure.supportive_multiplication", lib.structure.supportive_multiplication, ideal)
        products = {
            "transferred": transferred,
            "particular": particular,
            "laurent": laurent,
            "supportive": supportive.multiplication,
        }
        reports = {
            name: tr.call("multiplication.check_dga_axioms.leibniz", m.check_dga_axioms, mult, False)
            for name, mult in products.items()
        }
        return dict(ideal=ideal, taylor=taylor, small=small, space=space, forced=forced,
                    homotopy_ok=homotopy_ok, products=products, reports=reports)

    @staticmethod
    def check(lib, job, out, thorough):
        small = out["small"]
        checks = [("homotopy_verify", out["homotopy_ok"])]
        checks += [("is_multiplication." + name, rep.is_multiplication)
                   for name, rep in out["reports"].items()]
        if job.expected_totals is not None:
            checks.append(("betti_totals", small.ranks() == job.expected_totals))
        # Leibniz pins the forced pairs, so every multiplication on the
        # complex carries the same value there.
        forced = out["forced"]
        pinned = forced.forced_pairs()
        for name in ("transferred", "particular"):
            mult = out["products"][name]
            checks.append(("forced_agree." + name, bool(pinned) and all(
                mult.product(u, v) == forced.get(u, v) for u, v in pinned)))
        checks.append(("is_supportive", lib.multiplication.is_supportive(out["products"]["supportive"])[0]))
        if thorough and len(_positive_ids(small)) <= LAURENT_FULL_MAX_BASIS:
            full = lib.multiplication.check_dga_axioms(out["products"]["laurent"])
            checks.append(("laurent_is_dga", full.is_dga))
        return checks

    @staticmethod
    def describe(lib, tr, job, out):
        taylor, small, space = out["taylor"], out["small"], out["space"]
        rec = _taylor_record(lib, out["ideal"], taylor, small)
        pairs = lib.solve.canonical_pairs(small)
        by_id = small.by_id
        strands = {
            (by_id[u].hdeg + by_id[v].hdeg, lib.ideals.vec_add(by_id[u].mdeg, by_id[v].mdeg))
            for u, v in pairs
        }
        rec.update(space_dim=space.dim, strands=len(pairs), distinct_strands=len(strands),
                   forced_pairs=len(out["forced"].forced_pairs()))
        _count_reduction(tr, rec, small)
        tr.count("solve.strands", len(pairs))
        tr.count("solve.distinct_strands", len(strands))
        tr.count("solve.space_dim", space.dim)
        for mult in out["products"].values():
            tr.count("multiplication.pairs_checked", len(mult.pairs()))
        return rec


class Cone:
    """The cone construction: face-indexed ideal, apex Morse matching,
    quotient DGA, and the full axiom checks."""

    name = "cone"
    # (base vertices, edges, triangles) per round; the cone has base + 1
    # vertices and f-vector (1, base + 1, base + edges, edges + triangles, triangles).
    SHAPES = ((3, 2, 0), (3, 3, 0), (4, 3, 0), (4, 4, 1), (4, 5, 2), (4, 6, 3))

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def next_round(self):
        jobs = [cone_job(self.rng, *shape) for shape in self.SHAPES]
        self.rng.shuffle(jobs)
        return jobs

    @staticmethod
    def run(lib, tr, job):
        m, morse = lib.multiplication, lib.morse
        delta = tr.call("ioformats.parse", lib.ioformats.parse_complex_text, job.text)
        ideal = tr.call("morse.ideal_from_cone_complex", morse.ideal_from_cone_complex, delta)
        matching = tr.call("morse.cone_morse_matching", morse.cone_morse_matching, ideal, delta, job.apex)
        taylor = tr.call("complexes.taylor_complex", lib.complexes.taylor_complex, ideal)
        matching_report = tr.call("morse.verify_morse_matching", morse.verify_morse_matching, matching, taylor)
        shuffle = tr.call("multiplication.taylor_multiplication", m.taylor_multiplication, taylor)
        ideal_ok, _ = tr.call("morse.dga_ideal_check", morse.dga_ideal_check, shuffle, matching)
        small, transfer, leftover = tr.call("minimize.cancel_pairs", lib.minimize.cancel_pairs, taylor, matching)
        quotient = tr.call("multiplication.transfer_multiplication", m.transfer_multiplication, shuffle, transfer)
        resolved = tr.call("complexes.is_resolution", lib.complexes.is_resolution, small, ideal)
        minimal = tr.call("complexes.is_minimal", lib.complexes.is_minimal, small)
        quotient_report = tr.call("multiplication.check_dga_axioms.full", m.check_dga_axioms, quotient)
        hilbert = tr.call("structure.hilbert_cone_check", lib.structure.hilbert_cone_check, quotient)
        shuffle_report = tr.call("multiplication.check_dga_axioms.full", m.check_dga_axioms, shuffle)
        return dict(ideal=ideal, taylor=taylor, small=small, matching=matching,
                    matching_valid=matching_report.valid, ideal_ok=ideal_ok, leftover=leftover,
                    resolved=resolved, minimal=minimal, quotient=quotient, shuffle=shuffle,
                    quotient_dga=quotient_report.is_dga, hilbert=hilbert.passed,
                    shuffle_dga=shuffle_report.is_dga)

    @staticmethod
    def check(lib, job, out, thorough):
        return [
            ("matching_valid", out["matching_valid"] and bool(out["matching"])),
            ("dga_ideal", out["ideal_ok"]),
            ("all_pairs_cancelled", not out["leftover"]),
            ("is_resolution", out["resolved"]),
            ("is_minimal", out["minimal"]),
            ("quotient_is_dga", out["quotient_dga"]),
            ("ranks_are_fvector", out["small"].ranks() == job.expected_fvector),
            ("hilbert_cone", out["hilbert"]),
            ("shuffle_is_dga", out["shuffle_dga"]),
        ]

    @staticmethod
    def describe(lib, tr, job, out):
        taylor, small = out["taylor"], out["small"]
        rec = _taylor_record(lib, out["ideal"], taylor, small)
        rec["matched_pairs"] = len(out["matching"])
        tr.count("complexes.taylor_basis", rec["taylor_basis"])
        tr.count("complexes.is_resolution.degrees", rec["lcm_lattice"])
        tr.count("minimize.cancel_pairs.pairs", len(out["matching"]))
        for complex_, mult in ((small, out["quotient"]), (taylor, out["shuffle"])):
            scanned, in_range = _triple_counts(complex_)
            tr.count("multiplication.triples_scanned", scanned)
            tr.count("multiplication.triples_in_range", in_range)
            tr.count("multiplication.pairs_checked", len(mult.pairs()))
        return rec


WORKLOADS = {w.name: w for w in (Resolve, Products, Cone)}
