"""File and JSON formats for ideals, face lists, and reports.

Text inputs are line oriented: `#` starts a comment, blank lines are
skipped, and parse failures raise ParseError with a 1-indexed line and
column.  JSON reports keep every scalar as an exact fraction string,
so parsing a report reproduces the data bit for bit.
"""

import json
import re
from fractions import Fraction

from .betti import BettiTable
from .complexes import BasisElement, FreeComplex
from .ideals import minimal_generators, vec_add, vec_sub
from .multiplication import Multiplication
from .simplicial import SimplicialComplex


class ParseError(ValueError):
    """Malformed or refused input, with its position when there is one."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        place = ""
        if line is not None:
            place = "line %d" % line
            if column is not None:
                place += ", column %d" % column
            place += ": "
        super().__init__(place + message)


_HEADER = re.compile(r"^vars\s*:\s*(-?\d+)\s*$")
_FACTOR = re.compile(r"^x_?(\d+)(?:\^(\d+))?$")


def _strip_comment(line):
    return line.split("#", 1)[0]


def _parse_bracket(content, line_no):
    stripped = content.strip()
    col0 = content.index(stripped) + 1
    bad = re.search(r"[^\[\]\d,\s]", stripped)
    if bad:
        raise ParseError(
            "unexpected character %r in exponent vector" % bad.group(),
            line_no, col0 + bad.start(),
        )
    try:
        vals = json.loads(stripped)
    except json.JSONDecodeError as err:
        raise ParseError("malformed exponent vector", line_no, col0 + err.colno - 1)
    if not isinstance(vals, list) or not all(isinstance(v, int) for v in vals):
        raise ParseError("exponent vector must be a list of integers", line_no, col0)
    if not vals:
        raise ParseError("empty exponent vector", line_no, col0)
    return tuple(vals)


def _parse_monomial(content, line_no):
    """One generator as {0-based variable index: exponent}."""
    out = {}
    last = (1, 0)
    pos = 0
    for part in content.split("*"):
        stripped = part.strip()
        col = pos + part.index(stripped) + 1 if stripped else pos + 1
        pos += len(part) + 1
        if not stripped:
            raise ParseError("empty factor", line_no, col)
        m = _FACTOR.match(stripped)
        if not m:
            raise ParseError(
                "bad factor %r; write x3, x_3 or x3^2" % stripped, line_no, col)
        index = int(m.group(1))
        if index == 0:
            raise ParseError("variable indices start at 1", line_no, col)
        exp = int(m.group(2) or 1)
        if exp == 0:
            raise ParseError("zero exponent on a factor", line_no, col)
        out[index - 1] = out.get(index - 1, 0) + exp
        if index > last[1]:
            last = (col, index)
    return out, last


def parse_ideal_text(text):
    """Read a monomial ideal from its text form.

    An optional `vars: n` header fixes the variable count; otherwise it
    is inferred from exponent vector lengths or the largest variable
    index.  Each remaining line is one generator, either a monomial
    like x1^2*x3 or an exponent vector like [2, 0, 1].  Redundant
    generators are pruned."""
    declared = None
    bracket_n = None
    gens = []  # (line_no, vector or expmap, position of largest index)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = _strip_comment(raw)
        stripped = content.strip()
        if not stripped:
            continue
        header = _HEADER.match(stripped)
        if header:
            if gens:
                raise ParseError("variable count must precede the generators", line_no, 1)
            if declared is not None:
                raise ParseError("duplicate variable count", line_no, 1)
            declared = int(header.group(1))
            if declared < 1:
                raise ParseError("variable count must be positive", line_no, 1)
            continue
        if stripped.startswith("["):
            vec = _parse_bracket(content, line_no)
            col0 = content.index(stripped) + 1
            if declared is not None and len(vec) != declared:
                raise ParseError(
                    "expected %d exponents, got %d" % (declared, len(vec)),
                    line_no, col0)
            if bracket_n is None:
                bracket_n = len(vec)
            elif len(vec) != bracket_n:
                raise ParseError(
                    "expected %d exponents, got %d" % (bracket_n, len(vec)),
                    line_no, col0)
            if not any(vec):
                raise ParseError("generator has no variables", line_no, col0)
            gens.append((line_no, vec, (col0, len(vec))))
        else:
            expmap, last = _parse_monomial(content, line_no)
            gens.append((line_no, expmap, last))
    if not gens:
        raise ParseError("no generators found")
    n = declared if declared is not None else bracket_n
    if n is None:
        n = max(max(g) + 1 for _, g, _ in gens if isinstance(g, dict))
    vectors = []
    for line_no, g, (col, _) in gens:
        if isinstance(g, dict):
            top = max(g) + 1
            if top > n:
                raise ParseError(
                    "variable x%d exceeds the declared count %d" % (top, n),
                    line_no, col)
            g = tuple(g.get(i, 0) for i in range(n))
        vectors.append(g)
    return minimal_generators(vectors, n)


def parse_ideal_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal_text(fh.read())


def format_ideal(ideal, bracket=False):
    lines = ["vars: %d" % ideal.num_vars]
    for g in ideal.generators:
        if bracket:
            lines.append("[" + ", ".join(str(e) for e in g) + "]")
        else:
            lines.append("*".join(
                "x%d" % (i + 1) + ("^%d" % e if e > 1 else "")
                for i, e in enumerate(g) if e
            ))
    return "\n".join(lines) + "\n"


def parse_complex_text(text):
    """Read a simplicial complex, one face per line, vertices 1-indexed
    and separated by spaces or commas.  The family is closed downward."""
    faces = []
    num_vertices = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = _strip_comment(raw)
        if not content.strip():
            continue
        face = []
        for m in re.finditer(r"[^,\s]+", content):
            tok = m.group()
            if not tok.isdigit():
                raise ParseError("bad vertex %r" % tok, line_no, m.start() + 1)
            v = int(tok)
            if v == 0:
                raise ParseError("vertex numbers start at 1", line_no, m.start() + 1)
            if v - 1 in face:
                raise ParseError("repeated vertex %d" % v, line_no, m.start() + 1)
            face.append(v - 1)
        faces.append(tuple(sorted(face)))
        num_vertices = max(num_vertices, max(face) + 1)
    if not faces:
        raise ParseError("no faces found")
    return SimplicialComplex.from_faces(num_vertices, faces)


def parse_complex_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex_text(fh.read())


# --- JSON blocks ------------------------------------------------------


def ideal_to_json(ideal):
    return {"vars": ideal.num_vars,
            "generators": [list(g) for g in ideal.generators]}


def ideal_from_json(doc):
    return minimal_generators([tuple(g) for g in doc["generators"]], doc["vars"])


def betti_to_json(table):
    return {
        "vars": table.num_vars,
        "entries": [
            {"i": i, "degree": list(a), "rank": table.entries[(i, a)]}
            for (i, a) in sorted(table.entries)
        ],
        "totals": list(table.totals()),
    }


def betti_from_json(doc):
    entries = {(e["i"], tuple(e["degree"])): e["rank"] for e in doc["entries"]}
    return BettiTable(doc["vars"], entries)


def complex_to_json(complex_):
    bases = [
        {"i": i, "id": list(b.bid), "degree": list(b.mdeg)}
        for i in sorted(complex_.bases)
        for b in complex_.basis_at(i)
    ]
    by_id = complex_.by_id
    diff = []
    for src in sorted(complex_.diff):
        for tgt in sorted(complex_.diff[src]):
            c = complex_.diff[src][tgt]
            e = vec_sub(by_id[src].mdeg, by_id[tgt].mdeg)
            diff.append([list(src), list(tgt), str(c), list(e)])
    return {
        "vars": complex_.num_vars,
        "augmented": complex_.augmented,
        "ranks": list(complex_.ranks()),
        "bases": bases,
        "differential": diff,
    }


def complex_from_json(doc):
    bases = {}
    degree = {}
    for item in doc["bases"]:
        b = BasisElement(tuple(item["id"]), item["i"], tuple(item["degree"]))
        bases.setdefault(b.hdeg, []).append(b)
        degree[b.bid] = b.mdeg
    diff = {}
    for src, tgt, scalar, exp in doc["differential"]:
        g, h = tuple(src), tuple(tgt)
        if g not in degree or h not in degree:
            raise ParseError(f"unknown basis id {list(h if g in degree else g)}")
        diff.setdefault(g, {})[h] = Fraction(scalar)
        if vec_sub(degree[g], degree[h]) != tuple(exp):
            raise ParseError("exponent vector disagrees with the degrees")
    return FreeComplex(doc["vars"], bases, diff, augmented=doc["augmented"])


def mult_to_json(mult):
    by_id = mult.complex.by_id
    entries = []
    for u, v in sorted(mult.table):
        du, dv = by_id[u].mdeg, by_id[v].mdeg
        row = mult.table[(u, v)]
        for w in sorted(row):
            e = vec_sub(vec_add(du, dv), by_id[w].mdeg)
            entries.append([list(u), list(v), list(w), str(row[w]), list(e)])
    return {"laurent": bool(mult.laurent), "entries": entries}


def mult_from_json(complex_, doc):
    by_id = complex_.by_id
    table = {}
    for g, h, e, scalar, exp in doc["entries"]:
        u, v, w = tuple(g), tuple(h), tuple(e)
        for bid in (u, v, w):
            if bid not in by_id:
                raise ParseError(f"unknown basis id {list(bid)}")
        table.setdefault((u, v), {})[w] = Fraction(scalar)
        implied = vec_sub(vec_add(by_id[u].mdeg, by_id[v].mdeg), by_id[w].mdeg)
        if implied != tuple(exp):
            raise ParseError("exponent vector disagrees with the degrees")
    return Multiplication(complex_, table, laurent=doc.get("laurent", False))


def transfer_to_json(transfer):
    def rows(mapping):
        return [
            [list(src), list(tgt), str(c)]
            for src in sorted(mapping)
            for tgt, c in sorted(mapping[src].items())
            if c
        ]

    return {
        "inclusion": rows(transfer.incl),
        "projection": rows(transfer.proj),
        "homotopy": rows(transfer.homotopy),
    }
