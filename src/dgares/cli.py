"""Command line interface.

Exit codes: 0 on success and for checks that hold, 1 when a requested
check fails (witnesses are printed) or the library raises ValueError,
2 on malformed or missing input (with line and column diagnostics for
text files) and on an ideal over `--max-gens`.  `--json` switches
every subcommand to a single JSON document carrying the same data as
the text output; scalars are exact fraction strings.
"""

import argparse
import json
import random
import sys

from . import casebook, ioformats
from .betti import betti_table
from .complexes import (
    algebraic_scarf,
    is_minimal,
    is_resolution,
    lyubeznik,
    scarf_complex,
    taylor_complex,
)
from .homotopy import laurent_dga, scaled_dga
from .lattices import atom_isomorphism, atom_sets
from .minimize import minimal_resolution
from .multiplication import (
    check_dga_axioms,
    is_supportive,
    taylor_multiplication,
    transfer_multiplication,
)
from .simplicial import f_vector, is_cone_fvector, kruskal_katona_check
from .solve import associativity_scan, forced_products, leibniz_solution_space
from .structure import relabel, supportive_multiplication
from .morse import ideal_from_cone_complex


def _print_doc(args, doc, lines):
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


def _load_ideal(args, path=None):
    ideal = ioformats.parse_ideal_file(path or args.file)
    if ideal.k > args.max_gens:
        raise ioformats.ParseError(
            "ideal has %d generators, over the --max-gens limit %d"
            % (ideal.k, args.max_gens))
    return ideal


def _axiom_failures(report):
    return (
        report.multigraded_failures
        + report.commutative_failures
        + report.leibniz_failures
        + report.associative_failures
    )


def _axioms_doc(report):
    return {
        "unit": report.unit,
        "multigraded": report.multigraded,
        "commutative": report.commutative,
        "leibniz": report.leibniz,
        "associative": report.associative,
        "failures": [str(w) for w in _axiom_failures(report)],
    }


def _parse_int_list(text, flag):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError("%s wants a comma-separated integer list, got %r" % (flag, text))


# --- subcommands ------------------------------------------------------


def cmd_betti(args):
    ideal = _load_ideal(args)
    table = betti_table(ideal, cap=args.max_gens)
    doc = ioformats.betti_to_json(table)
    lines = ["betti totals: " + " ".join(str(t) for t in table.totals())]
    for (i, a) in sorted(table.entries):
        lines.append("  i=%d degree=%s rank=%d" % (i, list(a), table.entries[(i, a)]))
    _print_doc(args, doc, lines)
    return 0


def cmd_resolve(args):
    ideal = _load_ideal(args)
    res = minimal_resolution(ideal, cap=args.max_gens)
    ok = (
        is_resolution(res.complex, ideal)
        and is_minimal(res.complex)
        and res.transfer.verify()
    )
    doc = {
        "ranks": list(res.complex.ranks()),
        "verified": ok,
        "complex": ioformats.complex_to_json(res.complex),
    }
    lines = [
        "minimal free resolution, ranks: " + " ".join(str(r) for r in res.complex.ranks()),
        "verified (resolution, minimal, transfer): %s" % ("yes" if ok else "NO"),
    ]
    if args.show_transfer:
        doc["transfer"] = ioformats.transfer_to_json(res.transfer)
        for name, rows in doc["transfer"].items():
            lines.append("%s: %d scalar entries" % (name, len(rows)))
            for src, tgt, c in rows:
                lines.append("  %s -> %s: %s" % (tuple(src), tuple(tgt), c))
    _print_doc(args, doc, lines)
    return 0 if ok else 1


def cmd_taylor(args):
    ideal = _load_ideal(args)
    T = taylor_complex(ideal, cap=args.max_gens)
    doc = {"ranks": list(T.ranks()), "complex": ioformats.complex_to_json(T)}
    lines = ["full complex ranks: " + " ".join(str(r) for r in T.ranks())]
    if args.with_multiplication:
        mult = taylor_multiplication(T)
        doc["multiplication"] = ioformats.mult_to_json(mult)
        lines.append("multiplication entries: %d" % len(doc["multiplication"]["entries"]))
        for g, h, e, c, exp in doc["multiplication"]["entries"]:
            lines.append("  %s * %s -> %s: %s x^%s" % (tuple(g), tuple(h), tuple(e), c, exp))
    _print_doc(args, doc, lines)
    return 0


def cmd_scarf(args):
    ideal = _load_ideal(args)
    sc = scarf_complex(ideal)
    F = algebraic_scarf(ideal)
    resolves = is_resolution(F, ideal)
    faces = sorted((tuple(sorted(f)) for f in sc.faces), key=lambda f: (len(f), f))
    doc = {
        "faces": [list(f) for f in faces],
        "f_vector": list(f_vector(sc)),
        "resolves": resolves,
        "minimal": resolves and is_minimal(F),
    }
    lines = [
        "scarf faces (%d): %s" % (len(faces), " ".join(str(f) for f in faces)),
        "f-vector: " + " ".join(str(x) for x in f_vector(sc)),
        "resolves: %s" % ("yes" if resolves else "no"),
    ]
    _print_doc(args, doc, lines)
    return 0


def cmd_lyubeznik(args):
    ideal = _load_ideal(args)
    order = _parse_int_list(args.order, "--order")
    if sorted(order) != list(range(ideal.k)):
        raise ValueError(
            "--order must list every generator index 0..%d exactly once" % (ideal.k - 1))
    L = lyubeznik(ideal, order)
    ok = is_resolution(L, ideal)
    doc = {
        "order": list(order),
        "ranks": list(L.ranks()),
        "resolves": ok,
        "minimal": ok and is_minimal(L),
        "complex": ioformats.complex_to_json(L),
    }
    lines = [
        "deletion-order complex ranks: " + " ".join(str(r) for r in L.ranks()),
        "resolves: %s, minimal: %s" % ("yes" if ok else "NO", "yes" if doc["minimal"] else "no"),
    ]
    _print_doc(args, doc, lines)
    return 0 if ok else 1


def _dga_transfer(args, ideal):
    res = minimal_resolution(ideal, cap=args.max_gens)
    mult = transfer_multiplication(taylor_multiplication(res.taylor), res.transfer)
    ax = check_dga_axioms(mult)
    doc = {
        "ranks": list(res.complex.ranks()),
        "axioms": _axioms_doc(ax),
        "multiplication": ioformats.mult_to_json(mult),
    }
    lines = [
        "transferred product onto minimal resolution, ranks: "
        + " ".join(str(r) for r in res.complex.ranks()),
        "axioms: " + ax.summary(),
    ]
    return doc, lines, 0 if ax.is_multiplication else 1


def _dga_solve(args, ideal):
    res = minimal_resolution(ideal, cap=args.max_gens)
    space = leibniz_solution_space(res.complex)
    particular = space.particular()
    ax = check_dga_axioms(particular)
    fp = forced_products(res.complex)
    scan = associativity_scan(space, samples=10, rng=random.Random(args.seed))
    associative_points = sum(1 for _, w in scan if w is None)
    doc = {
        "dimension": space.dim,
        "forced_pairs": [list(map(list, p)) for p in fp.forced_pairs()],
        "free_pairs": [list(map(list, p)) for p in fp.free_pairs()],
        "particular_axioms": _axioms_doc(ax),
        "associative_samples": associative_points,
        "samples": len(scan),
        "multiplication": ioformats.mult_to_json(particular),
    }
    lines = [
        "solution space dimension: %d" % space.dim,
        "forced pairs: %d, undetermined pairs: %d"
        % (len(fp.forced_pairs()), len(fp.free_pairs())),
        "particular axioms: " + ax.summary(),
        "associative sample points: %d of %d" % (associative_points, len(scan)),
    ]
    return doc, lines, 0


def _dga_verify(args, ideal):
    T = taylor_complex(ideal, cap=args.max_gens)
    mult = taylor_multiplication(T)
    ax = check_dga_axioms(mult)
    sup, sup_wit = is_supportive(mult)
    doc = {
        "axioms": _axioms_doc(ax),
        "supportive": sup,
        "supportive_witnesses": [str(w) for w in sup_wit],
    }
    lines = ["axioms: " + ax.summary(), "supportive: %s" % ("yes" if sup else "no")]
    if not ax.is_dga:
        lines += ["witness: %s" % (w,) for w in _axiom_failures(ax)]
    return doc, lines, 0 if ax.is_dga else 1


def _dga_scale(args, ideal):
    sd = scaled_dga(ideal, cap=args.max_gens)
    ax = check_dga_axioms(sd.multiplication)
    ok = (
        is_resolution(sd.complex, sd.scaled_ideal)
        and is_minimal(sd.complex)
        and ax.is_dga
    )
    doc = {
        "scaled_ideal": ioformats.ideal_to_json(sd.scaled_ideal),
        "ranks": list(sd.complex.ranks()),
        "axioms": _axioms_doc(ax),
        "verified": ok,
    }
    lines = [
        "scaled ideal: " + ", ".join(
            "[%s]" % ",".join(str(e) for e in g) for g in sd.scaled_ideal.generators),
        "ranks: " + " ".join(str(r) for r in sd.complex.ranks()),
        "axioms: " + ax.summary(),
        "verified minimal associative resolution: %s" % ("yes" if ok else "NO"),
    ]
    return doc, lines, 0 if ok else 1


def _dga_laurent(args, ideal):
    res = minimal_resolution(ideal, cap=args.max_gens)
    mult = laurent_dga(res.complex)
    ax = check_dga_axioms(mult)
    doc = {
        "ranks": list(res.complex.ranks()),
        "axioms": _axioms_doc(ax),
        "multiplication": ioformats.mult_to_json(mult),
    }
    lines = [
        "contraction product with Laurent coefficients, ranks: "
        + " ".join(str(r) for r in res.complex.ranks()),
        "axioms: " + ax.summary(),
    ]
    return doc, lines, 0 if ax.is_dga else 1


def _dga_supportive(args, ideal):
    sm = supportive_multiplication(ideal, cap=args.max_gens)
    ax = check_dga_axioms(sm.multiplication, associativity=False)
    sup, _ = is_supportive(sm.multiplication)
    ok = ax.is_multiplication and sup
    doc = {
        "polarized_vars": None if sm.polarization is None else sm.polarization.ideal.num_vars,
        "ranks": list(sm.complex.ranks()),
        "axioms": _axioms_doc(ax),
        "supportive": sup,
        "multiplication": ioformats.mult_to_json(sm.multiplication),
    }
    lines = [
        "supportive product on minimal resolution, ranks: "
        + " ".join(str(r) for r in sm.complex.ranks()),
        "axioms: " + ax.summary(),
        "supportive: %s" % ("yes" if sup else "NO"),
    ]
    if sm.polarization is not None:
        lines.insert(1, "built through the squarefree copy in %d variables"
                     % sm.polarization.ideal.num_vars)
    return doc, lines, 0 if ok else 1


_DGA_MODES = {
    "transfer": _dga_transfer,
    "solve": _dga_solve,
    "verify": _dga_verify,
    "scale": _dga_scale,
    "laurent": _dga_laurent,
    "supportive": _dga_supportive,
}


def cmd_dga(args):
    ideal = _load_ideal(args)
    doc, lines, code = _DGA_MODES[args.mode](args, ideal)
    _print_doc(args, doc, lines)
    return code


def cmd_relabel(args):
    source = _load_ideal(args)
    target = _load_ideal(args, path=args.target)
    iso = atom_isomorphism(atom_sets(source), atom_sets(target))
    if iso is None:
        _print_doc(args, {"isomorphic": False},
                   ["lcm lattices are not isomorphic"])
        return 1
    sm = supportive_multiplication(source, cap=args.max_gens)
    relabeled, mult = relabel(sm.complex, sm.multiplication, iso, target)
    ax = check_dga_axioms(mult, associativity=False)
    ok = is_resolution(relabeled, target) and is_minimal(relabeled) and ax.is_multiplication
    doc = {
        "isomorphic": True,
        "ranks": list(relabeled.ranks()),
        "axioms": _axioms_doc(ax),
        "verified": ok,
        "multiplication": ioformats.mult_to_json(mult),
    }
    lines = [
        "lcm lattices are isomorphic; product transported",
        "ranks: " + " ".join(str(r) for r in relabeled.ranks()),
        "axioms: " + ax.summary(),
        "verified resolution of the target: %s" % ("yes" if ok else "NO"),
    ]
    _print_doc(args, doc, lines)
    return 0 if ok else 1


def cmd_fvector(args):
    vec = _parse_int_list(args.vector, "--vector")
    if args.which == "check":
        ok = kruskal_katona_check(vec)
        message = "a simplicial complex f-vector" if ok else "not a simplicial complex f-vector"
    else:
        ok = is_cone_fvector(vec)
        message = "a cone f-vector" if ok else "not a cone f-vector"
    _print_doc(args, {"vector": list(vec), "ok": ok, "message": message},
               ["%s: %s" % (" ".join(str(x) for x in vec), message)])
    return 0 if ok else 1


def cmd_construct(args):
    delta = ioformats.parse_complex_file(args.file)
    ideal = ideal_from_cone_complex(delta)
    doc = {
        "f_vector": list(f_vector(delta)),
        "ideal": ioformats.ideal_to_json(ideal),
        "ideal_text": ioformats.format_ideal(ideal, bracket=True),
    }
    lines = ["# ideal with lcm lattice matching the face poset"]
    lines += ioformats.format_ideal(ideal, bracket=True).splitlines()
    _print_doc(args, doc, lines)
    return 0


def cmd_examples(args):
    if args.case == "all":
        results = casebook.run_all()
    else:
        results = [casebook.run_case(args.case)]
    doc = {"cases": [r.to_json() for r in results],
           "passed": all(r.passed for r in results)}
    lines = []
    for r in results:
        lines += r.lines()
    _print_doc(args, doc, lines)
    return 0 if doc["passed"] else 1


# --- parser -----------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dgares",
        description="Multigraded resolutions of monomial ideals and the "
        "multiplicative structure they carry.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampling subcommands")
    parser.add_argument("--max-gens", type=int, default=16, dest="max_gens",
                        help="refuse ideals with more generators than this")
    # the same flags are accepted after the subcommand name; SUPPRESS
    # keeps the subparser from clobbering values parsed up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--max-gens", type=int, default=argparse.SUPPRESS, dest="max_gens")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("betti", help="multigraded betti numbers")
    p.add_argument("file")
    p.set_defaults(func=cmd_betti)

    p = add_parser("resolve", help="minimal free resolution")
    p.add_argument("file")
    p.add_argument("--show-transfer", action="store_true", dest="show_transfer")
    p.set_defaults(func=cmd_resolve)

    p = add_parser("taylor", help="full simplex resolution")
    p.add_argument("file")
    p.add_argument("--with-multiplication", action="store_true", dest="with_multiplication")
    p.set_defaults(func=cmd_taylor)

    p = add_parser("scarf", help="unique-degree subsets and their complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_scarf)

    p = add_parser("lyubeznik", help="deletion-order resolution")
    p.add_argument("file")
    p.add_argument("--order", required=True,
                   help="comma-separated generator order, 0-based")
    p.set_defaults(func=cmd_lyubeznik)

    p = add_parser("dga", help="products on resolutions")
    p.add_argument("mode", choices=sorted(_DGA_MODES))
    p.add_argument("file")
    p.set_defaults(func=cmd_dga)

    text = ("transport a product along an lcm lattice isomorphism, found "
            "as a bijection of the generators")
    p = add_parser("relabel", help=text, description=text)
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_relabel)

    p = add_parser("fvector", help="face-count tests")
    p.add_argument("which", choices=("check", "cone"))
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_fvector)

    p = add_parser("construct", help="build ideals from combinatorial input")
    p.add_argument("what", choices=("from-complex",))
    p.add_argument("file")
    p.set_defaults(func=cmd_construct)

    p = add_parser("examples", help="rebuild and re-check the catalog")
    p.add_argument("action", choices=("run",))
    p.add_argument("case", choices=casebook.CASES + ("all",))
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ioformats.ParseError, FileNotFoundError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
