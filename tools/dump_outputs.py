"""Write the user-visible outputs of a dgares checkout into one directory.

    python tools/dump_outputs.py OUT [--library] [--root CHECKOUT]
    python tools/dump_outputs.py OUT --check | --write-manifest

Runs the command line of the checkout (default: the one holding this
script) on the catalog ideals and ten seeded random ideals:
`--json dga {transfer,solve,laurent,scale,supportive}` and
`--json resolve --show-transfer` on each, and `--json dga verify` on
those with at most five generators.  It runs `--json relabel` of each
catalog ideal onto a copy with its variables reversed, and
`--json construct from-complex` on three cones (the cone over the
boundary of a 5-simplex among them), so the chosen lattice isomorphism
and the built ideal are pinned.  It also runs `examples run all`
(text and --json) and every script in demos/.  Each output file holds
the command's stdout, the last line of its stderr and its exit code,
so that the outputs of two checkouts compare with one command:

    diff -r OUT_A OUT_B

With --library it also writes NAME.library.txt per ideal, from the
library API of the checkout: the transferred and Laurent tables, the
Leibniz solution space and the forced products, each in insertion
order; the verdicts of `TransferData.verify` and `Homotopy.verify` on
the true maps and on every copy with one entry negated or deleted; and
the axiom reports, witnesses included, of each product and of a copy
with one entry moved inside its strand; and, when the minimal
resolution has at most 12 positive-degree ids, the sign gauge of the
transferred and particular products onto a seeded sign twist of each
and onto that twist with one entry negated.

`tools/dump_manifest.sha256` holds the sha256 of every file of the
--library dump, one `HASH  PATH` line per file (the `sha256sum`
format, paths relative to OUT).  --check writes the --library dump to
OUT (best a new directory) and names every file whose hash differs
from the manifest, or that only one side has, exiting 1 if there is
any; --write-manifest writes the dump and records it as the new
manifest.  An intended change of the outputs then shows as a diff of
the manifest, and no second checkout is needed to show that the
outputs stayed the same.

Standard library only; the random ideals are drawn here, not by dgares,
so both checkouts see the same inputs.
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys

DGA_MODES = ("transfer", "solve", "laurent", "scale", "supportive")
RANDOM_SEEDS = range(10)
MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dump_manifest.sha256")
VERIFY_MAX_GENS = 5

# Facets, one per line, vertices numbered from 1; the apex is the
# largest vertex.
CONES = {
    "path-cone": "1 2 4\n2 3 4\n",
    "triangle-cone": "1 2 4\n1 3 4\n2 3 4\n",
    "boundary-cone": "".join(
        " ".join(str(v) for v in range(1, 7) if v != skip) + " 7\n" for skip in range(1, 7)),
}

_CATALOG = """
from dgares.corpus import catalog_ideals
from dgares.ioformats import format_ideal
for label, ideal in catalog_ideals():
    print("#", label)
    print(format_ideal(ideal, bracket=True), end="")
"""

# Run as a script against a checkout's src/, with the ideal file as argv[1].
_LIBRARY = """
import random
import sys

from dgares.complexes import strand_ids, taylor_complex
from dgares.homotopy import Homotopy, contracting_homotopy, laurent_dga
from dgares.ideals import vec_add
from dgares.ioformats import parse_ideal_file
from dgares.minimize import TransferData, minimize
from dgares.multiplication import (
    Multiplication, check_dga_axioms, gauge_equivalent, taylor_multiplication,
    transfer_multiplication)
from dgares.solve import forced_products, leibniz_solution_space

FULL_AXIOMS_MAX_BASIS = 30
# the size the exhaustive gauge search of older checkouts accepted, so
# that their dumps compare with this one
GAUGE_MAX_IDS = 12


def show(title, table):
    print(title, len(table))
    for pair, row in table.items():
        print(" ", pair, row if row is None else list(row.items()))


def mutants(rows):
    for g in sorted(rows):
        for h in sorted(rows[g]):
            flipped = {k: dict(v) for k, v in rows.items()}
            flipped[g][h] = -flipped[g][h]
            dropped = {k: dict(v) for k, v in rows.items()}
            del dropped[g][h]
            yield flipped
            yield dropped


def verdicts(title, make, rows):
    print(title, "".join("1" if make(new).verify() else "0" for new in mutants(rows)))


def strand(complex_, u, v):
    bu, bv = complex_.by_id[u], complex_.by_id[v]
    return strand_ids(complex_, bu.hdeg + bv.hdeg, vec_add(bu.mdeg, bv.mdeg))


def perturbed(mult, rng):
    complex_ = mult.complex
    pairs = [(u, v) for u, v in mult.pairs() if strand(complex_, u, v)]
    if not pairs:
        return None
    u, v = rng.choice(pairs)
    w = rng.choice(strand(complex_, u, v))
    table = {p: dict(r) for p, r in mult.table.items()}
    row = table.setdefault((u, v), {})
    row[w] = row.get(w, 0) + rng.choice([-2, -1, 1, 3])
    return Multiplication(complex_, table, laurent=mult.laurent)


def signs(eps):
    return eps if eps is None else "".join("+" if e > 0 else "-" for e in eps.values())


ideal = parse_ideal_file(sys.argv[1])
taylor = taylor_complex(ideal)
small, transfer = minimize(taylor)
homotopy = contracting_homotopy(small)
shuffle = taylor_multiplication(taylor)
space = leibniz_solution_space(small)
products = {
    "shuffle": shuffle,
    "transferred": transfer_multiplication(shuffle, transfer),
    "particular": space.particular(),
    "laurent": laurent_dga(small, homotopy),
}
show("transferred", products["transferred"].table)
show("laurent", products["laurent"].table)
show("space dim %d, pairs" % space.dim, space.entries)
show("forced", forced_products(small).table)

print("transfer verify", transfer.verify())
maps = {"incl": transfer.incl, "proj": transfer.proj, "homotopy": transfer.homotopy}
for name, rows in maps.items():
    verdicts("transfer verify, one %s entry changed" % name,
             lambda new: TransferData(transfer.big, transfer.small, **dict(maps, **{name: new})), rows)
print("contraction verify", homotopy.verify())
verdicts("contraction verify, one entry changed", lambda new: Homotopy(small, new), homotopy.sigma)

rng = random.Random(0)
for name, mult in products.items():
    full = len(mult.complex.positive_ids()) <= FULL_AXIOMS_MAX_BASIS
    for label, candidate in ((name, mult), (name + " perturbed", perturbed(mult, rng))):
        if candidate is None:
            continue
        report = check_dga_axioms(candidate, associativity=full)
        print(label, report.summary())
        for kind in ("multigraded", "commutative", "leibniz", "associative"):
            for witness in getattr(report, kind + "_failures"):
                print(" ", kind, witness)

rng = random.Random(1)
for name in ("transferred", "particular"):
    mult = products[name]
    ids = mult.complex.positive_ids()
    if len(ids) > GAUGE_MAX_IDS:
        continue
    eps = {w: rng.choice((1, -1)) for w in ids}
    ref = {(u, v): {w: eps[u] * eps[v] * eps[w] * c for w, c in row.items()}
           for (u, v), row in mult.table.items()}
    print(name, "gauge onto a twist", signs(gauge_equivalent(mult, ref)))
    entries = [(p, w) for p in sorted(ref) for w in sorted(ref[p])]
    if entries:
        p, w = rng.choice(entries)
        ref[p][w] = -ref[p][w]
        print(name, "gauge, entry", p, w, "negated", signs(gauge_equivalent(mult, ref)))
"""


def random_ideal_text(seed):
    """A few random monomials of one total degree, in bracket form; no
    one of them divides another, so all are minimal generators."""
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    degree = rng.randint(2, 3)
    mons = set()
    for _ in range(rng.randint(3, 7)):
        m = [0] * n
        for _ in range(degree):
            m[rng.randrange(n)] += 1
        mons.add(tuple(m))
    return "vars: %d\n" % n + "".join(
        "[%s]\n" % ", ".join(str(e) for e in g) for g in sorted(mons))


def reversed_variables(text):
    """The bracket-form ideal text with each exponent vector reversed."""
    lines = []
    for line in text.splitlines():
        if line.startswith("["):
            line = "[%s]" % ", ".join(reversed(line[1:-1].split(", ")))
        lines.append(line + "\n")
    return "".join(lines)


def run(root, argv, out_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable] + argv, cwd=root, env=env, capture_output=True, text=True)
    err = proc.stderr.strip().splitlines()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(proc.stdout)
        if err:
            fh.write("stderr: %s\n" % err[-1])
        fh.write("exit: %d\n" % proc.returncode)
    return proc


def catalog_texts(root, out):
    proc = run(root, ["-c", _CATALOG], os.path.join(out, "catalog.txt"))
    if proc.returncode:
        raise SystemExit("could not list the catalog ideals:\n" + proc.stderr)
    texts = {}
    label = None
    for line in proc.stdout.splitlines():
        if line.startswith("# "):
            label = "catalog-" + line[2:]
            texts[label] = ""
        else:
            texts[label] += line + "\n"
    return texts


def hashes(out):
    """{path relative to out, with / separators: sha256 hex} per file."""
    found = {}
    for folder, _, files in os.walk(out):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            found[os.path.relpath(path, out).replace(os.sep, "/")] = digest
    return found


def check_manifest(out):
    """Print every file whose hash differs from the manifest; 1 if any."""
    with open(MANIFEST, encoding="utf-8") as fh:
        want = dict(reversed(line.rstrip("\n").split("  ", 1)) for line in fh)
    got = hashes(out)
    paths = sorted(set(want) | set(got))
    bad = [path for path in paths if want.get(path) != got.get(path)]
    for path in bad:
        note = "missing" if path not in got else "not in the manifest" if path not in want else "differs"
        print("%s: %s" % (note, path))
    print("%d of %d files differ from the manifest" % (len(bad), len(paths)))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to write (created if missing)")
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="checkout whose src/ and demos/ are run")
    parser.add_argument(
        "--library", action="store_true",
        help="also write the library outputs (tables, verdicts, axiom reports) per ideal")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="write the --library dump and compare it with the manifest")
    mode.add_argument(
        "--write-manifest", action="store_true", dest="write_manifest",
        help="write the --library dump and record it as the manifest")
    args = parser.parse_args(argv)
    library = args.library or args.check or args.write_manifest
    root = os.path.abspath(args.root)
    out = os.path.abspath(args.out)
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs, exist_ok=True)

    ideals = catalog_texts(root, out)
    for seed in RANDOM_SEEDS:
        ideals["random-%d" % seed] = random_ideal_text(seed)
    for name, text in ideals.items():
        path = os.path.join(inputs, name + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        gens = sum(1 for line in text.splitlines() if line.startswith("["))
        modes = DGA_MODES + (("verify",) if gens <= VERIFY_MAX_GENS else ())
        for mode in modes:
            run(root, ["-m", "dgares", "--json", "dga", mode, path],
                os.path.join(out, "%s.dga-%s.json" % (name, mode)))
        run(root, ["-m", "dgares", "--json", "resolve", "--show-transfer", path],
            os.path.join(out, "%s.resolve.json" % name))
        if library:
            run(root, ["-c", _LIBRARY, path], os.path.join(out, "%s.library.txt" % name))
        if name.startswith("catalog-"):
            target = os.path.join(inputs, name + "-reversed.txt")
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(reversed_variables(text))
            run(root, ["-m", "dgares", "--json", "relabel", path, "--target", target],
                os.path.join(out, "%s.relabel.json" % name))

    for name, text in CONES.items():
        path = os.path.join(inputs, name + ".complex")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        run(root, ["-m", "dgares", "--json", "construct", "from-complex", path],
            os.path.join(out, "%s.construct.json" % name))

    run(root, ["-m", "dgares", "examples", "run", "all"],
        os.path.join(out, "examples.txt"))
    run(root, ["-m", "dgares", "--json", "examples", "run", "all"],
        os.path.join(out, "examples.json"))
    demos = os.path.join(root, "demos")
    for script in sorted(os.listdir(demos)):
        if script.endswith(".py"):
            run(root, [os.path.join(demos, script)],
                os.path.join(out, "demo-%s.txt" % script[:-3]))
    if args.check:
        return check_manifest(out)
    if args.write_manifest:
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            fh.writelines("%s  %s\n" % (h, path) for path, h in sorted(hashes(out).items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
