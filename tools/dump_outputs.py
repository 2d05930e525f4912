"""Write the user-visible outputs of a dgares checkout into one directory.

    python tools/dump_outputs.py OUT [--root CHECKOUT]

Runs the command line of the checkout (default: the one holding this
script) on the catalog ideals and ten seeded random ideals:
`--json dga {transfer,solve,laurent,scale,supportive}` and
`--json resolve --show-transfer` on each, and `--json dga verify` on
those with at most five generators.  It also runs `examples run all`
(text and --json) and every script in demos/.  Each output file holds
the command's stdout, the last line of its stderr and its exit code,
so that the outputs of two checkouts compare with one command:

    diff -r OUT_A OUT_B

Standard library only; the random ideals are drawn here, not by dgares,
so both checkouts see the same inputs.
"""

import argparse
import os
import random
import subprocess
import sys

DGA_MODES = ("transfer", "solve", "laurent", "scale", "supportive")
RANDOM_SEEDS = range(10)
VERIFY_MAX_GENS = 5

_CATALOG = """
from dgares.corpus import catalog_ideals
from dgares.ioformats import format_ideal
for label, ideal in catalog_ideals():
    print("#", label)
    print(format_ideal(ideal, bracket=True), end="")
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to write (created if missing)")
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="checkout whose src/ and demos/ are run")
    args = parser.parse_args(argv)
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

    run(root, ["-m", "dgares", "examples", "run", "all"],
        os.path.join(out, "examples.txt"))
    run(root, ["-m", "dgares", "--json", "examples", "run", "all"],
        os.path.join(out, "examples.json"))
    demos = os.path.join(root, "demos")
    for script in sorted(os.listdir(demos)):
        if script.endswith(".py"):
            run(root, [os.path.join(demos, script)],
                os.path.join(out, "demo-%s.txt" % script[:-3]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
