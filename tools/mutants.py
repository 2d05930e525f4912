"""Mutation gates: break one check of dgares at a time and see a test fail.

    python tools/mutants.py

Each entry of MUTANTS names one check, an exact snippet of one source
file, the replacement that switches the check off, and the pytest
selection meant to catch it.  The script first runs every selection on
an unchanged copy of `src/` and `tests/` (they must pass).  Then, for
each entry, it copies `src/` and `tests/` into a temporary directory,
applies that one replacement, and runs the entry's selection there with
`-x`.  A mutant is killed when the selection fails, and survives when
it passes.  One line per mutant; the exit code is 1 when any mutant
survives or a run goes wrong, 0 otherwise.

Standard library only (pytest runs in a subprocess).
`tests/test_source.py` checks that every snippet occurs exactly once in
its file, so that the list cannot go stale.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name path snippet replacement selection")

MUTANTS = [
    Mutant(
        "is_resolution without its H_0 test",
        "src/dgares/complexes.py",
        "        if dims.get(0, 0) != expected_h0:\n            return False\n",
        "",
        "tests/test_complexes.py::test_is_resolution_rejects_a_resolution_of_another_ideal",
    ),
    Mutant(
        "TransferData.verify without its chain-map check",
        "src/dgares/minimize.py",
        " and is_chain_map(small, big, incl)\n",
        "\n",
        "tests/test_minimize.py::test_transfer_verify_rejects_a_small_complex_with_a_scaled_top_row",
    ),
    Mutant(
        "TransferData.verify without proj∘incl = id",
        "src/dgares/minimize.py",
        "        if any(apply(proj, incl.get(g, {})) != {g: ONE} for g in small.by_id):\n"
        "            return False\n",
        "",
        "tests/test_minimize.py::test_transfer_verify_rejects_a_projection_that_is_not_a_left_inverse",
    ),
    Mutant(
        "TransferData.verify without its homotopy identity",
        "src/dgares/minimize.py",
        "        return is_homotopy(big, self.homotopy, lhs) and ",
        "        return ",
        "tests/test_minimize.py::test_transfer_verify_rejects_a_flipped_entry",
    ),
    Mutant(
        "TransferData.verify without its grading check",
        "src/dgares/minimize.py",
        "        if (\n"
        "            grading_fault(small, big, incl, 0)\n"
        "            or grading_fault(big, small, proj, 0)\n"
        "            or grading_fault(big, big, self.homotopy, 1)\n"
        "        ):\n"
        "            return False\n",
        "",
        "tests/test_minimize.py::test_transfer_verify_rejects_an_ungraded_map",
    ),
    Mutant(
        "TaylorMap.verify_chain_map without its grading check",
        "src/dgares/structure.py",
        "        if grading_fault(self.taylor, self.target, rows, 0):\n            return False\n",
        "",
        "tests/test_structure.py::test_verify_chain_map_rejects_an_ungraded_image",
    ),
    Mutant(
        "hilbert_cone_check certifies every rank",
        "src/dgares/structure.py",
        "    certified = all(linalg.rank(mats[i]) == exp_rank[i] for i in range(1, len(hf)))\n",
        "    certified = True\n",
        "tests/test_structure.py::test_hilbert_cone_check_certifies_the_forced_ranks",
    ),
    Mutant(
        "Homotopy.verify without its sigma sigma = 0 check",
        "src/dgares/homotopy.py",
        "        return not any(apply(sigma, sigma.get(g, {})) for g in F.by_id)\n",
        "        return True\n",
        "tests/test_homotopy.py::test_contraction_verify_rejects_a_nonzero_sigma_square",
    ),
    Mutant(
        "complex_from_json ignores the exponent column",
        "src/dgares/ioformats.py",
        "        if vec_sub(degree[g], degree[h]) != tuple(exp):\n"
        '            raise ParseError("exponent vector disagrees with the degrees")\n',
        "",
        "tests/test_io_cli.py::test_complex_json_checks_the_exponent_column",
    ),
    Mutant(
        "verify_morse_matching calls every matching acyclic",
        "src/dgares/morse.py",
        "    except CycleError:\n        acyclic = False\n",
        "    except CycleError:\n        acyclic = True\n",
        "tests/test_morse.py::test_verify_morse_matching_flags",
    ),
    Mutant(
        "atom_isomorphism takes any bijection its pruning allows",
        "src/dgares/lattices.py",
        "            return {frozenset(sigma[a] for a in s) for s in fp} == fq\n",
        "            return True\n",
        "tests/test_lattices.py::test_search_checks_the_whole_family",
    ),
    Mutant(
        "ideal_from_cone_complex without its atom-set check",
        "src/dgares/morse.py",
        "    if set(atom_sets(ideal).values()) != delta.faces | {frozenset(range(k))}:\n"
        '        raise ValueError("lcm lattice does not match the face poset")\n',
        "",
        "tests/test_morse.py::test_ideal_from_cone_complex_checks_its_lattice",
    ),
    Mutant(
        "gauge_equivalent without its magnitude test",
        "src/dgares/multiplication.py",
        "            if abs(a) != abs(b):\n                return None\n",
        "",
        "tests/test_multiplication.py::test_gauge_equivalent_rejects_impossible_tables",
    ),
    Mutant(
        "gauge_equivalent accepts a contradiction (0 = 1)",
        "src/dgares/multiplication.py",
        "            elif row:\n                return None\n",
        "",
        "tests/test_multiplication.py::test_gauge_equivalent_rejects_a_negated_entry",
    ),
]


def copy_checkout(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_pytest(checkout, selection):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True).returncode


def run_mutant(mutant):
    """'killed', 'survived' or an error note for one mutant."""
    with tempfile.TemporaryDirectory(prefix="dgares-mutant-") as tmp:
        copy_checkout(tmp)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.snippet) != 1:
            return f"error: the snippet occurs {text.count(mutant.snippet)} times"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.snippet, mutant.replacement))
        code = run_pytest(tmp, [mutant.selection])
    # pytest exits 1 when a test failed; anything else (collection
    # error, no test selected) says nothing about the check
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exited {code}")


def main():
    with tempfile.TemporaryDirectory(prefix="dgares-mutant-") as tmp:
        copy_checkout(tmp)
        code = run_pytest(tmp, sorted({m.selection for m in MUTANTS}))
    if code != 0:
        print(f"the unchanged selections do not pass (pytest exited {code})")
        return 1
    bad = 0
    for mutant in MUTANTS:
        verdict = run_mutant(mutant)
        bad += verdict != "killed"
        print(f"{verdict:10} {mutant.name}  [{mutant.selection}]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
