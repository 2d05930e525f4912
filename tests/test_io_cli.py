"""Text and JSON formats, and the command line surface."""

import json
import random
import subprocess
import sys
from itertools import combinations

import pytest

from test_lattices import shuffled

from dgares import ioformats
from dgares.betti import betti_table
from dgares.cli import main
from dgares.complexes import taylor_complex
from dgares.corpus import (
    cycle_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.ideals import MonomialIdeal, vec_add, vec_sub
from dgares.minimize import minimize
from dgares.multiplication import taylor_multiplication
from dgares.simplicial import SimplicialComplex, f_vector

# --- text parsing -----------------------------------------------------


def test_parse_ideal_monomial_form():
    text = "vars: 3\nx1^2\nx1*x2\nx1*x3\n"
    assert ioformats.parse_ideal_text(text) == taylor_equals_scarf_ideal()


def test_parse_ideal_infers_variable_count():
    ideal = ioformats.parse_ideal_text("x1*x2\nx2*x3\n")
    assert ideal.num_vars == 3
    assert ideal == MonomialIdeal(3, ((1, 1, 0), (0, 1, 1)))


def test_parse_ideal_brackets_comments_and_pruning():
    text = "# a comment\nvars: 2\n\n[1, 0]   # x\n[1, 1]\n"
    ideal = ioformats.parse_ideal_text(text)
    assert ideal == MonomialIdeal(2, ((1, 0),))


def test_parse_ideal_underscore_and_powers():
    ideal = ioformats.parse_ideal_text("x_1^2*x_2\nx2^3\n")
    assert ideal == MonomialIdeal(2, ((2, 1), (0, 3)))


@pytest.mark.parametrize("text,line,column,fragment", [
    ("x0\n", 1, 1, "start at 1"),
    ("x1^0\n", 1, 1, "zero exponent"),
    ("x1**x2\n", 1, 4, "empty factor"),
    ("vars: 3\nx1\nvars: 4\n", 3, 1, "must precede"),
    ("vars: 0\n", 1, 1, "must be positive"),
    ("[1, a]\n", 1, 5, "unexpected character"),
    ("[1, 0]\n[1, 0, 0]\n", 2, 1, "expected 2 exponents, got 3"),
    ("vars: 2\nx3\n", 2, 1, "exceeds the declared count"),
    ("[0, 0]\n", 1, 1, "no variables"),
])
def test_parse_ideal_error_positions(text, line, column, fragment):
    with pytest.raises(ioformats.ParseError) as err:
        ioformats.parse_ideal_text(text)
    assert err.value.line == line
    assert err.value.column == column
    assert fragment in err.value.message


def test_parse_ideal_empty_input():
    with pytest.raises(ioformats.ParseError, match="no generators"):
        ioformats.parse_ideal_text("# nothing here\n")


def test_format_ideal_round_trips():
    for ideal in (cycle_ideal(6), taylor_equals_scarf_ideal(),
                  strongly_generic_ideal()):
        assert ioformats.parse_ideal_text(ioformats.format_ideal(ideal)) == ideal
        assert ioformats.parse_ideal_text(
            ioformats.format_ideal(ideal, bracket=True)) == ideal


def test_parse_complex_text():
    delta = ioformats.parse_complex_text("1 2\n2, 3\n")
    assert delta == SimplicialComplex.from_faces(3, [(0, 1), (1, 2)])
    assert f_vector(delta) == (1, 3, 2)


@pytest.mark.parametrize("text,line,column,fragment", [
    ("1 b\n", 1, 3, "bad vertex"),
    ("0\n", 1, 1, "start at 1"),
    ("1 2 1\n", 1, 5, "repeated vertex"),
])
def test_parse_complex_error_positions(text, line, column, fragment):
    with pytest.raises(ioformats.ParseError) as err:
        ioformats.parse_complex_text(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert fragment in err.value.message


def test_parse_complex_text_reads_facets():
    # vertices are 1-indexed, spaces or commas separate them, and the
    # family is closed downward
    text = "# two triangles on a common edge\n1 2 4\n\n2,3, 4\n"
    delta = SimplicialComplex.from_faces(4, [(0, 1, 3), (1, 2, 3)])
    assert ioformats.parse_complex_text(text) == delta
    assert ioformats.parse_complex_text("3\n1 2\n") == SimplicialComplex.from_faces(3, [(0, 1), (2,)])


# --- JSON blocks ------------------------------------------------------


def test_ideal_json_round_trip():
    ideal = tagged_four_cycle_ideal()
    blob = json.dumps(ioformats.ideal_to_json(ideal))
    assert ioformats.ideal_from_json(json.loads(blob)) == ideal


def test_betti_json_round_trip():
    table = betti_table(taylor_equals_scarf_ideal())
    blob = json.dumps(ioformats.betti_to_json(table))
    back = ioformats.betti_from_json(json.loads(blob))
    assert back.entries == table.entries
    assert back.totals() == table.totals()


def test_complex_json_round_trip():
    T = taylor_complex(taylor_equals_scarf_ideal())
    back = ioformats.complex_from_json(json.loads(json.dumps(
        ioformats.complex_to_json(T))))
    back.validate()
    assert back.diff == T.diff
    assert back.ranks() == T.ranks()
    assert {b.bid: b.mdeg for bl in back.bases.values() for b in bl} == \
        {b.bid: b.mdeg for bl in T.bases.values() for b in bl}


def test_complex_json_round_trip_keeps_the_bases():
    complex_ = minimize(taylor_complex(cycle_ideal(6)))[0]
    back = ioformats.complex_from_json(ioformats.complex_to_json(complex_))
    assert back.bases == complex_.bases


def test_complex_json_checks_the_exponent_column():
    doc = ioformats.complex_to_json(taylor_complex(cycle_ideal(4)))
    doc["differential"][0][3] = [9, 9, 9, 9]
    with pytest.raises(ioformats.ParseError, match="disagrees"):
        ioformats.complex_from_json(doc)
    doc["differential"][0][1] = [7]
    with pytest.raises(ioformats.ParseError, match=r"unknown basis id \[7\]"):
        ioformats.complex_from_json(doc)


def test_multiplication_json_round_trip():
    T = taylor_complex(taylor_equals_scarf_ideal())
    mult = taylor_multiplication(T)
    doc = json.loads(json.dumps(ioformats.mult_to_json(mult)))
    back = ioformats.mult_from_json(T, doc)
    assert back.table == mult.table
    assert back.laurent == mult.laurent
    doc["entries"][0][4] = [9, 9, 9]
    with pytest.raises(ioformats.ParseError, match="disagrees"):
        ioformats.mult_from_json(T, doc)


def test_multiplication_json_is_validated():
    T = taylor_complex(taylor_equals_scarf_ideal())

    def entry(u, v, w):
        d = T.by_id
        exp = vec_sub(vec_add(d[u].mdeg, d[v].mdeg), d[w].mdeg)
        return [list(u), list(v), list(w), "1", list(exp)]

    bad = [
        (entry((0,), (0,), (0, 1)), "odd-degree"),
        (entry((0,), (1,), (0, 1, 2)), "wrong hdeg"),
        (entry((0,), (1,), (0, 2)), "negative exponent"),
    ]
    for row, message in bad:
        with pytest.raises(ValueError, match=message):
            ioformats.mult_from_json(T, {"entries": [row]})
    unknown = [[0], [7], [0, 1], "1", [0, 0, 0]]
    with pytest.raises(ioformats.ParseError, match="unknown basis id"):
        ioformats.mult_from_json(T, {"entries": [unknown]})


def test_transfer_json_shape():
    small, transfer = minimize(taylor_complex(cycle_ideal(4)))
    doc = ioformats.transfer_to_json(transfer)
    assert set(doc) == {"inclusion", "projection", "homotopy"}
    for rows in doc.values():
        for src, tgt, scalar in rows:
            assert isinstance(src, list) and isinstance(tgt, list)
            assert ioformats.Fraction(scalar) != 0


# --- command line -----------------------------------------------------


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.ideal"
    path.write_text(ioformats.format_ideal(cycle_ideal(6)))
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.ideal"
    path.write_text("vars: 3\nx1^2\nx1*x2\nx1*x3\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_betti(capsys, cycle_file):
    code, out, _ = run_cli(capsys, "betti", cycle_file)
    assert code == 0
    assert out.splitlines()[0] == "betti totals: 1 6 9 6 2"


def test_cli_json_flag_both_positions(capsys, cycle_file):
    code, out, _ = run_cli(capsys, "--json", "betti", cycle_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["totals"] == [1, 6, 9, 6, 2]
    code, out2, _ = run_cli(capsys, "betti", cycle_file, "--json")
    assert code == 0
    assert json.loads(out2) == doc


def test_cli_resolve(capsys, cycle_file):
    code, out, _ = run_cli(capsys, "resolve", cycle_file)
    assert code == 0
    assert "ranks: 1 6 9 6 2" in out
    assert "verified (resolution, minimal, transfer): yes" in out
    code, out, _ = run_cli(capsys, "resolve", cycle_file, "--show-transfer")
    assert code == 0
    assert "homotopy:" in out


def test_cli_taylor(capsys, line_file):
    code, out, _ = run_cli(capsys, "taylor", line_file, "--with-multiplication")
    assert code == 0
    assert out.splitlines()[0] == "full complex ranks: 1 3 3 1"
    assert "multiplication entries:" in out


def test_cli_scarf(capsys, tmp_path):
    path = tmp_path / "tagged.ideal"
    path.write_text(ioformats.format_ideal(tagged_four_cycle_ideal()))
    code, out, _ = run_cli(capsys, "scarf", str(path))
    assert code == 0
    assert "f-vector: 1 4 5 2" in out
    assert "resolves: yes" in out


def test_cli_lyubeznik(capsys, tmp_path):
    path = tmp_path / "generic.ideal"
    path.write_text(ioformats.format_ideal(strongly_generic_ideal()))
    code, out, _ = run_cli(capsys, "lyubeznik", str(path), "--order", "1,3,0,2,4")
    assert code == 0
    assert "ranks: 1 5 8 5 1" in out
    assert "resolves: yes, minimal: yes" in out
    code, _, err = run_cli(capsys, "lyubeznik", str(path), "--order", "0,0,1")
    assert code == 1
    assert "exactly once" in err


def test_cli_dga_modes(capsys, line_file):
    code, out, _ = run_cli(capsys, "dga", "verify", line_file)
    assert code == 0 and "supportive: yes" in out
    code, out, _ = run_cli(capsys, "dga", "solve", line_file)
    assert code == 0
    assert "solution space dimension: 1" in out
    code, out, _ = run_cli(capsys, "dga", "scale", line_file)
    assert code == 0
    assert "verified minimal associative resolution: yes" in out
    code, out, _ = run_cli(capsys, "dga", "supportive", line_file)
    assert code == 0
    assert "built through the squarefree copy in 4 variables" in out


def test_cli_dga_transfer_flags_nonassociative(capsys, tmp_path):
    path = tmp_path / "path.ideal"
    path.write_text("x1*x2\nx2*x3\nx3*x4\nx4*x5\nx5*x6\n")
    code, out, _ = run_cli(capsys, "dga", "transfer", str(path))
    assert code == 0
    assert "associative=FAIL" in out
    code, out, _ = run_cli(capsys, "dga", "laurent", str(path))
    assert code == 0
    # supportive skips associativity, which fails on this ideal
    code, out, _ = run_cli(capsys, "dga", "supportive", str(path))
    assert code == 0 and "associative=skipped" in out
    code, out, _ = run_cli(capsys, "--json", "dga", "supportive", str(path))
    assert code == 0 and json.loads(out)["axioms"]["associative"] is None


def test_cli_relabel(capsys, tmp_path):
    src = tmp_path / "src.ideal"
    src.write_text("x1\nx2\n")
    tgt = tmp_path / "tgt.ideal"
    tgt.write_text("x1^2\nx2^3\n")
    code, out, _ = run_cli(capsys, "relabel", str(src), "--target", str(tgt))
    assert code == 0
    assert "verified resolution of the target: yes" in out
    bad = tmp_path / "bad.ideal"
    bad.write_text("x1\n")
    code, out, _ = run_cli(capsys, "relabel", str(src), "--target", str(bad))
    assert code == 1
    assert "not isomorphic" in out


def test_cli_fvector(capsys):
    code, out, _ = run_cli(capsys, "fvector", "check", "--vector", "1,6,9,6,2")
    assert code == 1
    assert "not a simplicial complex f-vector" in out
    code, out, _ = run_cli(capsys, "fvector", "cone", "--vector", "1,4,5,2")
    assert code == 0
    assert "a cone f-vector" in out
    code, out, _ = run_cli(capsys, "fvector", "cone", "--vector", "1,6,9,6,2")
    assert code == 1


def test_cli_construct(capsys, tmp_path):
    path = tmp_path / "cone.complex"
    path.write_text("1 2 4\n2 3 4\n")
    code, out, _ = run_cli(capsys, "construct", "from-complex", str(path))
    assert code == 0
    built = ioformats.parse_ideal_text(
        "\n".join(out.splitlines()[1:]))
    assert built.k == 4 and built.num_vars == 11


def test_cli_construct_on_the_seven_vertex_boundary_cone(capsys, tmp_path):
    # the cone over the boundary of a 5-simplex: 126 faces, 7 vertices
    path = tmp_path / "cone.complex"
    path.write_text("".join(" ".join(str(v) for v in face) + " 7\n"
                            for face in combinations(range(1, 7), 5)))
    code, out, _ = run_cli(capsys, "--json", "construct", "from-complex", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["f_vector"] == [1, 7, 21, 35, 35, 21, 6]
    assert doc["ideal"]["vars"] == 125 and len(doc["ideal"]["generators"]) == 7


def test_cli_relabel_onto_a_shuffled_cycle(capsys, tmp_path):
    src = tmp_path / "c10.ideal"
    src.write_text(ioformats.format_ideal(cycle_ideal(10)))
    tgt = tmp_path / "shuffled.ideal"
    tgt.write_text(ioformats.format_ideal(shuffled(cycle_ideal(10), random.Random(0))))
    code, out, _ = run_cli(capsys, "relabel", str(src), "--target", str(tgt))
    assert code == 0
    assert "verified resolution of the target: yes" in out


def test_cli_examples(capsys):
    code, out, _ = run_cli(capsys, "examples", "run", "4.3")
    assert code == 0
    assert out.splitlines()[0] == "[4.3] PASS"
    code, out, _ = run_cli(capsys, "--json", "examples", "run", "4.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["cases"][0]["name"] == "4.3"


def test_cli_error_exit_codes(capsys, tmp_path, cycle_file):
    code, _, err = run_cli(capsys, "betti", str(tmp_path / "missing.ideal"))
    assert code == 2
    bad = tmp_path / "bad.ideal"
    bad.write_text("x1\nx0\n")
    code, _, err = run_cli(capsys, "betti", str(bad))
    assert code == 2
    assert "line 2" in err
    code, _, err = run_cli(capsys, "betti", cycle_file, "--max-gens", "2")
    assert code == 2
    assert "over the --max-gens limit" in err
    # lattices past 64 elements (66 and 90 here) have no size cap
    big = tmp_path / "big.complex"
    big.write_text("1 2 3 4 5 6\n7\n")
    code, _, err = run_cli(capsys, "construct", "from-complex", str(big))
    assert code == 0 and err == ""
    c8 = tmp_path / "c8.ideal"
    c8.write_text(ioformats.format_ideal(cycle_ideal(8)))
    code, out, err = run_cli(capsys, "relabel", str(c8), "--target", str(c8))
    assert code == 0 and err == ""
    assert "verified resolution of the target: yes" in out


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dgares", "fvector", "cone", "--vector", "1,4,5,2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "a cone f-vector" in proc.stdout
