"""The runnable example catalog: every case passes every check it
claims, and the reporting helpers stay stable."""

import pytest

from dgares.casebook import CASES, run_all, run_case


@pytest.mark.parametrize("name", CASES)
def test_case_passes(name):
    result = run_case(name)
    failing = [(label, detail) for label, ok, detail in result.checks if not ok]
    assert result.passed, failing
    assert result.name == name
    assert len(result.checks) >= 5


def test_unknown_case():
    with pytest.raises(ValueError, match="unknown case"):
        run_case("9.9")


def test_lines_and_json():
    result = run_case("4.3")
    lines = result.lines()
    assert lines[0] == "[4.3] PASS"
    assert len(lines) == len(result.checks) + 1
    assert all(line.startswith("  ok")
               for line in lines[1:])
    blob = result.to_json()
    assert blob["name"] == "4.3" and blob["passed"] is True
    assert [c["label"] for c in blob["checks"]] == [
        label for label, _, _ in result.checks
    ]


def test_run_all_runs_every_case_in_order():
    results = run_all()
    assert [r.name for r in results] == list(CASES)
    assert all(r.passed for r in results)
