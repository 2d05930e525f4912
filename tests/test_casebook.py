"""The runnable example catalog: every case passes every check it
claims, and the reporting helpers stay stable."""

import pytest

from dgares import casebook
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


def test_run_all_serial_and_parallel():
    serial = run_all()
    assert [r.name for r in serial] == list(CASES)
    assert all(r.passed for r in serial)
    parallel = run_all(jobs=2)
    assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]


def test_run_all_starts_no_more_workers_than_cases(monkeypatch):
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(casebook, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(casebook, "run_case", lambda name: name)
    assert run_all(jobs=10**6) == list(CASES)
    assert seen == [len(CASES)]
