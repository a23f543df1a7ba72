"""Smoke test of the benchmark's generators and checks at n = 5.

Each workload's first scenario must pass its check, and corrupted copies
of its output must fail it, so a check that always passes cannot go
unnoticed.  Run from the root of a source checkout::

    python3 -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

qm = run.import_qmeasure()
SEED = 101


def _case_and_outcome(name: str, index: int = 0, n: int | None = 5):
    w = workloads.WORKLOADS[name]
    case = w.make_cases(SEED, n)[index]
    return w, case, workloads.execute(qm, case.text, w.engines)


def _bump(text: str, row_start: str, column: int) -> str:
    """Raise the first digit of one cell (first row starting with ``row_start``)."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(row_start):
            start, end = [m.span() for m in re.finditer(r"\S+(?: \S+)*", line)][column]
            cell = line[start:end]
            digit = re.search(r"\d", cell).start()
            bumped = cell[:digit] + str((int(cell[digit]) + 1) % 10) + cell[digit + 1:]
            lines[i] = line[:start] + bumped + line[end:]
            return "\n".join(lines)
    raise AssertionError(f"no row starting with {row_start!r}")


def _drop_last_row(text: str, title: str) -> str:
    head, _, rest = text.partition(f"== {title} ==\n")
    block, sep, tail = rest.partition("\n\n")
    return head + f"== {title} ==\n" + block.rsplit("\n", 1)[0] + sep + tail


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_scenario_at_n5_passes(name):
    w, case, outcome = _case_and_outcome(name)
    assert w.check(case, outcome) is None


def test_generated_scripts_at_n5_pass_including_coded_failures():
    w = workloads.WORKLOADS["small_scripts"]
    cases = w.make_cases(SEED, 5)
    kinds = {case.expect.get("error", ("ok",))[0] for case in cases}
    assert kinds == {"ok", "run", "parse"}
    for case in cases:
        assert w.check(case, workloads.execute(qm, case.text, w.engines)) is None, case.name


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS.values():
        assert w.make_cases(SEED, 5) == w.make_cases(SEED, 5)
        assert w.make_cases(SEED, 5) != w.make_cases(SEED + 1, 5)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: _bump(t, "total", 1),  # ledger total
        lambda t: _bump(t, "↓↓", 1),  # a branch amplitude off the closed form
        lambda t: _bump(t, "aggregate", 1),
        lambda t: _drop_last_row(t, "step 4: branches"),
    ],
)
def test_corrected_z_rejects_corrupted_report(corrupt):
    w, case, (text,) = _case_and_outcome("corrected_z")
    assert w.check(case, [corrupt(text)]) is not None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: _bump(t, "→→", 1),  # an X-frame branch probability
        lambda t: t.replace("  →\n", "  inconsistent\n", 1),  # a recovered record
        lambda t: _drop_last_row(t, "step 7: branches"),
        lambda t: _bump(t, "aggregate", 1),
    ],
)
def test_wide_branches_rejects_corrupted_report(corrupt):
    w, case, (text,) = _case_and_outcome("wide_branches")
    corrupted = corrupt(text)
    assert corrupted != text
    assert w.check(case, [corrupted]) is not None


def test_env_reject_rejects_wrong_outcomes():
    w, case, (error,) = _case_and_outcome("env_reject")
    wrong_step = qm.runner.RunError(2, None, error.cause)
    wrong_cause = qm.runner.RunError(1, None, ValueError("carry no GHZ structure"))
    report = qm.runner.Report(()).render_text()
    for outcome in ([wrong_step], [wrong_cause], [report], error):
        assert w.check(case, outcome) is not None


def test_small_scripts_reject_engine_disagreement_and_missing_errors():
    w, case, (gates, oracle) = _case_and_outcome("small_scripts")
    assert w.check(case, [gates, _bump(oracle, "norm", 1)]) is not None
    assert w.check(case, [gates, ValueError("boom")]) is not None
    failing = w.make_cases(SEED, 5)[workloads.FAILING_EVERY - 1]
    assert w.check(failing, [gates, gates]) is not None


def test_shipped_file_must_match_golden_bytes():
    w = workloads.WORKLOADS["small_scripts"]
    case = w.make_cases(SEED, None)[0]
    gates, oracle = workloads.execute(qm, case.text, w.engines)
    assert w.check(case, [gates, oracle]) is None
    assert w.check(case, [gates + " ", oracle + " "]) is not None
