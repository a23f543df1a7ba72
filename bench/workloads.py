"""Seeded scenario generators and output checks for the benchmark workloads.

Every workload turns a seed into a list of :class:`Case` objects.  A case
holds the scenario JSON the program receives and the facts its check needs
(closed-form amplitudes, expected ledger totals, an expected coded error).
Generation uses only the standard library so that the set-up probe can
build its input before ``import qmeasure`` (and numpy) is timed.

Checks read the program's rendered text reports, or the exception a run
ended with, and return ``None`` when the output is right or a one-line
reason when it is not.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
UP, DOWN, RIGHT, LEFT = "↑", "↓", "→", "←"
NUM_TOL = 1e-10  # per rendered number; reports print 12 significant digits
SUM_TOL = 1e-9  # for sums over up to 2^n rendered probabilities


@dataclass(frozen=True)
class Case:
    """One scenario: its id, the JSON text handed to the program, check facts."""

    name: str
    text: str
    expect: dict


@dataclass(frozen=True)
class Workload:
    """A named scenario family.

    ``engines`` are the runner engines every case runs on, in order;
    ``make_cases(seed, n)`` builds the pool a run cycles through (``n`` is
    the register size, ``None`` for the workload's benchmark size);
    ``check(case, outcome)`` judges what :func:`execute` returned.
    """

    name: str
    engines: tuple[str, ...]
    make_cases: Callable[[int, int | None], list[Case]]
    check: Callable[[Case, Any], str | None]


# ---------------------------------------------------------------- running

def execute(qm, text: str, engines: tuple[str, ...]):
    """Parse once, run on each engine and render: the timed unit of work.

    Returns the exception if parsing fails, else one entry per engine: the
    rendered text report or the exception the run raised.  Program entry
    points are looked up on their modules at call time so that a traced run
    can rebind them.
    """
    try:
        scenario = qm.scenario.parse_scenario(text)
    except Exception as exc:  # judged by the workload's check
        return exc
    results = []
    for engine in engines:
        try:
            results.append(qm.runner.run(scenario, engine=engine).render_text())
        except Exception as exc:  # judged by the workload's check
            results.append(exc)
    return results


# ------------------------------------------------------- report reading

def parse_report(text: str) -> dict[str, list[list[str]]]:
    """Section title -> rows of cells, from a rendered text report.

    Cells are separated by two or more spaces; an empty cell (the
    agreement aggregate's probability column) disappears from its row.
    """
    sections: dict[str, list[list[str]]] = {}
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        title = lines[0]
        if not (title.startswith("== ") and title.endswith(" ==")):
            raise ValueError(f"bad section header {title!r}")
        sections[title[3:-3]] = [re.split(r" {2,}", line) for line in lines[1:]]
    return sections


def compare_reports(a: str, b: str) -> str | None:
    """Same sections, rows and words, with numbers equal to ``NUM_TOL``."""
    try:
        sa, sb = parse_report(a), parse_report(b)
    except ValueError as exc:
        return str(exc)
    if list(sa) != list(sb):
        return f"section titles differ: {list(sa)} vs {list(sb)}"
    for title in sa:
        ra, rb = sa[title], sb[title]
        if len(ra) != len(rb):
            return f"{title}: {len(ra)} vs {len(rb)} rows"
        for row_a, row_b in zip(ra, rb):
            if len(row_a) != len(row_b):
                return f"{title}: row {row_a} vs {row_b}"
            for x, y in zip(row_a, row_b):
                if x == y:
                    continue
                try:
                    if abs(float(x) - float(y)) <= NUM_TOL:
                        continue
                except ValueError:
                    pass
                return f"{title}: cell {x!r} vs {y!r}"
    return None


def _single_text(outcome) -> str:
    """The one rendered report of a single-engine case, or raise with the error."""
    if isinstance(outcome, Exception):
        raise _CheckFailed(f"parse raised {type(outcome).__name__}: {outcome}")
    (result,) = outcome
    if isinstance(result, Exception):
        raise _CheckFailed(f"run raised {type(result).__name__}: {result}")
    return result


class _CheckFailed(Exception):
    pass


def _checked(fn):
    def check(case: Case, outcome) -> str | None:
        try:
            return fn(case, outcome)
        except _CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"
    return check


# ------------------------------------------------------------ amplitudes

def generic_pair(rng: random.Random) -> list[list[float]]:
    """Random complex pair, as [[re, im], [re, im]], far from every degenerate case.

    Both components and both of their sum and difference keep at least a
    fifth of the pair's norm, so every closed-form branch count below holds.
    """
    while True:
        a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.hypot(abs(a), abs(b))
        if min(abs(a), abs(b), abs(a + b), abs(a - b)) >= 0.2 * norm:
            return [[a.real, a.imag], [b.real, b.imag]]


def _unit(pair: list[list[float]]) -> tuple[complex, complex]:
    a, b = complex(*pair[0]), complex(*pair[1])
    norm = math.hypot(abs(a), abs(b))
    return a / norm, b / norm


def _hadamard(pair: tuple[complex, complex]) -> tuple[complex, complex]:
    a, b = pair
    return (a + b) / math.sqrt(2.0), (a - b) / math.sqrt(2.0)


def _env_labels(count: int) -> list[str]:
    return [f"e{i}" for i in range(1, count + 1)]


def _declarations(psi, phi, chi, env) -> list[dict]:
    return [
        {"label": "s", "amplitudes": psi},
        {"label": "o", "amplitudes": phi},
        {"ghz": {"labels": env, "coefficients": chi}},
    ]


def _case_rngs(seed: int, name: str, count: int):
    for i in range(count):
        yield f"{name}-{seed}-{i}", random.Random(f"{name}:{seed}:{i}")


def _closed_branches(amps, symbols, n_env_copies):
    """Sorted (outcome, amplitude) rows of ψ_i|ii⟩ ⊗ χ_k|k…k⟩ ⊗ φ_j."""
    psi, chi, phi = amps
    rows = []
    for i in (0, 1):
        for k in (0, 1):
            for j in (0, 1):
                outcome = symbols[i] * 2 + symbols[k] * n_env_copies + symbols[j]
                rows.append((outcome, psi[i] * chi[k] * phi[j]))
    return rows


def _check_branch_rows(rows: list[list[str]], expected) -> None:
    body = rows[1:]
    if len(body) != len(expected):
        raise _CheckFailed(f"{len(body)} branch rows, expected {len(expected)}")
    for row, (outcome, amp) in zip(body, expected):
        if row[0] != outcome:
            raise _CheckFailed(f"branch {row[0]!r}, expected {outcome!r}")
        for cell, want in zip(row[1:], (amp.real, amp.imag, abs(amp) ** 2)):
            if abs(float(cell) - want) > NUM_TOL:
                raise _CheckFailed(f"branch {outcome}: {cell} vs closed form {want!r}")


def _aggregates(rows: list[list[str]]) -> list[float]:
    last = rows[-1]
    if last[0] != "aggregate":
        raise _CheckFailed(f"agreement table ends in {last[0]!r}")
    return [float(cell) for cell in last[1:]]


# ----------------------------------------------------------- corrected_z

def corrected_z_cases(seed: int, n: int | None = None) -> list[Case]:
    """s, o and an (n−2)-qubit GHZ environment; corrected measurement in Z."""
    n = 20 if n is None else n
    env = _env_labels(n - 2)
    cases = []
    for name, rng in _case_rngs(seed, "corrected_z", 16):
        psi, phi, chi = generic_pair(rng), generic_pair(rng), generic_pair(rng)
        doc = {
            "subsystems": _declarations(psi, phi, chi, env),
            "script": [
                {"op": "ledger", "tag": "before"},
                {"op": "corrected_measure", "signal": "s", "observer": "o",
                 "environment": env, "basis": "Z"},
                {"op": "ledger", "tag": "after"},
                {"op": "branches", "basis": "Z"},
                {"op": "agreement", "basis": "Z", "pairs": [["s", "o"]]},
            ],
        }
        branches = _closed_branches(
            (_unit(psi), _unit(chi), _unit(phi)), (UP, DOWN), len(env) - 1
        )
        cases.append(Case(name, json.dumps(doc), {"total": len(env) - 1, "branches": branches}))
    return cases


@_checked
def check_corrected_z(case: Case, outcome) -> str | None:
    report = parse_report(_single_text(outcome))
    totals = [
        int(report[title][-1][1])
        for title in ("step 1: ledger 'before'", "step 3: ledger 'after'")
    ]
    if totals != [case.expect["total"]] * 2:
        return f"ledger totals {totals}, expected {case.expect['total']} twice"
    _check_branch_rows(report["step 4: branches"], case.expect["branches"])
    if abs(_aggregates(report["step 5: agreement"])[0] - 1.0) > NUM_TOL:
        return "s=o agreement aggregate is not 1"
    return None


# --------------------------------------------------------- wide_branches

def wide_branches_cases(seed: int, n: int | None = None) -> list[Case]:
    """X-frame environment, corrected measurement in X, then dense Z tables."""
    n = 14 if n is None else n
    env = _env_labels(n - 2)
    records = env[:-1][:3]  # e1…e(N−1) keep the GHZ record; eN ends up holding φ
    cases = []
    for name, rng in _case_rngs(seed, "wide_branches", 16):
        psi, phi, chi = generic_pair(rng), generic_pair(rng), generic_pair(rng)
        script = [{"op": "rotate_basis", "target": lbl} for lbl in env]
        script += [
            {"op": "corrected_measure", "signal": "s", "observer": "o",
             "environment": env, "basis": "X"},
            {"op": "agreement", "basis": "X",
             "pairs": [["s", "o"], ["e1", "e2"], ["e1", env[-2]]]},
            {"op": "recover", "basis": "X", "records": records},
            {"op": "branches", "basis": "Z"},
            {"op": "agreement", "basis": "Z", "pairs": [["s", "o"]]},
        ]
        doc = {"subsystems": _declarations(psi, phi, chi, env), "script": script}
        # In the X frame the output is (Hψ)_i|ii⟩ ⊗ χ_k|k…k⟩ ⊗ (Hφ)_j; in Z,
        # s and o agree with probability |ψ_↑|².
        x_branches = _closed_branches(
            (_hadamard(_unit(psi)), _unit(chi), _hadamard(_unit(phi))),
            (RIGHT, LEFT),
            len(env) - 1,
        )
        expect = {
            "n": n,
            "x_branches": [(outcome, abs(amp) ** 2) for outcome, amp in x_branches],
            "z_agree": abs(_unit(psi)[0]) ** 2,
            "steps": [len(env) + k for k in (2, 3, 4, 5)],
        }
        cases.append(Case(name, json.dumps(doc), expect))
    return cases


@_checked
def check_wide_branches(case: Case, outcome) -> str | None:
    report = parse_report(_single_text(outcome))
    agree_x, recover, branches_z, agree_z = (
        report[f"step {k}: {what}"]
        for k, what in zip(case.expect["steps"], ("agreement", "record recovery",
                                                  "branches", "agreement"))
    )
    if any(abs(w - 1.0) > NUM_TOL for w in _aggregates(agree_x)):
        return f"X-frame agreement aggregates {agree_x[-1]} are not all 1"
    expected = case.expect["x_branches"]
    if len(agree_x) - 2 != len(expected):
        return f"{len(agree_x) - 2} X-frame branches, expected {len(expected)}"
    for row, (outcome, prob) in zip(agree_x[1:-1], expected):
        if row[0] != outcome or abs(float(row[1]) - prob) > NUM_TOL:
            return f"X-frame branch {row[:2]}, closed form {outcome} {prob!r}"
    if any(row[-1] == "inconsistent" for row in recover[1:]):
        return "record recovery has an inconsistent row"
    dim = 2 ** case.expect["n"]
    if len(branches_z) - 1 != dim:
        return f"{len(branches_z) - 1} Z branches, expected {dim}"
    total = math.fsum(float(row[3]) for row in branches_z[1:])
    if abs(total - 1.0) > SUM_TOL:
        return f"Z branch probabilities sum to {total!r}"
    if len(agree_z) - 2 != dim:
        return f"{len(agree_z) - 2} Z agreement rows, expected {dim}"
    (z_agree,) = _aggregates(agree_z)
    if abs(z_agree - case.expect["z_agree"]) > SUM_TOL:
        return f"Z agreement {z_agree!r}, closed form {case.expect['z_agree']!r}"
    return None


# ------------------------------------------------------------ env_reject

REJECT_MESSAGE = "carry no GHZ structure"


def env_reject_cases(seed: int, n: int | None = None) -> list[Case]:
    """Z-frame GHZ environment handed to an X-basis corrected measurement."""
    n = 18 if n is None else n
    env = _env_labels(n - 2)
    cases = []
    for name, rng in _case_rngs(seed, "env_reject", 16):
        psi, phi, chi = generic_pair(rng), generic_pair(rng), generic_pair(rng)
        doc = {
            "subsystems": _declarations(psi, phi, chi, env),
            "script": [
                {"op": "corrected_measure", "signal": "s", "observer": "o",
                 "environment": env, "basis": "X"},
                {"op": "branches", "basis": "Z"},
            ],
        }
        cases.append(Case(name, json.dumps(doc), {}))
    return cases


def _expect_run_error(result, step: int, cause: str, message: str | None = None) -> str | None:
    if not isinstance(result, Exception):
        return f"run succeeded; expected {cause} at step {step}"
    if type(result).__name__ != "RunError":
        return f"{type(result).__name__}: {result}; expected RunError"
    got = type(result.cause).__name__
    if result.step_number != step or got != cause:
        return f"RunError at step {result.step_number} from {got}; expected step {step}, {cause}"
    if message is not None and message not in str(result.cause):
        return f"rejection message {str(result.cause)!r} lacks {message!r}"
    return None


def check_env_reject(case: Case, outcome) -> str | None:
    if isinstance(outcome, Exception):
        return f"parse raised {type(outcome).__name__}: {outcome}"
    (result,) = outcome
    return _expect_run_error(result, 1, "EnvironmentNotGHZError", REJECT_MESSAGE)


# --------------------------------------------------------- small_scripts

SHIPPED = ("basic_measurement", "corrected_n3", "different_basis", "record_recovery")
FAILING_EVERY = 10  # every 10th generated script is built to fail with a coded error


def _gate_phase(rng: random.Random, labels: list[str]) -> list[dict]:
    """One of each gate step kind, in random order, on random operands."""
    steps = []
    for op in rng.sample(
        ["imprint", "inverse_imprint", "swap", "rotate_basis", "uncorrected_measure"], 5
    ):
        if op == "rotate_basis":
            steps.append({"op": op, "target": rng.choice(labels)})
        elif op == "swap":
            a, b = rng.sample(labels, 2)
            steps.append({"op": op, "a": a, "b": b})
        elif op == "uncorrected_measure":
            s, o, e = rng.sample(labels, 3)
            steps.append({"op": op, "signal": s, "observer": o, "environment": e})
        else:
            src, tgt = rng.sample(labels, 2)
            steps.append({"op": op, "source": src, "target": tgt})
    return steps


def _random_basis(rng: random.Random, labels: list[str]):
    if rng.random() < 0.5:
        return rng.choice("ZX")
    return {lbl: rng.choice("ZX") for lbl in rng.sample(labels, rng.randint(1, len(labels)))}


def _analysis_phase(rng: random.Random, labels: list[str]) -> list[dict]:
    pairs = [rng.sample(labels, 2) for _ in range(rng.randint(1, 2))]
    return [
        {"op": "branches", "basis": _random_basis(rng, labels)},
        {"op": "agreement", "basis": _random_basis(rng, labels), "pairs": pairs},
        {"op": "recover", "basis": _random_basis(rng, labels),
         "records": rng.sample(labels, rng.randint(1, 3))},
    ]


def small_script_doc(rng: random.Random, n: int, basis: str, r_basis: str) -> dict:
    """A valid n-qubit script that uses every step kind.

    A ledgered corrected measurement in ``basis`` (Z, or X with the
    environment rotated into the X frame and everything rotated back before
    the second ledger) and, when a ready qubit r exists, an ideal
    measurement onto it in ``r_basis``; then one step of each gate kind on
    random operands, then random analysis steps, which succeed on any state.
    """
    ready = n >= 6
    env = _env_labels(n - 2 - int(ready))
    subsystems = _declarations(generic_pair(rng), generic_pair(rng), generic_pair(rng), env)
    if ready:
        subsystems.insert(2, {"label": "r", "amplitudes": [[1, 0], [0, 0]] if r_basis == "Z"
                              else [[1, 0], [1, 0]]})
    script = [{"op": "ledger", "tag": "before"}]
    if basis == "X":
        script += [{"op": "rotate_basis", "target": lbl} for lbl in env]
    script.append({"op": "corrected_measure", "signal": "s", "observer": "o",
                   "environment": env, "basis": basis})
    if basis == "X":
        script += [{"op": "rotate_basis", "target": lbl} for lbl in ("s", "o", *env)]
    script += [
        {"op": "ledger", "tag": "after"},
        {"op": "branches", "basis": "Z"},
        {"op": "agreement", "basis": "Z", "pairs": [["s", "o"]]},
        {"op": "recover", "basis": "Z", "records": env[:2]},
    ]
    if ready:
        script.append({"op": "ideal_measure", "signal": "s", "observer": "r", "basis": r_basis})
    labels = ["s", "o", *(["r"] if ready else []), *env]
    script += _gate_phase(rng, labels)
    script += _analysis_phase(rng, labels)
    return {
        "subsystems": subsystems,
        "script": script,
        "options": {"relabel": rng.random() < 0.5},
    }


def _failing_doc(rng: random.Random, n: int, kind: str) -> tuple[dict, dict]:
    """A script built to fail: an observer that is not ready, or an unknown label."""
    env = _env_labels(n - 2)
    doc = {"subsystems": _declarations(generic_pair(rng), generic_pair(rng),
                                       generic_pair(rng), env)}
    if kind == "not_ready":
        doc["script"] = [
            {"op": "branches", "basis": "Z"},
            {"op": "ideal_measure", "signal": "s", "observer": "o", "basis": rng.choice("ZX")},
        ]
        return doc, {"error": ("run", 2, "ObserverNotReadyError")}
    doc["script"] = [
        {"op": "branches", "basis": "Z"},
        {"op": "agreement", "pairs": [["s", "ghost"]]},
    ]
    return doc, {"error": ("parse", "unknown-label")}


def small_scripts_cases(seed: int, n: int | None = None) -> list[Case]:
    """The shipped scenario files, then 200 generated scripts at n = 5…8.

    With ``n`` given, only generated scripts of that size are returned.
    """
    cases = []
    if n is None:
        for stem in SHIPPED:
            text = (ROOT / "scenarios" / f"{stem}.json").read_text(encoding="utf-8")
            golden = (ROOT / "tests" / "golden" / f"{stem}.txt").read_text(encoding="utf-8")
            cases.append(Case(f"shipped-{stem}", text, {"golden": golden}))
    # Sizes, bases and failure kinds follow the index, so every seed gets
    # the same mix and only amplitudes and operands change with the seed.
    for i, (name, rng) in enumerate(_case_rngs(seed, "small_scripts", 200)):
        size = 5 + i % 4 if n is None else n
        if i % FAILING_EVERY == FAILING_EVERY - 1:
            kind = ("not_ready", "unknown_label")[(i // FAILING_EVERY) % 2]
            doc, expect = _failing_doc(rng, size, kind)
        else:
            doc = small_script_doc(rng, size, "ZX"[(i // 4) % 2], "ZX"[(i // 8) % 2])
            analysis_ops = ("branches", "ledger", "agreement", "recover")
            sections = 2 + sum(step["op"] in analysis_ops for step in doc["script"])
            expect = {"sections": sections}
        cases.append(Case(name, json.dumps(doc), expect))
    return cases


@_checked
def check_small_scripts(case: Case, outcome) -> str | None:
    error = case.expect.get("error")
    if error is not None and error[0] == "parse":
        if type(outcome).__name__ != "ScenarioError" or outcome.code != error[1]:
            return f"got {outcome!r}; expected ScenarioError [{error[1]}]"
        return None
    if isinstance(outcome, Exception):
        return f"parse raised {type(outcome).__name__}: {outcome}"
    if error is not None:
        for result in outcome:
            reason = _expect_run_error(result, error[1], error[2])
            if reason is not None:
                return reason
        return None
    gates, oracle = outcome
    for engine, result in (("gates", gates), ("oracle", oracle)):
        if isinstance(result, Exception):
            return f"{engine} run raised {type(result).__name__}: {result}"
    if "golden" in case.expect and gates != case.expect["golden"]:
        return "gates report differs from the golden file"
    reason = compare_reports(gates, oracle)
    if reason is not None:
        return f"gates and oracle disagree: {reason}"
    sections = parse_report(gates)
    if "sections" in case.expect and len(sections) != case.expect["sections"]:
        return f"{len(sections)} report sections, expected {case.expect['sections']}"
    if abs(float(sections["final state"][0][1]) - 1.0) > NUM_TOL:
        return "final norm is not 1"
    return None


def byte_mismatch(case: Case, outcome) -> bool | None:
    """Whether the two engines' reports differ byte for byte (None: not comparable)."""
    if isinstance(outcome, Exception) or len(outcome) != 2:
        return None
    gates, oracle = outcome
    if isinstance(gates, Exception) or isinstance(oracle, Exception):
        return None
    return gates != oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corrected_z", ("gates",), corrected_z_cases, check_corrected_z),
        Workload("wide_branches", ("gates",), wide_branches_cases, check_wide_branches),
        Workload("env_reject", ("gates",), env_reject_cases, check_env_reject),
        Workload("small_scripts", ("gates", "oracle"), small_scripts_cases, check_small_scripts),
    )
}
