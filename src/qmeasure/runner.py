"""Scenario execution and deterministic report rendering.

Reports are lists of (title, columns) sections.  Rendering rules are fixed so
that the same scenario and package version always produce byte-identical
output: numbers print with 12 significant digits, "-0" collapses to "0",
values below the branch pruning threshold print as "0", and branch tables
come pre-sorted from the decomposition.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analysis, protocol, statevec
from .gates import GateOp, apply_script
from .oracle import oracle_apply
from .scenario import (
    AgreementStep,
    BranchesStep,
    CorrectedStep,
    GhzDecl,
    IdealStep,
    LedgerStep,
    RecoverStep,
    Scenario,
    SingleDecl,
    Step,
    UncorrectedStep,
)
from .statevec import BranchSet, PRUNE_TOL, PureState, branch_decompose
from .statevec import make_ghz, product_state, tensor  # noqa: F401  (bench/spans.py wraps these names)


#: Most rows the ``branches``, ``agreement`` and ``recover`` steps of one
#: report may render together: every listing of a state over up to 20
#: qubits.  A listing that would take the report past it is refused once its
#: rows are counted, before any is formatted.  Its columns take 24 bytes a
#: row, its rendered text a few hundred, and a report holds every section
#: until it is rendered: 2^20 rows over 20 qubits peak near 1 GiB RSS in
#: ``qmeasure run``, and the refused listing of a dense 24-qubit state near
#: 690 MiB.
LISTING_MAX_ROWS = 2**20


class RunError(Exception):
    """A script step failed at run time; carries the 1-based step number.

    Step number 0 means the initial state could not be built; ``step`` is
    then the declaration that failed.
    """

    def __init__(self, step_number: int, step: Step | SingleDecl | GhzDecl, cause: Exception):
        self.step_number = step_number
        self.cause = cause
        where = f"step {step_number}" if step_number else "initial state"
        super().__init__(f"{where} ({type(step).__name__}): {cause}")


@dataclass(frozen=True)
class Section:
    """A titled table, held as equally long columns of cells, each headed
    by its column title."""

    title: str
    columns: tuple[Sequence[str], ...]

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        return tuple(zip(*self.columns))


def _padded(column: Sequence[str]) -> list[str]:
    width = max(map(len, column))
    return [cell.ljust(width) for cell in column]


@dataclass(frozen=True)
class Report:
    """Ordered report sections with text and JSON renderings."""

    sections: tuple[Section, ...]

    def render_text(self) -> str:
        blocks = []
        for section in self.sections:
            lines = [f"== {section.title} =="]
            if section.columns:
                *front, last = section.columns
                cells = zip(*map(_padded, front), last)
                lines += ["  ".join(row).rstrip() for row in cells]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    def render_json(self) -> str:
        doc = {
            "sections": [
                {"title": s.title, "rows": [list(row) for row in s.rows]}
                for s in self.sections
            ]
        }
        return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def fmt(value: float) -> str:
    """12-significant-digit number formatting with -0 and noise collapsed to 0."""
    if abs(value) < PRUNE_TOL:
        return "0"
    text = f"{value:.12g}"
    return "0" if text in ("-0", "-0.0") else text


def _initial_state(scenario: Scenario) -> PureState:
    """The declared state, stored as ``tensor`` chained over the declared
    states would store it, in one fold of the product rule over their stored
    amplitudes on the parser's register, with one norm check at the end."""
    product: tuple | None = None
    for decl in scenario.declarations:
        try:
            if isinstance(decl, SingleDecl):
                part = statevec._single_part(decl.label, decl.amplitudes)
            elif isinstance(decl, GhzDecl):
                part = statevec._ghz_part(len(decl.labels), decl.coefficients)
            else:
                raise TypeError(f"unknown declaration {decl!r}")
            product = part if product is None else statevec._product(product, part)
        except ValueError as exc:
            raise RunError(0, decl, exc) from exc
    assert product is not None
    _, index, values = product
    return statevec._adopt(scenario.register, values, index)


def _listing(state: PureState, step_basis: dict[str, str], listed: int) -> tuple[BranchSet, int]:
    """The branches a listing step renders and the report's row count with
    them, ``listed`` before; refused past ``LISTING_MAX_ROWS`` in all."""
    basis = {lbl: step_basis.get(lbl, "Z") for lbl in state.register.labels}
    branches = branch_decompose(state, basis)
    listed += len(branches)
    if listed > LISTING_MAX_ROWS:
        raise ValueError(f"{listed} branches exceed the listing limit of {LISTING_MAX_ROWS} rows")
    return branches, listed


def _formatted(title: str, values: np.ndarray) -> list[str]:
    return [title, *map(fmt, values.tolist())]


def _branch_section(title: str, branches: BranchSet) -> Section:
    amplitudes = branches.amplitudes
    return Section(title, (
        ["outcome", *branches.outcomes().tolist()],
        _formatted("re", amplitudes.real),
        _formatted("im", amplitudes.imag),
        _formatted("probability", branches.probabilities),
    ))


def _ledger_section(title: str, entry: analysis.LedgerEntry, tol: float) -> Section:
    clusters, measures = ["cluster"], ["measure"]
    for cluster in entry.decomposition.clusters:
        shown = [
            member + ("~" if flip else "")
            for member, flip in zip(cluster.members, cluster.flips)
        ]
        clusters.append(" ".join(shown))
        measures.append(str(analysis.cluster_measure(cluster, tol)))
    return Section(title, (clusters + ["total"], measures + [str(entry.total)]))


def _agreement_section(
    title: str, branches: BranchSet, report: analysis.AgreementReport
) -> Section:
    columns = [
        ["outcome", *branches.outcomes().tolist(), "aggregate"],
        _formatted("probability", branches.probabilities) + [""],
    ]
    for (a, b), agrees, total in zip(report.pairs, report.agrees.T, report.aggregates):
        columns.append([f"{a}={b}", *map(("no", "yes").__getitem__, agrees.tolist()), fmt(total)])
    return Section(title, tuple(columns))


def _recover_section(title: str, branches: BranchSet, inferred: list[str]) -> Section:
    return Section(title, (
        ["outcome", *branches.outcomes().tolist()],
        _formatted("probability", branches.probabilities),
        ["record", *inferred],
    ))


def run(scenario: Scenario, engine: str = "gates") -> Report:
    """Execute a scenario; every analysis step appends a report section.

    ``engine`` selects how gate scripts are executed: "gates" uses the
    strided kernels, "oracle" routes every unitary through the dense-matrix
    path (same validation, same report shape) for cross-checking.  Both run
    the same protocol procedures; only the executor differs.
    """
    if engine not in ("gates", "oracle"):
        raise ValueError(f"engine must be 'gates' or 'oracle', got {engine!r}")
    state = _initial_state(scenario)
    tol = scenario.options.tolerance
    execute = oracle_apply if engine == "oracle" else apply_script

    sections = [
        Section(
            "initial state",
            (
                ("subsystems", "qubits", "norm"),
                (" ".join(state.register.labels), str(state.n_qubits), fmt(state.norm())),
            ),
        )
    ]
    ledger = analysis.CorrelationLedger()
    listed = 0  # rows of the listings so far

    for i, step in enumerate(scenario.script):
        number = i + 1
        try:
            if isinstance(step, GateOp):
                state = execute(state, [step])
            elif isinstance(step, UncorrectedStep):
                state = protocol.uncorrected_measure(
                    state, step.signal, step.observer, step.environment, execute
                )
            elif isinstance(step, CorrectedStep):
                state = protocol.corrected_measure(state, step.spec, tol, execute)
            elif isinstance(step, IdealStep):
                state = protocol.ideal_measure(
                    state, step.signal, step.observer, step.basis, execute
                )
            elif isinstance(step, BranchesStep):
                branches, listed = _listing(state, step.basis, listed)
                sections.append(_branch_section(f"step {number}: branches", branches))
            elif isinstance(step, LedgerStep):
                ledger = analysis.ledger_record(
                    ledger, state, step.tag, tol, scenario.options.relabel
                )
                sections.append(
                    _ledger_section(f"step {number}: ledger '{step.tag}'", ledger.entries[-1], tol)
                )
            elif isinstance(step, AgreementStep):
                branches, listed = _listing(state, step.basis, listed)
                report = analysis.agreement(branches, step.pairs)
                sections.append(_agreement_section(f"step {number}: agreement", branches, report))
            elif isinstance(step, RecoverStep):
                branches, listed = _listing(state, step.basis, listed)
                inferred = analysis.recover_record(branches, step.records)
                sections.append(
                    _recover_section(f"step {number}: record recovery", branches, inferred)
                )
            else:
                raise TypeError(f"unknown step {step!r}")
        except (ValueError, TypeError) as exc:
            raise RunError(number, step, exc) from exc

    if scenario.script:
        sections.append(Section("final state", (("norm",), (fmt(state.norm()),))))
    return Report(tuple(sections))
