"""Scenario documents: the JSON input contract of the command line front end.

A scenario declares a register with initial states, a script of steps, and
options.  Schema (all amplitudes are [re, im] pairs):

.. code-block:: json

    {
      "subsystems": [
        {"label": "s", "amplitudes": [[0.8, 0], [0.6, 0]]},
        {"ghz": {"labels": ["e1", "e2", "e3"], "coefficients": [[1, 0], [1, 0]]}}
      ],
      "script": [
        {"op": "imprint", "source": "s", "target": "e1"},
        {"op": "corrected_measure", "signal": "s", "observer": "o",
         "environment": ["e1", "e2", "e3"], "basis": "Z"},
        {"op": "branches", "basis": "X"},
        {"op": "ledger", "tag": "after"},
        {"op": "agreement", "basis": "X", "pairs": [["s", "o"]]},
        {"op": "recover", "basis": {"s": "X"}, "records": ["^1o1"]}
      ],
      "options": {"tolerance": 1e-9, "relabel": true}
    }

Gate steps also include ``inverse_imprint`` (source/target), ``swap`` (a/b)
and ``rotate_basis`` (target); ``uncorrected_measure`` takes a single
``environment`` label and ``ideal_measure`` takes signal/observer/basis.
Analysis steps accept ``basis`` as "Z", "X", or a partial mapping (labels
not named default to "Z").

Parsing is strict and performs no computation; every failure carries one of
the error codes in :data:`ERROR_CODES`.
"""
from __future__ import annotations

import json
import sys
from typing import Any, Mapping, NamedTuple

from .analysis import DEFAULT_TOL
from .gates import GateOp, Imprint, InverseImprint, RotateBasis, Swap
from .protocol import MeasurementOutcomeSpec
from .statevec import MAX_QUBITS, Register

ERROR_CODES = (
    "syntax",
    "unknown-label",
    "duplicate-label",
    "bad-amplitude",
    "bad-structure",
)


class ScenarioError(Exception):
    """Scenario document rejected; ``code`` is one of :data:`ERROR_CODES`."""

    def __init__(self, code: str, message: str, line: int | None = None, col: int | None = None):
        assert code in ERROR_CODES
        self.code = code
        self.line = line
        self.col = col
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(f"[{code}] {message}{where}")


class SingleDecl(NamedTuple):
    label: str
    amplitudes: tuple[complex, complex]


class GhzDecl(NamedTuple):
    labels: tuple[str, ...]
    coefficients: tuple[complex, complex]


class UncorrectedStep(NamedTuple):
    signal: str
    observer: str
    environment: str


class CorrectedStep(NamedTuple):
    spec: MeasurementOutcomeSpec


class IdealStep(NamedTuple):
    signal: str
    observer: str
    basis: str


class BranchesStep(NamedTuple):
    basis: dict[str, str]


class LedgerStep(NamedTuple):
    tag: str


class AgreementStep(NamedTuple):
    pairs: tuple[tuple[str, str], ...]
    basis: dict[str, str]


class RecoverStep(NamedTuple):
    records: tuple[str, ...]
    basis: dict[str, str]


Step = (
    GateOp
    | UncorrectedStep
    | CorrectedStep
    | IdealStep
    | BranchesStep
    | LedgerStep
    | AgreementStep
    | RecoverStep
)


class Options(NamedTuple):
    tolerance: float = DEFAULT_TOL
    relabel: bool = True


class Scenario(NamedTuple):
    register: Register
    declarations: tuple[SingleDecl | GhzDecl, ...]
    script: tuple[Step, ...]
    options: Options


def _amplitude_pair(raw: Any, what: str) -> tuple[complex, complex]:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(p, list) and len(p) == 2 for p in raw)
    ):
        raise ScenarioError("bad-amplitude", f"{what}: expected two [re, im] pairs, got {raw!r}")
    values = []
    for pair in raw:
        for part in pair:
            # NaN fails the range test; a 400-digit integer compares exactly.
            finite = isinstance(part, (int, float)) and abs(part) <= sys.float_info.max
            if not finite or isinstance(part, bool):
                raise ScenarioError("bad-amplitude", f"{what}: non-finite or non-numeric entry {part!r}")
        values.append(complex(pair[0], pair[1]))
    if all(v == 0 for v in values):
        raise ScenarioError("bad-amplitude", f"{what}: amplitude pair must not be all zero")
    return (values[0], values[1])


def _label(raw: Any, what: str) -> str:
    if not isinstance(raw, str) or raw.split() != [raw]:
        raise ScenarioError("bad-structure", f"{what}: invalid subsystem label {raw!r}")
    return raw


def _known_label(raw: Any, what: str, declared: set[str]) -> str:
    if isinstance(raw, str) and raw in declared:
        return raw
    label = _label(raw, what)
    raise ScenarioError("unknown-label", f"{what}: label {label!r} is not declared")


def _require(obj: Mapping, keys: tuple[str, ...], what: str, optional: tuple[str, ...] = ()) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ScenarioError("bad-structure", f"{what}: missing keys {missing}")
    stray = [k for k in obj if k not in keys + optional]
    if stray:
        raise ScenarioError("bad-structure", f"{what}: unexpected keys {stray}")


def _parse_subsystems(raw: Any) -> tuple[list[SingleDecl | GhzDecl], list[str]]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("bad-structure", "'subsystems' must be a non-empty list")
    declarations: list[SingleDecl | GhzDecl] = []
    seen: dict[str, None] = {}  # the declared labels, in order
    for i, entry in enumerate(raw):
        what = f"subsystems[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError("bad-structure", f"{what}: expected an object")
        if "ghz" in entry:
            _require(entry, ("ghz",), what)
            group = entry["ghz"]
            if not isinstance(group, dict):
                raise ScenarioError("bad-structure", f"{what}.ghz: expected an object")
            _require(group, ("labels", "coefficients"), f"{what}.ghz")
            labels_raw = group["labels"]
            if not isinstance(labels_raw, list) or not labels_raw:
                raise ScenarioError("bad-structure", f"{what}.ghz: 'labels' must be a non-empty list")
            labels = tuple(_label(lbl, f"{what}.ghz.labels[{j}]") for j, lbl in enumerate(labels_raw))
            owner = f"{what}.ghz"
        else:
            _require(entry, ("label", "amplitudes"), what)
            labels, owner = (_label(entry["label"], what),), what
        for label in labels:
            if label in seen:
                raise ScenarioError("duplicate-label", f"{owner}: label {label!r} declared twice")
            seen[label] = None
        if "ghz" in entry:
            coeffs = _amplitude_pair(group["coefficients"], f"{what}.ghz.coefficients")
            declarations.append(GhzDecl(labels, coeffs))
        else:
            amps = _amplitude_pair(entry["amplitudes"], f"{what}.amplitudes")
            declarations.append(SingleDecl(labels[0], amps))
    return declarations, list(seen)


def _parse_basis(raw: Any, what: str, declared: set[str]) -> dict[str, str]:
    if raw is None:
        return {}
    if isinstance(raw, str):
        if raw not in ("Z", "X"):
            raise ScenarioError("bad-structure", f"{what}: basis must be 'Z' or 'X', got {raw!r}")
        return {lbl: raw for lbl in declared}
    if isinstance(raw, dict):
        out = {}
        for lbl, sel in raw.items():
            _known_label(lbl, what, declared)
            if sel not in ("Z", "X"):
                raise ScenarioError(
                    "bad-structure", f"{what}: selector for {lbl!r} must be 'Z' or 'X', got {sel!r}"
                )
            out[lbl] = sel
        return out
    raise ScenarioError("bad-structure", f"{what}: basis must be a string or an object")


#: The steps whose operands are labels: step class and label keys, in order.
_OPERANDS = {
    "imprint": (Imprint, ("source", "target")),
    "inverse_imprint": (InverseImprint, ("source", "target")),
    "swap": (Swap, ("a", "b")),
    "rotate_basis": (RotateBasis, ("target",)),
    "uncorrected_measure": (UncorrectedStep, ("signal", "observer", "environment")),
    "ideal_measure": (IdealStep, ("signal", "observer")),
}


def _measure_basis(entry: Mapping, what: str) -> str:
    """A measurement step's basis, Z unless the step names one."""
    basis = entry.get("basis", "Z")
    if basis not in ("Z", "X"):
        raise ScenarioError("bad-structure", f"{what}: basis must be 'Z' or 'X'")
    return basis


def _parse_step(entry: Any, i: int, declared: set[str]) -> Step:
    what = f"script[{i}]"
    if not isinstance(entry, dict) or "op" not in entry:
        raise ScenarioError("bad-structure", f"{what}: expected an object with an 'op' key")
    op = entry["op"]

    if isinstance(op, str) and op in _OPERANDS:
        step, keys = _OPERANDS[op]
        _require(entry, ("op", *keys), what, optional=("basis",) if step is IdealStep else ())
        labels = [_known_label(entry[key], what, declared) for key in keys]
        if len(set(labels)) != len(labels):
            raise ScenarioError("bad-structure", f"{what}: operands must be distinct")
        if step is IdealStep:
            labels.append(_measure_basis(entry, what))
        return step(*labels)

    if op == "corrected_measure":
        _require(entry, ("op", "signal", "observer", "environment"), what, optional=("basis",))
        signal = _known_label(entry["signal"], what, declared)
        observer = _known_label(entry["observer"], what, declared)
        env_raw = entry["environment"]
        if not isinstance(env_raw, list) or len(env_raw) < 2:
            raise ScenarioError(
                "bad-structure", f"{what}: 'environment' must list at least two labels"
            )
        environment = tuple(_known_label(lbl, what, declared) for lbl in env_raw)
        basis = _measure_basis(entry, what)
        try:
            spec = MeasurementOutcomeSpec(signal, observer, environment, basis)
        except ValueError as exc:
            raise ScenarioError("bad-structure", f"{what}: {exc}") from None
        return CorrectedStep(spec)

    if op == "branches":
        _require(entry, ("op",), what, optional=("basis",))
        return BranchesStep(_parse_basis(entry.get("basis"), what, declared))

    if op == "ledger":
        _require(entry, ("op",), what, optional=("tag",))
        tag = entry.get("tag", f"step {i + 1}")
        if not isinstance(tag, str):
            raise ScenarioError("bad-structure", f"{what}: 'tag' must be a string")
        return LedgerStep(tag)

    if op == "agreement":
        _require(entry, ("op", "pairs"), what, optional=("basis",))
        pairs_raw = entry["pairs"]
        if not isinstance(pairs_raw, list) or not pairs_raw:
            raise ScenarioError("bad-structure", f"{what}: 'pairs' must be a non-empty list")
        pairs = []
        for j, pair in enumerate(pairs_raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioError("bad-structure", f"{what}.pairs[{j}]: expected [a, b]")
            a = _known_label(pair[0], f"{what}.pairs[{j}]", declared)
            b = _known_label(pair[1], f"{what}.pairs[{j}]", declared)
            pairs.append((a, b))
        return AgreementStep(tuple(pairs), _parse_basis(entry.get("basis"), what, declared))

    if op == "recover":
        _require(entry, ("op", "records"), what, optional=("basis",))
        records_raw = entry["records"]
        if not isinstance(records_raw, list) or not records_raw:
            raise ScenarioError("bad-structure", f"{what}: 'records' must be a non-empty list")
        records = tuple(
            _known_label(lbl, f"{what}.records[{j}]", declared) for j, lbl in enumerate(records_raw)
        )
        return RecoverStep(records, _parse_basis(entry.get("basis"), what, declared))

    raise ScenarioError("bad-structure", f"{what}: unknown op {op!r}")


def _parse_options(raw: Any) -> Options:
    if raw is None:
        return Options()
    if not isinstance(raw, dict):
        raise ScenarioError("bad-structure", "'options' must be an object")
    _require(raw, (), "options", optional=("tolerance", "relabel"))
    tolerance = raw.get("tolerance", DEFAULT_TOL)
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) or not (
        0 < tolerance < 1
    ):
        raise ScenarioError("bad-structure", f"options.tolerance must be in (0, 1), got {tolerance!r}")
    relabel = raw.get("relabel", True)
    if not isinstance(relabel, bool):
        raise ScenarioError("bad-structure", f"options.relabel must be a boolean, got {relabel!r}")
    return Options(float(tolerance), relabel)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; no state is computed here."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("syntax", exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ScenarioError("syntax", "document nested too deeply") from None
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ScenarioError("syntax", str(exc)) from None
    if not isinstance(doc, dict):
        raise ScenarioError("bad-structure", "scenario must be a JSON object")
    _require(doc, ("subsystems",), "scenario", optional=("script", "options"))

    declarations, order = _parse_subsystems(doc["subsystems"])
    if len(order) > MAX_QUBITS:
        raise ScenarioError(
            "bad-structure", f"{len(order)} subsystems declared, at most {MAX_QUBITS} are supported"
        )
    declared = set(order)
    script_raw = doc.get("script", [])
    if not isinstance(script_raw, list):
        raise ScenarioError("bad-structure", "'script' must be a list")
    script = tuple(_parse_step(entry, i, declared) for i, entry in enumerate(script_raw))
    options = _parse_options(doc.get("options"))
    return Scenario(Register(tuple(order)), tuple(declarations), script, options)
