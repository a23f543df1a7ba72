"""Each tolerance constant governs the one layer the README's table names.

Every test holds one input fixed and moves one constant across it; the
decision of that layer, and only of that layer, changes.  The detection
tolerance is bound as a default argument, so it is moved through the
scenario option that carries it instead.
"""
import inspect
import json

import numpy as np
import pytest

from qmeasure import analysis, cli, protocol, runner, statevec
from qmeasure.gates import imprint, swap
from qmeasure.protocol import ObserverNotReadyError, ideal_measure
from qmeasure.runner import RunError, fmt, run
from qmeasure.scenario import Options, parse_scenario
from qmeasure.statevec import PureState, Register, branch_decompose, product_state


def test_norm_tol_governs_construction_and_every_gate(monkeypatch):
    reg = Register(("a", "b"))
    drifted = np.array([1.0 + 5e-10, 0.0, 0.0, 0.0])
    state = PureState(reg, drifted)
    assert imprint(state, "a", "b").norm() == state.norm()
    monkeypatch.setattr(statevec, "NORM_TOL", 1e-10)
    with pytest.raises(ValueError, match="off unity by more than 1e-10"):
        PureState(reg, drifted)
    for gate in (imprint, swap):
        with pytest.raises(ValueError, match="off unity by more than 1e-10"):
            gate(state, "a", "b")


def test_prune_tol_governs_branch_listing_and_printed_numbers(monkeypatch):
    small = 1e-11
    state = PureState(Register(("s",)), [np.sqrt(1.0 - small**2), small])
    assert branch_decompose(state, "Z").outcomes().tolist() == ["↑", "↓"]
    assert (fmt(small), fmt(5e-13)) == ("1e-11", "0")
    monkeypatch.setattr(statevec, "PRUNE_TOL", 1e-10)
    assert branch_decompose(state, "Z").outcomes().tolist() == ["↑"]
    # the runner renders with its own binding, which the listing's does not move
    assert fmt(small) == "1e-11"
    monkeypatch.setattr(runner, "PRUNE_TOL", 1e-14)
    assert fmt(5e-13) == "5e-13"


@pytest.mark.parametrize("basis, ready", [("Z", (1.0, 1e-8)), ("X", (1.0, 1.0 - 2e-8))])
def test_ready_tol_governs_the_ideal_measurement(monkeypatch, basis, ready):
    state = product_state(("s", "o"), [(0.6, 0.8), ready])
    with pytest.raises(ObserverNotReadyError, match="deviates"):
        ideal_measure(state, "s", "o", basis)
    monkeypatch.setattr(protocol, "READY_TOL", 1e-7)
    assert ideal_measure(state, "s", "o", basis).register == state.register


def _tilted_environment(tolerance):
    # e1 e2 sit in |↑↑⟩, and e3 is |↑⟩ up to a 1e-7 tilt towards |↓⟩
    doc = {
        "subsystems": [
            {"label": "s", "amplitudes": [[0.6, 0], [0.8, 0]]},
            {"label": "o", "amplitudes": [[1, 0], [0, 0]]},
            {"ghz": {"labels": ["e1", "e2"], "coefficients": [[1, 0], [0, 0]]}},
            {"label": "e3", "amplitudes": [[1, 0], [1e-7, 0]]},
        ],
        "script": [
            {"op": "corrected_measure", "signal": "s", "observer": "o",
             "environment": ["e1", "e2", "e3"], "basis": "Z"},
            {"op": "ledger", "tag": "after"},
        ],
    }
    if tolerance is not None:
        doc["options"] = {"tolerance": tolerance}
    return parse_scenario(json.dumps(doc))


def test_default_tol_governs_cluster_detection():
    scenario = _tilted_environment(None)
    assert scenario.options.tolerance == Options().tolerance == analysis.DEFAULT_TOL
    for fn in (analysis.find_clusters, analysis.ledger_record, protocol.corrected_measure):
        assert inspect.signature(fn).parameters["tol"].default == analysis.DEFAULT_TOL
    with pytest.raises(RunError, match="step 1 .*'e3' is in a local superposition"):
        run(scenario)
    report = run(_tilted_environment(1e-6))
    ledger = {s.title: s.rows for s in report.sections}["step 2: ledger 'after'"]
    assert ledger[-1] == ("total", "1")


def test_cli_help_prints_the_default_tol(monkeypatch, capsys):
    def tol_help():
        with pytest.raises(SystemExit):
            cli.main(["run", "--help"])
        return " ".join(capsys.readouterr().out.split())

    assert "option; default 1e-9)" in tol_help()
    monkeypatch.setattr(cli, "DEFAULT_TOL", 3e-7)
    assert "option; default 3e-7)" in tol_help()
