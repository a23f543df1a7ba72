from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qmeasure import analysis, protocol, statevec
from qmeasure.gates import apply_script
from qmeasure.protocol import EnvironmentNotGHZError
from qmeasure.runner import _initial_state
from qmeasure.scenario import IdealStep, parse_scenario
from qmeasure.statevec import PureState, Register

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_pair(rng: np.random.Generator, min_modulus: float = 0.0) -> tuple[complex, complex]:
    """Random complex amplitude pair; components redrawn until above min_modulus."""
    while True:
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        if min_modulus == 0.0 or np.all(np.abs(raw) > min_modulus):
            return (complex(raw[0]), complex(raw[1]))


def random_state(rng: np.random.Generator, labels: tuple[str, ...]) -> PureState:
    """Haar-ish random dense state over the given labels."""
    dim = 2 ** len(labels)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(Register(labels), vec / np.linalg.norm(vec))


def scenario_state(
    name: str, psi: tuple[complex, complex], records: int = 0, execute=apply_script
) -> PureState:
    """The state after the ``ideal_measure`` steps of ``scenarios/<name>.json``,
    run through ``execute``, with ψ declared for the signal ``s``.

    ``records`` (for ``record_recovery``) sets the record count m: the file's
    records ^jo1 and their ``ideal_measure`` steps are replaced, in their
    place, by ^1o1 … ^mo1 declared and written like the file's first one.
    """
    doc = json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    subsystems = doc["subsystems"]
    script = [step for step in doc["script"] if step["op"] == "ideal_measure"]
    for entry in subsystems:
        if entry["label"] == "s":
            entry["amplitudes"] = [[complex(a).real, complex(a).imag] for a in psi]
    if records:
        names = [f"^{j}o1" for j in range(1, records + 1)]

        def put(entries, key):
            at = next(i for i, entry in enumerate(entries) if entry[key].startswith("^"))
            kept = [entry for entry in entries if not entry[key].startswith("^")]
            return kept[:at] + [dict(entries[at], **{key: name}) for name in names] + kept[at:]

        subsystems, script = put(subsystems, "label"), put(script, "observer")
    scenario = parse_scenario(json.dumps({"subsystems": subsystems, "script": script}))
    state = _initial_state(scenario)
    for step in scenario.script:
        assert isinstance(step, IdealStep)
        state = protocol.ideal_measure(state, step.signal, step.observer, step.basis, execute)
    return state


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(n))


def assert_unchanged(state: PureState, stored: dict) -> None:
    """The state holds the attributes ``stored`` took from it, bound to the
    same objects."""
    assert vars(state).keys() == stored.keys()
    assert all(vars(state)[key] is value for key, value in stored.items())


def read_concurrently(read, readers: int = 4) -> list:
    """``read(slot)`` for slots 0 … readers − 1, each in a thread, the
    threads released together."""
    start = threading.Barrier(readers)
    seen = [None] * readers

    def run(slot):
        start.wait(timeout=10)
        seen[slot] = read(slot)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return seen


@pytest.fixture
def no_dense_builds(monkeypatch):
    """Fail on any dense vector built from a support index."""
    def refuse(n, index, values):
        raise AssertionError(f"dense vector over {n} qubits built")
    monkeypatch.setattr(statevec, "_scatter", refuse)


@pytest.fixture
def detections(monkeypatch) -> list:
    """The labels passed to every later ``analysis._detect`` call, one entry
    per cluster detection run."""
    calls = []
    detect = analysis._detect

    def counted(*args):
        calls.append(args[0])
        return detect(*args)

    monkeypatch.setattr(analysis, "_detect", counted)
    return calls


def dense_twin(state: PureState) -> PureState:
    """The state's Z-frame amplitudes as an unflagged dense state, whose
    cluster detection always reads the full view."""
    return PureState(state.register, state.amplitudes)


def assert_same_clusters(got, want) -> None:
    """Equal members, flips and residual; coefficients within 1e-12."""
    assert got.residual == want.residual
    assert [(c.members, c.flips) for c in got.clusters] == [
        (c.members, c.flips) for c in want.clusters
    ]
    for g, w in zip(got.clusters, want.clusters):
        assert np.allclose(g.coefficients, w.coefficients, rtol=0.0, atol=1e-12)


@pytest.fixture
def twin_checked(monkeypatch) -> list[int]:
    """Repeat every cluster detection and environment check on a flagged
    state of at most 20 qubits on its dense twin, and require the same
    clusters, coefficients or error message.  Yields the sizes checked."""
    find, check = analysis.find_clusters, protocol.check_environment
    sizes: list[int] = []

    def twinned(state):
        return state._frame and state.n_qubits <= 20

    def find_both(state, *args, **kwargs):
        got = find(state, *args, **kwargs)
        if twinned(state):
            sizes.append(state.n_qubits)
            assert_same_clusters(got, find(dense_twin(state), *args, **kwargs))
        return got

    def check_both(state, *args, **kwargs):
        if not twinned(state):
            return check(state, *args, **kwargs)
        try:
            want = check(dense_twin(state), *args, **kwargs)
        except EnvironmentNotGHZError as exc:
            want = str(exc)
        try:
            got = check(state, *args, **kwargs)
        except EnvironmentNotGHZError as exc:
            assert str(exc) == want
            raise
        assert not isinstance(want, str), f"the dense twin was rejected: {want}"
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        return got

    monkeypatch.setattr(analysis, "find_clusters", find_both)
    monkeypatch.setattr(protocol, "check_environment", check_both)
    return sizes


def _single(amplitudes: str) -> str:
    return (
        '{"subsystems": [{"label": "s", "amplitudes": ' + amplitudes + "}],"
        ' "script": [{"op": "branches", "basis": "X"}]}'
    )


#: Documents that once escaped as tracebacks instead of a report or a coded error.
HOSTILE_INPUTS = {
    "400-digit integer": _single("[[1" + "0" * 399 + ", 0], [0, 0]]"),
    "100000 nested lists": '{"subsystems": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "norm overflows": _single("[[1e308, 0], [1e308, 0]]"),
    "norm underflows": _single("[[1e-320, 0], [1e-320, 0]]"),
}
