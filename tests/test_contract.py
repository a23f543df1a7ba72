"""The run contract on generated input.

Any document either parses and runs to a report or ends in a coded
``ScenarioError``/``RunError``, past the dense limit too, in a ``qmeasure
run`` process of bounded memory; and the strided engine and the
dense-matrix oracle give the same report (same sections, rows, symbols and
errors, numbers within 1e-10) on random scenarios of up to 8 qubits.  The
public constructors and procedures refuse bad arguments with a ValueError
and a fixed message.
"""
from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure.analysis import CorrelationCluster
from qmeasure.protocol import MeasurementOutcomeSpec, check_ready, ideal_measure, ideal_script
from qmeasure.runner import RunError, run
from qmeasure.scenario import ScenarioError, parse_scenario
from qmeasure.statevec import Register, basis_state, normalize_basis, product_state

from conftest import HOSTILE_INPUTS

LABELS = ("s", "o", "e1", "e2", "e3", "a")

junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def pairs_of(number):
    return st.lists(st.lists(number, min_size=2, max_size=2), min_size=2, max_size=2)


extreme = st.floats() | st.integers() | st.sampled_from([0, 1e308, -1e308, 1e-320, 10**400])
#: Amplitude pairs: ordinary three times in four.
pair = st.one_of(*[pairs_of(st.floats(0.1, 2) | st.floats(-2, -0.1))] * 3, pairs_of(extreme))

#: Each op with the operand keys it takes, all distinct labels.
OPERANDS = {
    "imprint": ("source", "target"),
    "inverse_imprint": ("source", "target"),
    "swap": ("a", "b"),
    "rotate_basis": ("target",),
    "uncorrected_measure": ("signal", "observer", "environment"),
    "corrected_measure": ("signal", "observer"),
    "ideal_measure": ("signal", "observer"),
    "branches": (),
    "ledger": (),
    "agreement": (),
    "recover": (),
}


@st.composite
def well_formed(draw) -> dict:
    """A document the parser accepts, short of extreme numbers and
    operands that coincide in a small register."""
    names = draw(st.lists(st.sampled_from(LABELS), min_size=1, unique=True))
    subsystems, rest = [], names
    while rest:
        size = draw(st.integers(1, len(rest)))
        group, rest = rest[:size], rest[size:]
        if size == 1 and draw(st.booleans()):
            subsystems.append({"label": group[0], "amplitudes": draw(pair)})
        else:
            subsystems.append({"ghz": {"labels": group, "coefficients": draw(pair)}})
    label = st.sampled_from(names)
    basis = st.sampled_from(["Z", "X"]) | st.dictionaries(label, st.sampled_from(["Z", "X"]))
    script = []
    for op in draw(st.lists(st.sampled_from(sorted(OPERANDS)), max_size=6)):
        keys = OPERANDS[op]
        k = len(keys)
        operands = st.lists(label, min_size=k, max_size=k, unique=k <= len(names))
        step = {"op": op, **dict(zip(keys, draw(operands)))}
        if op == "corrected_measure":
            step["environment"] = draw(st.lists(label, min_size=2, max_size=4, unique=len(names) >= 2))
        if op in ("corrected_measure", "ideal_measure", "branches", "agreement", "recover"):
            step["basis"] = draw(basis)
        if op == "agreement":
            pair_of_labels = st.lists(label, min_size=2, max_size=2)
            step["pairs"] = draw(st.lists(pair_of_labels, min_size=1, max_size=2))
        if op == "recover":
            step["records"] = draw(st.lists(label, min_size=1, max_size=2))
        script.append(step)
    options = {"tolerance": draw(st.floats(1e-12, 0.5))}
    return {"subsystems": subsystems, "script": script, "options": options}


def _paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, path + (key,))


@st.composite
def documents(draw) -> str:
    """A well-formed document, half the time with one node (the whole
    document included) replaced by an arbitrary JSON value."""
    doc = draw(well_formed())
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return json.dumps(draw(junk))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(junk)
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(
    text=st.text(max_size=40) | documents(),
    engine=st.sampled_from(["gates", "oracle"]),
)
@example(text=HOSTILE_INPUTS["400-digit integer"], engine="gates")
@example(text=HOSTILE_INPUTS["100000 nested lists"], engine="gates")
@example(text=HOSTILE_INPUTS["norm overflows"], engine="gates")
@example(text=HOSTILE_INPUTS["norm underflows"], engine="oracle")
def test_only_coded_errors_escape(text, engine):
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        return
    if len(scenario.register) > 8:
        return
    try:
        run(scenario, engine=engine)
    except RunError:
        pass


# ------------------------------------------------------------------ engines

def random_pair(gen: np.random.Generator) -> list[list[float]]:
    return gen.normal(size=(2, 2)).tolist()


def random_basis(gen: np.random.Generator, names: list[str]):
    kind = int(gen.integers(3))
    if kind == 2:
        return {lbl: str(gen.choice(["Z", "X"])) for lbl in names if gen.random() < 0.5}
    return "ZX"[kind]


def random_scenario(
    gen: np.random.Generator, observers=("o",), env_sizes=(2, 4), spares=("b",)
) -> dict:
    """Up to 8 qubits by default: s, the observers, a GHZ environment of
    ``env_sizes`` qubits (both ends included), a ready observer a and the
    spares; a random script over every step kind and both bases, half the
    time after a corrected measurement of the first observer set up to
    succeed."""
    env = [f"e{i}" for i in range(1, int(gen.integers(env_sizes[0], env_sizes[1] + 1)) + 1)]
    ready = str(gen.choice(["Z", "X"]))
    o, b = observers[0], spares[0]
    names = ["s", *observers, *env, "a", *spares]
    subsystems = [
        {"label": "s", "amplitudes": random_pair(gen)},
        *({"label": lbl, "amplitudes": random_pair(gen)} for lbl in observers),
        {"ghz": {"labels": env, "coefficients": random_pair(gen)}},
        {"label": "a", "amplitudes": [[1, 0], [0, 0]] if ready == "Z" else [[1, 0], [1, 0]]},
        *({"label": lbl, "amplitudes": random_pair(gen)} for lbl in spares),
    ]
    script: list[dict] = []
    if gen.random() < 0.5:
        frame = str(gen.choice(["Z", "X"]))
        if frame == "X":
            script += [{"op": "rotate_basis", "target": lbl} for lbl in env]
        script.append(
            {"op": "corrected_measure", "signal": "s", "observer": o, "environment": env,
             "basis": frame}
        )

    def two():
        return [str(x) for x in gen.choice(names, size=2, replace=False)]

    def three():
        return [str(x) for x in gen.choice(names, size=3, replace=False)]

    makers = [
        lambda: dict(zip(("op", "source", "target"), ["imprint", *two()])),
        lambda: dict(zip(("op", "source", "target"), ["inverse_imprint", *two()])),
        lambda: dict(zip(("op", "a", "b"), ["swap", *two()])),
        lambda: {"op": "rotate_basis", "target": str(gen.choice(names))},
        lambda: dict(zip(("op", "signal", "observer", "environment"),
                         ["uncorrected_measure", *three()])),
        lambda: {"op": "corrected_measure", "signal": "s", "observer": o, "environment": env,
                 "basis": str(gen.choice(["Z", "X"]))},
        lambda: {"op": "ideal_measure", "signal": str(gen.choice(["s", o])),
                 "observer": "a" if gen.random() < 0.7 else b, "basis": str(gen.choice(["Z", "X"]))},
        lambda: {"op": "branches", "basis": random_basis(gen, names)},
        lambda: {"op": "ledger", "tag": "t"},
        lambda: {"op": "agreement", "pairs": [two()], "basis": random_basis(gen, names)},
        lambda: {"op": "recover", "records": two(), "basis": random_basis(gen, names)},
    ]
    for _ in range(int(gen.integers(2, 7))):
        script.append(makers[int(gen.integers(len(makers)))]())
    return {"subsystems": subsystems, "script": script, "options": {"relabel": bool(gen.random() < 0.5)}}


def full_size_scenario(gen: np.random.Generator) -> dict:
    """A :func:`random_scenario` at n = 25...63: s, 1-6 observers, a GHZ
    environment of 20-55 qubits, a ready observer a and 1-3 spares."""
    observers = [f"o{i}" for i in range(int(gen.integers(1, 7)))]
    spares = [f"b{i}" for i in range(int(gen.integers(1, 4)))]
    rest = 2 + len(observers) + len(spares)
    return random_scenario(gen, observers, (max(20, 25 - rest), min(55, 63 - rest)), spares)


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def same_up_to_numbers(a: str, b: str) -> bool:
    """Equal text, except that numbers may differ by 1e-10."""
    na, nb = NUMBER.findall(a), NUMBER.findall(b)
    return (
        NUMBER.split(a) == NUMBER.split(b)
        and len(na) == len(nb)
        and all(abs(float(x) - float(y)) <= 1e-10 for x, y in zip(na, nb))
    )


def outcome(scenario, engine: str):
    try:
        return run(scenario, engine=engine)
    except RunError as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gates_and_oracle_engines_agree(seed):
    scenario = parse_scenario(json.dumps(random_scenario(np.random.default_rng(seed))))
    fast, slow = outcome(scenario, "gates"), outcome(scenario, "oracle")
    if isinstance(fast, RunError) or isinstance(slow, RunError):
        assert type(fast) is type(slow), (fast, slow)
        assert fast.step_number == slow.step_number
        assert type(fast.cause) is type(slow.cause)
        assert same_up_to_numbers(str(fast), str(slow)), (str(fast), str(slow))
        return
    assert [s.title for s in fast.sections] == [s.title for s in slow.sections]
    for ours, theirs in zip(fast.sections, slow.sections):
        assert len(ours.rows) == len(theirs.rows), ours.title
        for row, other in zip(ours.rows, theirs.rows):
            assert len(row) == len(other) and all(
                same_up_to_numbers(x, y) for x, y in zip(row, other)
            ), (ours.title, row, other)


#: Address space of each ``qmeasure run`` child, and the peak RSS it may
#: reach: the dearest run the limits admit, a listing of
#: ``runner.LISTING_MAX_ROWS`` rows or detection on a dense 24-qubit state,
#: peaks near 1 GiB.
CHILD_ADDRESS_SPACE = 3 * 2**30
CHILD_PEAK_RSS_MIB = 1280


@pytest.mark.parametrize("seed", range(8))
def test_full_size_documents_end_in_a_report_or_a_coded_error(tmp_path, seed):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(full_size_scenario(np.random.default_rng(seed))))
    cap = (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmeasure.cli", "run", str(path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
    )
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode in (0, 2) and "Traceback" not in stderr, stderr
    assert usage.ru_maxrss / 1024 < CHILD_PEAK_RSS_MIB


SO = product_state(["s", "o"], [(1, 0), (1, 0)])
MINIMAL = json.dumps({"subsystems": [{"label": "s", "amplitudes": [[1, 0], [0, 0]]}]})


@pytest.mark.parametrize("call, message", [
    (lambda: CorrelationCluster((), (1, 0), ()), "cluster needs at least one member"),
    (lambda: CorrelationCluster(("a", "b"), (1, 0), (False,)), "one flip flag per member required"),
    (lambda: CorrelationCluster(("a", "b"), (1, 0), (True, False)),
     "the first cluster member is the flip reference"),
    (lambda: CorrelationCluster(("a",), (0, 0), (False,)), "cluster coefficients must not both vanish"),
    (lambda: MeasurementOutcomeSpec("s", "o", ()), "environment label list must not be empty"),
    (lambda: MeasurementOutcomeSpec("s", "o", ("e",), "Y"), "basis must be 'Z' or 'X', got 'Y'"),
    (lambda: ideal_script("s", "o", "Y"), "basis must be 'Z' or 'X', got 'Y'"),
    (lambda: check_ready(SO, "o", "Y"), "basis must be 'Z' or 'X', got 'Y'"),
    (lambda: ideal_measure(SO, "s", "s", "Z"), "signal and observer must be distinct"),
    (lambda: normalize_basis("Y", Register(("s",))), "basis selector must be 'Z' or 'X', got 'Y'"),
    (lambda: normalize_basis({"s": "Y"}, Register(("s",))),
     "basis selector for 's' must be 'Z' or 'X', got 'Y'"),
    (lambda: product_state(["a"], [(float("nan"), 0)]), "amplitude pair for 'a' must be finite"),
    (lambda: basis_state(["a", "b"], "↑"), "need 2 symbols, got 1"),
    (lambda: basis_state(["a"], "→"), "basis_state takes computational symbols ↑/↓ only, got '→'"),
    (lambda: run(parse_scenario(MINIMAL), engine="x"), "engine must be 'gates' or 'oracle', got 'x'"),
], ids=[
    "cluster-empty", "cluster-flips", "cluster-reference", "cluster-vanishing",
    "spec-environment", "spec-basis", "ideal-script-basis", "check-ready-basis",
    "ideal-measure-operands", "basis-string", "basis-mapping", "product-not-finite",
    "basis-state-count", "basis-state-symbol", "run-engine",
])
def test_public_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message
