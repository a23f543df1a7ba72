"""Closed-form and metamorphic tests over 25 to 63 qubits, past the dense
oracle (12 qubits) and the dense twins (24): no dense vector is built."""
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmeasure.analysis import (
    INCONSISTENT,
    CorrelationLedger,
    agreement,
    ledger_record,
    recover_record,
)
from qmeasure.gates import Imprint, InverseImprint, RotateBasis, Swap, apply_script, invert_script
from qmeasure.protocol import MeasurementOutcomeSpec, corrected_measure
from qmeasure.runner import _initial_state, run
from qmeasure.scenario import parse_scenario
from qmeasure.statevec import branch_decompose, make_ghz, product_state, tensor

from conftest import random_pair


def unit(pair):
    vec = np.array(pair, dtype=complex)
    return vec / np.linalg.norm(vec)


def _spectated(rng, n: int, spectators: int):
    """Generic s, o and ``spectators`` generic qubits p0 …, then a Z-frame
    GHZ environment e1 … filling the register to n qubits."""
    names = ["s", "o", *(f"p{j}" for j in range(spectators))]
    env = [f"e{j}" for j in range(1, n - len(names) + 1)]
    parts = product_state(names, [random_pair(rng, 0.1) for _ in names])
    return tensor(parts, make_ghz(env, random_pair(rng, 0.1))), names, env


def assert_same_listing(got, want) -> None:
    """Equal positions, amplitudes within 1e-12."""
    assert np.array_equal(got.index, want.index)
    assert np.allclose(got.amplitudes, want.amplitudes, rtol=0.0, atol=1e-12)


def test_network_of_ten_observers_on_a_50_qubit_ghz(no_dense_builds, detections):
    # o1 … o10 each make a corrected Z measurement of one generic signal s;
    # measurement i draws on e1 … e(51−i) and leaves o_i's old state φ_i in
    # its dump slot e(51−i), so n = 61 and the Z table has 2·2·2^10 rows.
    rng = np.random.default_rng(61)
    k, size = 10, 50
    psi, chi = random_pair(rng, 0.1), random_pair(rng, 0.1)
    phis = [random_pair(rng, 0.1) for _ in range(k)]
    observers = [f"o{i}" for i in range(1, k + 1)]
    env = [f"e{j}" for j in range(1, size + 1)]
    state = tensor(product_state(["s", *observers], [psi, *phis]), make_ghz(env, chi))
    ledger = ledger_record(CorrelationLedger(), state, "before")
    for i, observer in enumerate(observers, start=1):
        spec = MeasurementOutcomeSpec("s", observer, tuple(env[: size + 1 - i]))
        state = corrected_measure(state, spec)
        ledger = ledger_record(ledger, state, observer)
    assert ledger.totals() == (size - 1,) * (k + 1)
    # each ledger read serves the next environment check: 21 reads, 11 detections
    assert len(detections) == k + 1

    branches = branch_decompose(state, "Z")
    assert len(branches) == 2 * 2 * 2**k
    kept = size - k  # e1 … e40 stay in the GHZ
    psi, chi, phis = unit(psi), unit(chi), [unit(phi) for phi in phis]
    for outcome, amplitude in zip(branches.outcomes().tolist(), branches.amplitudes.tolist()):
        bits = ["↑↓".index(symbol) for symbol in outcome]
        signal, ghz, dumps = bits[0], bits[k + 1], bits[k + 1 + kept:]
        assert bits[: k + 1] == [signal] * (k + 1)
        assert bits[k + 1 : k + 1 + kept] == [ghz] * kept
        # dump slots e41 … e50 hold φ10 … φ1
        want = psi[signal] * chi[ghz]
        for phi, bit in zip(phis[::-1], dumps):
            want *= phi[bit]
        assert abs(amplitude - want) < 1e-12

    holders = ["s", *observers]
    pairs = [(a, b) for i, a in enumerate(holders) for b in holders[i + 1 :]]
    report = agreement(branches, pairs)
    assert len(pairs) == 55
    assert max(abs(total - 1.0) for total in report.aggregates) < 1e-12
    assert INCONSISTENT not in recover_record(branches, observers[1:])


def _sections(doc: dict) -> dict:
    report = run(parse_scenario(json.dumps(doc)))
    return {section.title: section.rows for section in report.sections}


def test_forty_records_of_one_outcome(no_dense_builds):
    # record_recovery.json's Z records at scale: s, o1 and ^1o1 … ^40o1 are
    # single qubits (n = 42), o1 measures s and every record copies o1.
    # The declared state holds two positions; all 42 qubits end in one GHZ.
    records = [f"^{j}o1" for j in range(1, 41)]
    up = [[1, 0], [0, 0]]
    sections = _sections({"subsystems": [
        {"label": "s", "amplitudes": [[0.8, 0], [0.6, 0]]},
        *({"label": label, "amplitudes": up} for label in ["o1", *records]),
    ], "script": [
        {"op": "ideal_measure", "signal": "s", "observer": "o1", "basis": "Z"},
        *({"op": "ideal_measure", "signal": "o1", "observer": r, "basis": "Z"} for r in records),
        {"op": "branches", "basis": "Z"},
        {"op": "recover", "basis": "Z", "records": records},
        {"op": "ledger", "tag": "records"},
    ]})
    assert sections["initial state"][1] == ("qubits", "42")
    assert sections["step 42: branches"][1:] == (
        ("↑" * 42, "0.8", "0", "0.64"), ("↓" * 42, "0.6", "0", "0.36")
    )
    assert sections["step 43: record recovery"][1:] == (
        ("↑" * 42, "0.64", "↑"), ("↓" * 42, "0.36", "↓")
    )
    assert sections["step 44: ledger 'records'"][1:] == (
        (" ".join(["s", "o1", *records]), "41"), ("total", "41")
    )


def test_forty_declared_up_qubits(no_dense_builds):
    labels = [f"q{i}" for i in range(40)]
    sections = _sections({
        "subsystems": [{"label": label, "amplitudes": [[1, 0], [0, 0]]} for label in labels],
        "script": [{"op": "branches", "basis": "Z"}, {"op": "ledger", "tag": "t"}],
    })
    assert sections["step 1: branches"][1:] == (("↑" * 40, "1", "0", "1"),)
    assert sections["step 2: ledger 't'"][1:] == (*((label, "0") for label in labels), ("total", "0"))


def _declared(parts, order, ghz_labels):
    """A scenario document declaring ``parts`` in ``order``, the GHZ with its
    labels listed as ``ghz_labels``."""
    subsystems = []
    for name in order:
        amplitudes = [[complex(a).real, complex(a).imag] for a in parts[name]]
        if name == "ghz":
            subsystems.append({"ghz": {"labels": ghz_labels, "coefficients": amplitudes}})
        else:
            subsystems.append({"label": name, "amplitudes": amplitudes})
    return parse_scenario(json.dumps({"subsystems": subsystems}))


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.integers(25, 63),
    products=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_register_order_does_not_change_the_measurement(no_dense_builds, n, products, seed, data):
    rng = np.random.default_rng(seed)
    env = [f"e{j}" for j in range(1, n - 1 - products)]
    names = ["s", "o", "ghz", *(f"p{j}" for j in range(products))]
    parts = {name: random_pair(rng, 0.1) for name in names}
    spec = MeasurementOutcomeSpec("s", "o", tuple(env))
    runs = []
    for order, ghz_labels in (
        (names, env),
        (data.draw(st.permutations(names)), data.draw(st.permutations(env))),
    ):
        state = _initial_state(_declared(parts, order, ghz_labels))
        ledger = ledger_record(CorrelationLedger(), state, "before")
        state = corrected_measure(state, spec)
        ledger = ledger_record(ledger, state, "after")
        runs.append((state.register, ledger, branch_decompose(state, "Z")))

    (first, first_ledger, first_branches), (other, other_ledger, other_branches) = runs
    assert first_ledger.totals() == other_ledger.totals()
    for a, b in zip(first_ledger.entries, other_ledger.entries):
        assert {frozenset(c.members) for c in a.decomposition.clusters} == {
            frozenset(c.members) for c in b.decomposition.clusters
        }
    back = [other.position(label) for label in first.labels]
    want = dict(zip(first_branches.outcomes().tolist(), first_branches.amplitudes.tolist()))
    got = {
        "".join(outcome[p] for p in back): amplitude
        for outcome, amplitude in zip(
            other_branches.outcomes().tolist(), other_branches.amplitudes.tolist()
        )
    }
    assert got.keys() == want.keys()
    assert all(abs(got[outcome] - want[outcome]) < 1e-12 for outcome in want)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(n=st.integers(25, 63), spectators=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_rotating_every_label_conjugates_the_measurement(no_dense_builds, n, spectators, seed):
    # H^⊗n takes the Z procedure to the X one, so the X listing after every
    # label is rotated is the Z listing without the rotation.  The
    # spectators stay flagged in the frame the X check reads.
    state, _, env = _spectated(np.random.default_rng(seed), n, spectators)
    measured = corrected_measure(state, MeasurementOutcomeSpec("s", "o", tuple(env)))
    rotated = apply_script(state, [RotateBasis(label) for label in state.register.labels])
    x_spec = MeasurementOutcomeSpec("s", "o", tuple(env), "X")
    z, x = branch_decompose(measured, "Z"), branch_decompose(corrected_measure(rotated, x_spec), "X")
    assert (z.basis, x.basis) == (("Z",) * n, ("X",) * n)
    assert_same_listing(x, z)


def gate_scripts(operands: list[str]):
    """Scripts of one to eight gates of every kind over ``operands``."""
    pairs = st.lists(st.sampled_from(operands), min_size=2, max_size=2, unique=True)
    kinds = st.sampled_from([Imprint, InverseImprint, Swap])
    gate = st.builds(lambda kind, pair: kind(*pair), kinds, pairs) | st.builds(
        RotateBasis, st.sampled_from(operands)
    )
    return st.lists(gate, min_size=1, max_size=8)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.integers(25, 63),
    spectators=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_script_and_its_inverse_restore_the_z_listing(no_dense_builds, n, spectators, seed, data):
    # Imprints with one flagged operand and the final Z view clear flags on
    # the support index; eight gates at most double it eight times, which
    # keeps every support under the share.
    state, names, env = _spectated(np.random.default_rng(seed), n, spectators)
    script = data.draw(gate_scripts([*names, *env[:3]]))
    restored = apply_script(apply_script(state, script), invert_script(script))
    assert_same_listing(branch_decompose(restored, "Z"), branch_decompose(state, "Z"))
