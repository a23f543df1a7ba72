import itertools
import tracemalloc

import numpy as np
import pytest

from qmeasure import oracle
from qmeasure.gates import Imprint, InverseImprint, RotateBasis, Swap, apply_script
from qmeasure.oracle import ORACLE_MAX_QUBITS, gate_matrix, oracle_apply
from qmeasure.statevec import PureState, Register, approx_eq

from conftest import labels, random_state
from test_gates import random_script


def test_identity_script_returns_input(rng):
    state = random_state(rng, labels(3))
    assert approx_eq(oracle_apply(state, []), state, 0)


def test_two_qubit_swap_matrix_is_the_permutation():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    got = gate_matrix(Swap("a", "b"), Register(("a", "b")))
    assert np.max(np.abs(got - expected)) < 1e-15


def test_two_qubit_imprint_matrix_is_the_permutation():
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    got = gate_matrix(Imprint("a", "b"), Register(("a", "b")))
    assert np.max(np.abs(got - expected)) < 1e-15


def test_inverse_imprint_matrix_is_the_adjoint():
    reg = Register(("a", "b", "c"))
    forward = gate_matrix(Imprint("c", "a"), reg)
    backward = gate_matrix(InverseImprint("c", "a"), reg)
    assert np.max(np.abs(backward @ forward - np.eye(8))) < 1e-12


def test_gate_matrices_are_unitary(rng):
    reg = Register(labels(4))
    for op in (Imprint("q0", "q2"), Swap("q3", "q1"), RotateBasis("q2"), InverseImprint("q1", "q3")):
        mat = gate_matrix(op, reg)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(16))) < 1e-12


def test_agrees_with_strided_kernels_on_random_scripts(rng):
    # the load-bearing cross-check: two structurally different gate paths
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        state = random_state(rng, labels(n))
        script = random_script(rng, labels(n), int(rng.integers(0, 7)))
        fast = apply_script(state, script)
        slow = oracle_apply(state, script)
        assert approx_eq(fast, slow, 1e-10)


def _embed(u, pos, n):
    left = np.eye(2**pos, dtype=np.complex128)
    right = np.eye(2 ** (n - pos - 1), dtype=np.complex128)
    return np.kron(np.kron(left, u), right)


def product_form_matrix(op, register):
    """Reference: every term as a product of single-block embeddings, O(8^n)."""
    n = len(register)
    if isinstance(op, Imprint):
        ps, pt = register.position(op.source), register.position(op.target)
        return _embed(oracle._P_UP, ps, n) + _embed(oracle._P_DOWN, ps, n) @ _embed(
            oracle._X, pt, n
        )
    if isinstance(op, InverseImprint):
        return product_form_matrix(Imprint(op.source, op.target), register).conj().T
    if isinstance(op, Swap):
        pa, pb = register.position(op.a), register.position(op.b)
        total = np.eye(2**n, dtype=np.complex128)
        for pauli in (oracle._X, oracle._Y, oracle._Z):
            total = total + _embed(pauli, pa, n) @ _embed(pauli, pb, n)
        return total / 2.0
    return _embed(oracle._H, register.position(op.target), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_kronecker_chains_equal_the_product_form_bytewise(n):
    reg = Register(labels(n))
    ops = [RotateBasis(lbl) for lbl in reg.labels]
    for a, b in itertools.permutations(reg.labels, 2):
        ops += [Imprint(a, b), InverseImprint(a, b), Swap(a, b)]
    for op in ops:
        assert gate_matrix(op, reg).tobytes() == product_form_matrix(op, reg).tobytes(), op


@pytest.mark.parametrize(
    "op",
    [
        Swap("q0", "q9"),
        Imprint("q9", "q0"),
        InverseImprint("q0", "q9"),
        RotateBasis("q0"),
        RotateBasis("q5"),
        RotateBasis("q9"),
    ],
    ids=repr,
)
def test_gate_matrix_peaks_near_one_matrix(op):
    reg = Register(labels(10))
    tracemalloc.start()
    try:
        matrix = gate_matrix(op, reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.nbytes == 16 * 4**10
    assert peak <= 1.25 * matrix.nbytes


def test_size_cap():
    n = ORACLE_MAX_QUBITS + 1
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    state = PureState(Register(labels(n)), vec)
    with pytest.raises(ValueError, match="capped"):
        oracle_apply(state, [Swap("q0", "q1")])
