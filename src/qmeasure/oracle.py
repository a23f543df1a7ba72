"""Brute-force verification path: explicit dense matrices for every gate.

This module deliberately shares no kernel code with :mod:`qmeasure.gates`.
Each gate is assembled as a full 2^n x 2^n matrix from Kronecker chains of
2x2 blocks and applied by plain matrix-vector multiplication.  Naive on
purpose: it is the independent oracle the test suite (and any third party)
can check the strided kernels against, and it is capped at a size where the
dense matrices stay manageable.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .gates import GateOp, Imprint, InverseImprint, RotateBasis, Swap
from .statevec import PureState, Register

ORACLE_MAX_QUBITS = 12

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_P_UP = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P_DOWN = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def _chain(blocks: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kronecker chain of 2x2 blocks on the given qubits, identity elsewhere.

    Runs of untouched qubits enter as one ``np.eye`` each.  By the
    mixed-product property, the chain with blocks A at p and B at q equals
    the product of the single-block chains, at a fraction of its cost.
    """
    out = np.ones((1, 1), dtype=np.complex128)
    start = 0
    for pos in sorted(blocks) + [n]:
        if pos > start:
            out = np.kron(out, np.eye(2 ** (pos - start), dtype=np.complex128))
        if pos < n:
            out = np.kron(out, blocks[pos])
        start = pos + 1
    return out


def gate_matrix(op: GateOp, register: Register) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate on the given register."""
    n = len(register)
    if isinstance(op, Imprint):
        ps, pt = register.position(op.source), register.position(op.target)
        return _chain({ps: _P_UP}, n) + _chain({ps: _P_DOWN, pt: _X}, n)
    if isinstance(op, InverseImprint):
        forward = gate_matrix(Imprint(op.source, op.target), register)
        return forward.conj().T
    if isinstance(op, Swap):
        pa, pb = register.position(op.a), register.position(op.b)
        total = np.eye(2**n, dtype=np.complex128)
        for pauli in (_X, _Y, _Z):
            total = total + _chain({pa: pauli, pb: pauli}, n)
        return total / 2.0
    if isinstance(op, RotateBasis):
        return _chain({register.position(op.target): _H}, n)
    raise TypeError(f"not a gate operation: {op!r}")


def oracle_apply(state: PureState, script: Sequence[GateOp]) -> PureState:
    """Run a gate script through the dense-matrix path."""
    if state.n_qubits > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"oracle is capped at {ORACLE_MAX_QUBITS} qubits, got {state.n_qubits}"
        )
    vec = state.amplitudes.copy()
    for op in script:
        vec = gate_matrix(op, state.register) @ vec
    return PureState(state.register, vec)
