"""Brute-force verification path: explicit dense matrices for every gate.

This module deliberately shares no kernel code with :mod:`qmeasure.gates`.
Each gate is a full 2^n x 2^n matrix, applied by plain matrix-vector
multiplication.  A basis rotation writes its 2x2 block, and an imprint or
swap the 4x4 two-qubit core built at import from Kronecker products of
2x2 blocks, into one zeroed full matrix, once per setting of the other qubits,
with the bytes the full Kronecker chains would have; an inverse imprint
conjugates that matrix in place.  So building a gate peaks at one matrix,
256 MiB at the 12-qubit cap.  Naive on purpose: it is the independent
oracle the test suite (and any third party) can check the strided kernels
against, and it is capped at a size where the dense matrices stay
manageable.
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
_I = np.eye(2, dtype=np.complex128)

#: The two-qubit cores, from Kronecker products of the 2x2 blocks: an
#: imprint's with the source first and with it second, and the swap's.
_IMPRINT_CORES = (
    np.kron(_P_UP, _I) + np.kron(_P_DOWN, _X),
    np.kron(_I, _P_UP) + np.kron(_X, _P_DOWN),
)
_SWAP_CORE = sum(np.kron(pauli, pauli) for pauli in (_I, _X, _Y, _Z)) / 2.0


def _embed_pair(core: np.ndarray, p: int, q: int, n: int) -> np.ndarray:
    """Full matrix of a 4x4 core on qubits p < q, identity on all others.

    The full n-qubit Kronecker chains of the core's terms are zero off its
    blocks and repeat its entries on each, so their sum has these bytes
    (the tests compare them bytewise).  The block-diagonal view of the
    zeroed matrix reaches every block in one write.
    """
    out = np.zeros((2**p, 2, 2 ** (q - p - 1), 2, 2 ** (n - q - 1)) * 2, dtype=np.complex128)
    np.einsum("lambrlcmdr->lmrabcd", out)[...] = core.reshape(2, 2, 2, 2)
    return out.reshape(2**n, 2**n)


def gate_matrix(op: GateOp, register: Register) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate on the given register."""
    n = len(register)
    if isinstance(op, Imprint):
        ps, pt = register.position(op.source), register.position(op.target)
        return _embed_pair(_IMPRINT_CORES[ps > pt], min(ps, pt), max(ps, pt), n)
    if isinstance(op, InverseImprint):
        forward = gate_matrix(Imprint(op.source, op.target), register)
        return np.conjugate(forward, out=forward).T
    if isinstance(op, Swap):
        pa, pb = register.position(op.a), register.position(op.b)
        return _embed_pair(_SWAP_CORE, min(pa, pb), max(pa, pb), n)
    if isinstance(op, RotateBasis):
        p = register.position(op.target)
        out = np.zeros((2**p, 2, 2 ** (n - p - 1)) * 2, dtype=np.complex128)
        # A Kronecker chain's zeros are products with H's entries and carry
        # their signs: those in the ↓↓ entry's places are negative.
        out.real[:, 1, :, :, 1] = -0.0
        np.einsum("arcasc->acrs", out)[...] = _H
        return out.reshape(2**n, 2**n)
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
