"""Local unitaries applied on labeled subsystems of a pure state.

The named gates are the record-copying imprint (a CNOT whose control fires
on ↓), its inverse, the subsystem swap, and the self-inverse ↑/↓ ↔ →/←
basis rotation.  All four are Clifford gates, so they act on a state
H^frame · φ (see :mod:`qmeasure.statevec`) through its basis flags and its
stored amplitudes φ:

- the rotation flips its qubit's flag and touches no amplitude;
- the swap exchanges the two qubits' bits in φ and their flags;
- the imprint is a permutation of φ when neither operand is flagged, the
  same permutation with the operands reversed when both are, since
  (H⊗H)·imprint(a→b)·(H⊗H) = imprint(b→a), and when only one is flagged,
  that flag is cleared first, which at most doubles the support.

Kernels work on the support index when φ has one, moving only the indexed
amplitudes, and otherwise by strided slicing of the dense vector (the
stride is fixed by the operand's register position), never by building
2^n x 2^n matrices, so a gate costs O(2^n) time and memory at most.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statevec import PureState, _adopt, _framed, _rotated


@dataclass(frozen=True)
class Imprint:
    """Copy the source's computational value onto the target (CNOT-like)."""

    source: str
    target: str

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError(f"imprint needs two distinct operands, got {self.source!r} twice")


@dataclass(frozen=True)
class InverseImprint:
    """Undo an imprint the source may have left on the target."""

    source: str
    target: str

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError(
                f"inverse imprint needs two distinct operands, got {self.source!r} twice"
            )


@dataclass(frozen=True)
class Swap:
    """Exchange the states of two subsystems."""

    a: str
    b: str

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"swap needs two distinct operands, got {self.a!r} twice")


@dataclass(frozen=True)
class RotateBasis:
    """Rotate one subsystem between the ↑/↓ and →/← bases (self-inverse)."""

    target: str


GateOp = Imprint | InverseImprint | Swap | RotateBasis


def _moved(state: PureState, to: np.ndarray, frame: int) -> PureState:
    """The state whose amplitudes at its support index move to ``to``."""
    order = np.argsort(to)
    return _adopt(state.register, state._values[order], to[order], frame)


def imprint(state: PureState, source: str, target: str) -> PureState:
    """Flip the target wherever the source is ↓; identity on the ↑ rows.

    Basis action on (source, target): ↑↑→↑↑, ↑↓→↑↓, ↓↑→↓↓, ↓↓→↓↑.
    """
    if source == target:
        raise ValueError(f"imprint needs two distinct operands, got {source!r} twice")
    reg = state.register
    ps, pt, n = reg.position(source), reg.position(target), len(reg)
    flagged = [(state._frame >> (n - 1 - p)) & 1 for p in (ps, pt)]
    if flagged[0] != flagged[1]:  # clear the one flag set, then permute
        bit = 1 << (n - 1 - (ps if flagged[0] else pt))
        index, values = _rotated(n, state._index, state._values, bit)
        state = _adopt(reg, values, index, state._frame ^ bit)
    elif flagged[0]:  # (H⊗H)·imprint(a→b)·(H⊗H) = imprint(b→a)
        ps, pt = pt, ps
    index = state._index
    if index is not None:
        fired = (index >> (n - 1 - ps)) & 1
        return _moved(state, index ^ (fired << (n - 1 - pt)), state._frame)
    psi = state._values.reshape([2] * n)
    out = psi.copy()
    fired = (slice(None),) * ps + (1,)  # the half where the source is ↓
    out[fired] = np.flip(psi[fired], pt - (pt > ps))
    return _adopt(reg, out.reshape(-1), None, state._frame)


def inverse_imprint(state: PureState, source: str, target: str) -> PureState:
    """Inverse of :func:`imprint`; for qubits the two coincide."""
    return imprint(state, source, target)


def swap(state: PureState, a: str, b: str) -> PureState:
    """Exchange two subsystems: |xy⟩ → |yx⟩ on (a, b)."""
    if a == b:
        raise ValueError(f"swap needs two distinct operands, got {a!r} twice")
    reg = state.register
    pa, pb, n = reg.position(a), reg.position(b), len(reg)
    sa, sb = n - 1 - pa, n - 1 - pb
    frame = state._frame
    if ((frame >> sa) ^ (frame >> sb)) & 1:
        frame ^= (1 << sa) | (1 << sb)
    index = state._index
    if index is not None:
        differ = ((index >> sa) ^ (index >> sb)) & 1
        return _moved(state, index ^ ((differ << sa) | (differ << sb)), frame)
    psi = state._values.reshape([2] * n)
    return _adopt(reg, np.swapaxes(psi, pa, pb).reshape(-1), None, frame)


def rotate_basis(state: PureState, target: str) -> PureState:
    """Apply the self-inverse map ↑ → (↑+↓)/√2, ↓ → (↑−↓)/√2 on one subsystem.

    Measuring in Z after this rotation is the same as measuring in X before
    it.  Only the target's basis flag flips; no amplitude is touched.
    """
    bit = 1 << (state.n_qubits - 1 - state.register.position(target))
    return _framed(state.register, state._index, state._values, state._frame ^ bit)


def apply_gate(state: PureState, op: GateOp) -> PureState:
    """Apply one named gate."""
    if isinstance(op, Imprint):
        return imprint(state, op.source, op.target)
    if isinstance(op, InverseImprint):
        return inverse_imprint(state, op.source, op.target)
    if isinstance(op, Swap):
        return swap(state, op.a, op.b)
    if isinstance(op, RotateBasis):
        return rotate_basis(state, op.target)
    raise TypeError(f"not a gate operation: {op!r}")


def apply_script(state: PureState, script: Sequence[GateOp]) -> PureState:
    """Apply gates left to right in list order.

    The first invalid gate aborts with its error; since states are values the
    caller's input is never touched.
    """
    out = state
    for op in script:
        out = apply_gate(out, op)
    return out


def invert_script(script: Sequence[GateOp]) -> list[GateOp]:
    """Script that undoes ``script``: reversed order, each gate inverted.

    Swap and the basis rotation are self-inverse; imprint and inverse imprint
    exchange roles (and coincide on qubits).
    """
    inverted: list[GateOp] = []
    for op in reversed(script):
        if isinstance(op, Imprint):
            inverted.append(InverseImprint(op.source, op.target))
        elif isinstance(op, InverseImprint):
            inverted.append(Imprint(op.source, op.target))
        else:
            inverted.append(op)
    return inverted
