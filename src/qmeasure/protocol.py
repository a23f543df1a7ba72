"""Measurement procedures assembled from the local gates.

Three levels of idealization:

- :func:`uncorrected_measure` imprints the signal on a single environment
  qubit and swaps the observer in.  The environment's initial branch decides
  whether the signal-observer pair comes out correlated or anticorrelated.
- :func:`corrected_measure` runs the four-gate procedure against a
  correlated (GHZ-form) environment: dump the observer's arbitrary state
  into the last environment slot, undo the environment's imprint on the
  first slot using the redundant copy, imprint the signal, and swap the
  observer in.  The result is perfect signal-observer correlation, at the
  price of one unit of the environment's correlation resource.
- :func:`ideal_measure` suppresses the environment entirely and assumes a
  pre-corrected observer sitting in the ready state of the chosen basis.

Measuring in X is the Z procedure conjugated by the basis rotation R on
every operand.  As (R⊗R)·imprint(a→b)·(R⊗R) = imprint(b→a) and swaps commute
with R⊗R, the X scripts are the Z scripts with each imprint reversed; only
the corrected measurement's environment check reads the rotated frame.  The
procedures take the gate executor: the strided kernels or the dense oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import analysis
from .gates import GateOp, Imprint, InverseImprint, RotateBasis, Swap, apply_script
from .statevec import PureState, _frame_view

#: Runs a gate script on a state: the strided kernels or the dense oracle.
Executor = Callable[[PureState, Sequence[GateOp]], PureState]

#: Largest admissible deviation of the observer from the ready state
#: (2-norm of the off-ready component) before an ideal measurement.
READY_TOL = 1e-9


class ObserverNotReadyError(ValueError):
    """Observer is not in the ready state of the chosen basis.

    Raised by :func:`ideal_measure`; it means the correction step that
    would have prepared the observer was skipped.
    """


class EnvironmentNotGHZError(ValueError):
    """Environment subsystems are not jointly in GHZ form.

    The corrected procedure presumes the correlated resource state
    Σ_k χ_k |k…k⟩ over exactly the listed environment labels, unentangled
    with everything else.
    """


@dataclass(frozen=True)
class MeasurementOutcomeSpec:
    """Operands of a corrected measurement: who measures whom against what.

    ``basis`` selects the basis in which the imprint correlates signal and
    observer; the swaps are basis independent.
    """

    signal: str
    observer: str
    environment: tuple[str, ...]
    basis: str = "Z"

    def __post_init__(self) -> None:
        object.__setattr__(self, "environment", tuple(self.environment))
        labels = (self.signal, self.observer, *self.environment)
        if len(set(labels)) != len(labels):
            raise ValueError(f"measurement operands must be distinct, got {labels}")
        if not self.environment:
            raise ValueError("environment label list must not be empty")
        if self.basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z' or 'X', got {self.basis!r}")


def uncorrected_script(signal: str, observer: str, environment: str) -> list[GateOp]:
    return [Imprint(signal, environment), Swap(observer, environment)]


def corrected_script(spec: MeasurementOutcomeSpec) -> list[GateOp]:
    """Gate sequence of the environment-corrected measurement.

    The final swap exchanges the observer with the first environment slot;
    that is the operand choice that leaves the observer holding the signal's
    value and the first slot rejoining the environment's correlated branch.
    In X each imprint's operands are reversed (see the module docstring).
    """
    env = spec.environment
    e1, e2, e_last = env[0], env[1], env[-1]
    script: list[GateOp] = [
        Swap(spec.observer, e_last),
        InverseImprint(e2, e1),
        Imprint(spec.signal, e1),
        Swap(spec.observer, e1),
    ]
    if spec.basis == "X":
        # (R⊗R)·imprint(a→b)·(R⊗R) = imprint(b→a); swaps commute with R⊗R.
        return [op if isinstance(op, Swap) else type(op)(op.target, op.source) for op in script]
    return script


def ideal_script(signal: str, observer: str, basis: str) -> list[GateOp]:
    if basis == "Z":
        return [Imprint(signal, observer)]
    if basis == "X":
        return [Imprint(observer, signal)]
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def uncorrected_measure(
    state: PureState, signal: str, observer: str, environment: str, execute: Executor = apply_script
) -> PureState:
    """Measure without environmental correction: imprint on e, swap o in.

    On |ψ⟩_s |φ⟩_o (χ_↑|↑⟩ + χ_↓|↓⟩)_e this yields
    (χ_↑|Ψ⟩ + χ_↓|Ψ̄⟩)_so |φ⟩_e, i.e. a correlated branch and an
    anticorrelated branch weighted by the environment's amplitudes.
    """
    if len({signal, observer, environment}) != 3:
        raise ValueError("signal, observer and environment must be distinct")
    return execute(state, uncorrected_script(signal, observer, environment))


def check_environment(
    state: PureState, spec: MeasurementOutcomeSpec, tol: float = analysis.DEFAULT_TOL
) -> tuple[complex, complex]:
    """Verify the environment is jointly in strict GHZ form; return its coefficients.

    Detection runs through :func:`analysis.find_clusters` without relabeling.
    Accepted shapes over exactly the environment labels: one covering
    cluster, or all members constant at the same bit (the single-branch
    degenerate case).  Anything entangled with outside subsystems, or merely
    piecewise correlated, is rejected.
    """
    env = spec.environment
    decomposition = analysis.find_clusters(state, tol, allow_relabeling=False)
    env_set = set(env)
    owned: list[analysis.CorrelationCluster] = []
    for cluster in decomposition.clusters:
        members = set(cluster.members)
        if members & env_set:
            if not members <= env_set:
                raise EnvironmentNotGHZError(
                    f"environment labels {sorted(members & env_set)} are entangled "
                    f"with outside subsystems {sorted(members - env_set)}"
                )
            owned.append(cluster)
    in_residual = env_set & set(decomposition.residual)
    if in_residual:
        raise EnvironmentNotGHZError(
            f"environment subsystems {sorted(in_residual)} carry no GHZ structure"
        )

    if len(owned) == 1 and set(owned[0].members) == env_set:
        return owned[0].coefficients
    # Degenerate resource: every environment qubit constant at the same bit.
    bits = []
    for cluster in owned:
        if cluster.size != 1:
            raise EnvironmentNotGHZError(
                "environment splits into several correlated pieces instead of one"
            )
        c_up, c_down = cluster.coefficients
        if abs(c_up) > tol and abs(c_down) > tol:
            raise EnvironmentNotGHZError(
                f"environment qubit {cluster.members[0]!r} is in a local superposition, "
                "not part of a joint GHZ branch"
            )
        bits.append(0 if abs(c_up) > abs(c_down) else 1)
    if len(set(bits)) != 1:
        raise EnvironmentNotGHZError(
            "environment qubits sit in different constant branches"
        )
    return (1.0 + 0.0j, 0.0j) if bits[0] == 0 else (0.0j, 1.0 + 0.0j)


def corrected_measure(
    state: PureState,
    spec: MeasurementOutcomeSpec,
    tol: float = analysis.DEFAULT_TOL,
    execute: Executor = apply_script,
) -> PureState:
    """Environment-corrected measurement against a GHZ-form environment.

    On (Σ_i ψ_i|i⟩)_s |φ⟩_o (Σ_k χ_k|k…k⟩)_e1..eN the output factorizes as
    (Σ_i ψ_i|ii⟩)_so ⊗ (Σ_k χ_k|k⟩^⊗(N−1))_e1..e(N−1) ⊗ |φ⟩_eN.

    Needs N ≥ 2: the correction draws on a redundant copy (e2) and a dump
    slot (eN).  For N = 2 those coincide; the same script still runs, but
    the clean factorization above is no longer the generic outcome.

    In X (→/← for ↑/↓) the environment check reads the state with all N+2
    operands rotated, so an environment entangled with the signal or the
    observer is named as such; the script, its imprints reversed, runs on
    the unrotated input.
    """
    if len(spec.environment) < 2:
        raise ValueError(
            "corrected measurement needs at least two environment subsystems "
            "(a redundant copy and a dump slot)"
        )
    frame = state
    if spec.basis == "X":
        operands = (spec.signal, spec.observer, *spec.environment)
        frame = execute(state, [RotateBasis(lbl) for lbl in operands])
    check_environment(frame, spec, tol)
    return execute(state, corrected_script(spec))


def check_ready(state: PureState, observer: str, basis: str) -> None:
    """Raise unless the observer sits in the basis-0 ready state (|↑⟩ or |→⟩).

    The off-ready norm does not depend on the other qubits' basis flags, so
    it is read in the state's own frame with the observer's flag set to the
    basis: the norm of the amplitudes whose observer bit is set.  A state
    holding only its support index is checked on that index and stays
    sparse.
    """
    pos = state.register.position(observer)
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    bit = 1 << (state.n_qubits - 1 - pos)
    frame = state._frame | bit if basis == "X" else state._frame & ~bit
    index, values = _frame_view(state, frame)
    if index is None:
        off = float(np.linalg.norm(values.reshape(2**pos, 2, -1)[:, 1]))
    else:
        off = float(np.linalg.norm(values[(index & bit) != 0]))
    ready = "↑" if basis == "Z" else "→"
    if off > READY_TOL:
        raise ObserverNotReadyError(
            f"observer {observer!r} deviates from the ready state |{ready}⟩ by "
            f"{off:.3e}; run the corrected procedure first"
        )


def ideal_measure(
    state: PureState, signal: str, observer: str, basis: str, execute: Executor = apply_script
) -> PureState:
    """Environment-suppressed measurement by a pre-corrected observer.

    In Z this is an imprint of the signal on the observer; in X that imprint
    conjugated into the →/← basis, which is the reversed imprint.  The
    observer must already be in the ready state of the chosen basis
    (tolerance ``READY_TOL``), which is what the corrected procedure leaves.
    """
    if signal == observer:
        raise ValueError("signal and observer must be distinct")
    check_ready(state, observer, basis)
    return execute(state, ideal_script(signal, observer, basis))
