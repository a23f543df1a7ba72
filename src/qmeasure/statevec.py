"""Labeled-register pure states: construction, combination, comparison, branch views.

Conventions used throughout the package:

- Every subsystem is a qubit.  The computational basis symbols are ``↑``
  (bit 0) and ``↓`` (bit 1); the rotated basis uses ``→`` = (↑+↓)/√2 and
  ``←`` = (↑−↓)/√2.
- Register position 0 is the *most significant* bit of the amplitude index,
  so the flat amplitude array reads like left-to-right ket notation: for a
  register (a, b) the order is |↑↑⟩, |↑↓⟩, |↓↑⟩, |↓↓⟩.
- States are values.  Amplitude arrays are copied and locked at construction
  and every operation returns a new state, so states are safe to share
  between threads.
- Constructors that accept user coefficients normalize them; everything else
  validates that the squared 2-norm is 1 within ``NORM_TOL`` and refuses
  states that drifted further than that.

Sparse states carry a support index.  The dense amplitude vector is the
only source of truth; beside it a state may keep a private index: sorted,
unique int64 positions outside which every amplitude is exactly 0.  A state
keeps it only while it lists at most 2^n · ``SPARSE_SHARE`` positions, the
share below which moving the indexed amplitudes beats a strided pass (the
crossover lies near 1/8 at n = 20).
:func:`make_ghz` sets it, :func:`tensor` combines its operands' indices,
and the permutation gates (imprint, inverse imprint, swap) move it with the
amplitudes; the basis rotation, arbitrary single-qubit unitaries, the dense
oracle and the public ``PureState`` constructor yield states without one.
Where it is kept, the norm check, cluster detection's support scan and
Z-basis branch listing read the indexed positions instead of all 2^n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

#: |norm - 1| accepted when a state is constructed from raw amplitudes.
NORM_TOL = 1e-9

#: Branches with |amplitude| at or below this are treated as absent
#: (separates true zeros from double-precision rounding noise).
PRUNE_TOL = 1e-12

#: Largest share of the 2^n positions a state's support index may list.
#: Measured, not tuned (random supports, one core of a shared 2-CPU x86
#: host, numpy 2.4): at 1/16 a swap through the index costs 0.4-0.6x of the
#: strided kernel (n = 14, 20); at 1/8 it costs 0.8x (n=14) and 1.1x (n=20).
SPARSE_SHARE = 1 / 16

UP, DOWN, RIGHT, LEFT = "↑", "↓", "→", "←"
Z_SYMBOLS = (UP, DOWN)
X_SYMBOLS = (RIGHT, LEFT)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

#: A basis choice is "Z" (computational ↑/↓) or "X" (→/←), given either as
#: one string applied uniformly or as a mapping covering every register label.
BasisChoice = str | Mapping[str, str]


@dataclass(frozen=True)
class Register:
    """Ordered collection of unique subsystem labels.

    The order is the tensor order: the label at position 0 owns the most
    significant bit of the amplitude index.
    """

    labels: tuple[str, ...]
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("register needs at least one subsystem label")
        for label in self.labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"invalid subsystem label: {label!r}")
            if any(ch.isspace() for ch in label):
                raise ValueError(f"subsystem label may not contain whitespace: {label!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate subsystem labels in register: {self.labels}")
        object.__setattr__(self, "_pos", {lbl: i for i, lbl in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._pos

    def position(self, label: str) -> int:
        """Index of ``label`` in the tensor order."""
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(f"unknown subsystem label: {label!r}") from None


def as_register(labels: "Register | Iterable[str]") -> Register:
    """Coerce a label sequence into a Register (Registers pass through)."""
    if isinstance(labels, Register):
        return labels
    return Register(tuple(labels))


def _adopt(
    register: Register, arr: np.ndarray, index: np.ndarray | None = None
) -> "PureState":
    """Wrap a freshly allocated complex128 array as a state without re-copying.

    Internal fast path for gate kernels and state builders.  The norm
    invariant is still enforced; the copy and finiteness scan are skipped
    because unitary kernels and products of validated states preserve both,
    and the array is owned by the caller.  ``index``, when given, is a
    support index for ``arr`` (see the module docstring); it is kept only
    within ``SPARSE_SHARE``, and the norm is then summed over it.
    """
    if index is not None:
        if index.size > arr.size * SPARSE_SHARE:
            index = None
        else:
            index.setflags(write=False)
    norm = float(np.linalg.norm(arr if index is None else arr[index]))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {norm!r} is off unity by more than {NORM_TOL}")
    arr.setflags(write=False)
    state = object.__new__(PureState)
    object.__setattr__(state, "register", register)
    object.__setattr__(state, "amplitudes", arr)
    object.__setattr__(state, "_index", index)
    return state


@dataclass(frozen=True, eq=False)
class PureState:
    """Dense complex amplitude vector over a labeled qubit register.

    The amplitude array is copied at construction, validated (finite, length
    2^n, unit norm within ``NORM_TOL``) and then made read-only.  Use
    :func:`product_state`, :func:`make_ghz` or :func:`basis_state` to build
    states from unnormalized coefficients.
    """

    register: Register
    amplitudes: np.ndarray
    _index: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        n = len(self.register)
        if arr.shape != (2**n,):
            raise ValueError(
                f"amplitude vector has length {arr.size}, expected 2^{n} = {2**n}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} is off unity by more than {NORM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        vec = self.amplitudes
        return float(np.linalg.norm(vec if self._index is None else vec[self._index]))

    def __repr__(self) -> str:
        return f"PureState(register={self.register.labels}, dim={self.dim})"


@dataclass(frozen=True)
class Branch:
    """One product-basis outcome of a state with its amplitude.

    ``outcome`` holds one symbol per register position (↑/↓ for Z-selected
    subsystems, →/← for X-selected ones).
    """

    outcome: str
    amplitude: complex

    @property
    def probability(self) -> float:
        return abs(self.amplitude) ** 2


@dataclass(frozen=True)
class BranchSet:
    """All branches of a state above the pruning threshold, under one basis choice.

    ``basis`` is the per-position selector tuple ("Z" or "X", aligned with
    ``register``).  Branches are sorted by outcome with ↑ before ↓ and →
    before ← at every position, which is ascending amplitude-index order in
    the rotated frame.
    """

    register: Register
    basis: tuple[str, ...]
    branches: tuple[Branch, ...]

    @property
    def basis_map(self) -> dict[str, str]:
        return dict(zip(self.register.labels, self.basis))

    def position(self, label: str) -> int:
        return self.register.position(label)

    def symbol(self, branch: Branch, label: str) -> str:
        """Outcome symbol of ``label`` in ``branch``."""
        return branch.outcome[self.position(label)]


def normalize_basis(basis: BasisChoice, register: Register) -> tuple[str, ...]:
    """Resolve a basis choice into a per-position selector tuple.

    Accepts the uniform shorthand "Z" / "X" or a mapping that covers every
    register label exactly.
    """
    if isinstance(basis, str):
        if basis not in ("Z", "X"):
            raise ValueError(f"basis selector must be 'Z' or 'X', got {basis!r}")
        return (basis,) * len(register)
    extra = set(basis) - set(register.labels)
    if extra:
        raise ValueError(f"basis names labels not in register: {sorted(extra)}")
    missing = [lbl for lbl in register.labels if lbl not in basis]
    if missing:
        raise ValueError(f"basis is missing selectors for: {missing}")
    selectors = tuple(basis[lbl] for lbl in register.labels)
    for lbl, sel in zip(register.labels, selectors):
        if sel not in ("Z", "X"):
            raise ValueError(f"basis selector for {lbl!r} must be 'Z' or 'X', got {sel!r}")
    return selectors


def _normalized_pair(pair: Sequence[complex], what: str) -> np.ndarray:
    vec = np.array([pair[0], pair[1]], dtype=np.complex128)
    if not np.all(np.isfinite(vec.view(np.float64))):
        raise ValueError(f"{what} must be finite")
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError(f"{what} must not be all zero")
    return vec / norm


def product_state(
    register: "Register | Iterable[str]",
    per_qubit: Sequence[Sequence[complex]],
) -> PureState:
    """Tensor product of single-qubit states, one (up, down) amplitude pair per label.

    Each pair is normalized individually, so unnormalized coefficient pairs
    are accepted.
    """
    reg = as_register(register)
    if len(per_qubit) != len(reg):
        raise ValueError(
            f"got {len(per_qubit)} amplitude pairs for {len(reg)} register labels"
        )
    vec = np.ones(1, dtype=np.complex128)
    for label, pair in zip(reg.labels, per_qubit):
        vec = np.kron(vec, _normalized_pair(pair, f"amplitude pair for {label!r}"))
    return PureState(reg, vec)


def basis_state(register: "Register | Iterable[str]", symbols: str) -> PureState:
    """Computational basis state from a symbol string, e.g. ``"↑↓↑"``."""
    reg = as_register(register)
    if len(symbols) != len(reg):
        raise ValueError(f"need {len(reg)} symbols, got {len(symbols)}")
    pairs = []
    for sym in symbols:
        if sym == UP:
            pairs.append((1.0, 0.0))
        elif sym == DOWN:
            pairs.append((0.0, 1.0))
        else:
            raise ValueError(f"basis_state takes computational symbols ↑/↓ only, got {sym!r}")
    return product_state(reg, pairs)


def make_ghz(
    labels: "Register | Iterable[str]",
    coefficients: Sequence[complex],
) -> PureState:
    """Correlated resource state Σ_k χ_k |k⟩^⊗N over the given labels.

    The two coefficients weight the all-↑ and all-↓ branches; they are
    normalized, and one of them may be zero.
    """
    reg = as_register(labels)
    if len(coefficients) != 2:
        raise ValueError("make_ghz takes exactly two coefficients (qubit registers)")
    coeffs = _normalized_pair(coefficients, "GHZ coefficient vector")
    index = np.array([0, 2 ** len(reg) - 1], dtype=np.int64)
    vec = np.zeros(2 ** len(reg), dtype=np.complex128)
    vec[index] = coeffs
    return _adopt(reg, vec, index)


def tensor(a: PureState, b: PureState) -> PureState:
    """Combine two states on disjoint registers; a's labels come first."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise ValueError(f"registers share labels: {sorted(overlap)}")
    reg = Register(a.register.labels + b.register.labels)
    limit = 2 ** len(reg) * SPARSE_SHARE
    ia, ib = _known_support(a, limit), _known_support(b, limit)
    if ia is None or ib is None or ia.size * ib.size > limit:
        return _adopt(reg, np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1))
    index = ((ia << b.n_qubits)[:, None] | ib).reshape(-1)
    vec = np.zeros(2 ** len(reg), dtype=np.complex128)
    vec[index] = np.multiply.outer(a.amplitudes[ia], b.amplitudes[ib]).reshape(-1)
    return _adopt(reg, vec, index)


def _known_support(state: PureState, limit: float) -> np.ndarray | None:
    """The state's support index, or its nonzero positions when it has none
    but is small enough (at most ``limit`` positions) to scan."""
    if state._index is not None:
        return state._index
    if state.dim <= limit:
        return np.flatnonzero(state.amplitudes)
    return None


def approx_eq(
    a: PureState,
    b: PureState,
    tol: float = 1e-9,
    up_to_global_phase: bool = False,
) -> bool:
    """Max-norm amplitude comparison of two states on the same register.

    With ``up_to_global_phase`` set, b is rotated by the phase that best
    aligns it with a before comparing.
    """
    if a.register != b.register:
        raise ValueError(
            f"register mismatch: {a.register.labels} vs {b.register.labels}"
        )
    bv = b.amplitudes
    if up_to_global_phase:
        ip = np.vdot(bv, a.amplitudes)
        if abs(ip) > 0.0:
            bv = bv * (ip / abs(ip))
    return bool(np.max(np.abs(a.amplitudes - bv)) <= tol)


def _rotate_axis(arr: np.ndarray, n: int, pos: int) -> np.ndarray:
    """Apply the self-inverse ↑/↓ ↔ →/← change of basis on one tensor axis."""
    psi = arr.reshape([2] * n)
    moved = np.moveaxis(psi, pos, 0)
    out = np.empty_like(moved)
    out[0] = (moved[0] + moved[1]) * _INV_SQRT2
    out[1] = (moved[0] - moved[1]) * _INV_SQRT2
    return np.moveaxis(out, 0, pos).reshape(-1)


def _outcome_string(index: int, selectors: tuple[str, ...]) -> str:
    n = len(selectors)
    chars = []
    for p, sel in enumerate(selectors):
        bit = (index >> (n - 1 - p)) & 1
        chars.append(Z_SYMBOLS[bit] if sel == "Z" else X_SYMBOLS[bit])
    return "".join(chars)


def branch_decompose(state: PureState, basis: BasisChoice) -> BranchSet:
    """Decompose a state into product-basis branches under a per-subsystem basis choice.

    X-selected subsystems are rotated into the →/← frame first; all outcomes
    with |amplitude| above ``PRUNE_TOL`` are listed in sorted order.
    """
    selectors = normalize_basis(basis, state.register)
    n = state.n_qubits
    vec = state.amplitudes
    if "X" not in selectors and state._index is not None:
        keep = state._index[np.abs(vec[state._index]) > PRUNE_TOL]
    else:
        for pos, sel in enumerate(selectors):
            if sel == "X":
                vec = _rotate_axis(vec, n, pos)
        keep = np.flatnonzero(np.abs(vec) > PRUNE_TOL)
    branches = tuple(
        Branch(_outcome_string(int(i), selectors), complex(vec[i])) for i in keep
    )
    return BranchSet(state.register, selectors, branches)


def from_branches(branch_set: BranchSet) -> PureState:
    """Rebuild the state a BranchSet was decomposed from (round-trip inverse)."""
    reg = branch_set.register
    n = len(reg)
    vec = np.zeros(2**n, dtype=np.complex128)
    for branch in branch_set.branches:
        index = 0
        for p, sym in enumerate(branch.outcome):
            bit = 0 if sym in (UP, RIGHT) else 1
            index |= bit << (n - 1 - p)
        vec[index] = branch.amplitude
    for pos, sel in enumerate(branch_set.basis):
        if sel == "X":
            vec = _rotate_axis(vec, n, pos)
    return PureState(reg, vec)
