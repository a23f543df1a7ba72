"""Labeled-register pure states: construction, combination, comparison, branch views.

Conventions used throughout the package:

- Every subsystem is a qubit.  The computational basis symbols are ``↑``
  (bit 0) and ``↓`` (bit 1); the rotated basis uses ``→`` = (↑+↓)/√2 and
  ``←`` = (↑−↓)/√2.
- Register position 0 is the *most significant* bit of the amplitude index,
  so the flat amplitude array reads like left-to-right ket notation: for a
  register (a, b) the order is |↑↑⟩, |↑↓⟩, |↓↑⟩, |↓↓⟩.
- States are values.  Amplitude arrays are copied and locked at construction,
  a state never changes after it, and every operation returns a new state,
  so states are safe to share between threads.
- A register has at most ``MAX_QUBITS`` subsystems, so that every amplitude
  position fits an int64.
- Constructors that accept user coefficients normalize them; everything else
  validates that the 2-norm is 1 within ``NORM_TOL`` and refuses
  states that drifted further than that.

Sparse states hold only their support.  A state built by
:func:`make_ghz`, :func:`tensor` or a permutation gate (imprint, inverse
imprint, swap) on such a state keeps a private support index: sorted,
unique int64 positions, and the amplitudes at them, outside which every
amplitude is exactly 0.  That pair is the state's source of truth; it is
kept only while it lists at most 2^n · ``SPARSE_SHARE`` positions, the share
below which moving the indexed amplitudes beats a strided pass (the
crossover lies near 1/8 at n = 20), and never more than that share of
2^``DENSE_MAX_QUBITS`` (2^20): over more qubits, where no dense vector can
take over, a larger index is refused as the dense vector would be.

Every state also carries a per-qubit basis frame, a bitmask with the bit
order of the amplitude index: the state is H^frame · φ, where H is the
↑/↓ ↔ →/← rotation on each flagged qubit and φ is the stored support index
or dense vector.  A basis rotation flips one flag and touches no amplitude;
the gates move flags as described in :mod:`qmeasure.gates`.  Every reader
sees a state in a frame through :func:`_frame_view`, which clears only the
flags that differ from that frame, in register-position order, with the one
(lo ± hi)/√2 kernel, :func:`_rotate_axis`: on a block of 2^k rows, one per
pattern of the k cleared bits, over the index's distinct positions with
those bits cleared, when that block stays within the share, else on a copy
of the dense vector.  Branch listing reads the frame of its
selectors, :attr:`PureState.amplitudes` the Z frame, cluster
detection the Z frame where the factors of φ do not decide it, and the
ready check the state's own frame with the observer's flag set to the
basis.  The dense Z-frame vector, scattered anew on each access to
``amplitudes``, is read only by the dense oracle and :func:`approx_eq`.  No dense vector over more than ``DENSE_MAX_QUBITS``
qubits is built; asking for one raises :class:`DenseLimitError`.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
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

#: Most subsystems in a register: amplitude positions are int64.
MAX_QUBITS = 63

#: Most qubits a dense amplitude vector (16 · 2^n bytes) is built for.  The
#: dense path peaks at 3.75 times the vector, in cluster detection on the
#: view of a flagged dense state with no zero amplitude but some under the
#: cutoff, a noisy one: the rotated copy, its column index and one peel's
#: halves, rest and remainder (3.750x by tracemalloc at n = 16, 20 and 22;
#: 2.75x on an unflagged one; 2.50x and 1.50x where every amplitude clears
#: the cutoff; the X rejection of a Z-frame GHZ builds no vector), so 24
#: qubits peak near 960 MiB, under an eighth of an 8 GiB host.  The limit bounds vectors, not branch tables: a
#: listing is held as columns of 24 bytes a row, and the runner refuses to
#: render more than ``runner.LISTING_MAX_ROWS`` rows.
DENSE_MAX_QUBITS = 24

UP, DOWN, RIGHT, LEFT = "↑", "↓", "→", "←"
Z_SYMBOLS = (UP, DOWN)
X_SYMBOLS = (RIGHT, LEFT)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

#: A basis choice is "Z" (computational ↑/↓) or "X" (→/←), given either as
#: one string applied uniformly or as a mapping covering every register label.
BasisChoice = str | Mapping[str, str]


class DenseLimitError(ValueError):
    """A dense amplitude vector over more than ``DENSE_MAX_QUBITS`` qubits
    was asked for; it is refused before anything is allocated."""


def _check_dense(n: int) -> None:
    if n > DENSE_MAX_QUBITS:
        raise DenseLimitError(
            f"a dense amplitude vector over {n} qubits exceeds the limit of "
            f"{DENSE_MAX_QUBITS} qubits"
        )


def _sparse_limit(n: int) -> float:
    """Most positions a support index over n qubits lists (module docstring)."""
    return 2 ** min(n, DENSE_MAX_QUBITS) * SPARSE_SHARE


def _scatter(n: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The dense 2^n vector holding ``values`` at ``index`` and 0 elsewhere."""
    _check_dense(n)
    out = np.zeros(2**n, dtype=np.complex128)
    out[index] = values
    return out


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
        if len(self.labels) > MAX_QUBITS:
            raise ValueError(
                f"register has {len(self.labels)} subsystems, at most {MAX_QUBITS} are supported"
            )
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
    register: Register, arr: np.ndarray, index: np.ndarray | None = None, frame: int = 0
) -> "PureState":
    """Wrap freshly allocated complex128 data as a state without re-copying.

    Internal fast path for gate kernels and state builders.  ``arr`` is the
    dense 2^n vector or, when ``index`` is given, the amplitudes at that
    support index (see the module docstring), of φ in the state H^frame · φ;
    an index beyond :func:`_sparse_limit` is scattered into the dense vector
    and dropped.  The state keeps ``arr`` as its stored values (``_values``);
    the norm invariant is still enforced over them, but the copy and
    finiteness scan are skipped because unitary kernels and products of
    validated states preserve both, and the arrays are owned by the caller.
    """
    if index is not None:
        if index.size > _sparse_limit(len(register)):
            arr, index = _scatter(len(register), index, arr), None
        else:
            index.setflags(write=False)
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {norm!r} is off unity by more than {NORM_TOL}")
    arr.setflags(write=False)
    return _framed(register, index, arr, frame)


def _framed(
    register: Register, index: np.ndarray | None, values: np.ndarray, frame: int
) -> "PureState":
    """The state H^frame · φ over read-only stored amplitudes, unchecked."""
    state = object.__new__(PureState)
    state.__dict__.update(register=register, _index=index, _values=values, _frame=frame)
    return state


class PureState:
    """Complex amplitude vector over a labeled qubit register.

    The amplitude array is copied at construction, validated (finite, length
    2^n, unit norm within ``NORM_TOL``) and then made read-only.  Use
    :func:`product_state`, :func:`make_ghz` or :func:`basis_state` to build
    states from unnormalized coefficients.  States are immutable and compare
    by identity.
    """

    register: Register

    def __init__(self, register: Register, amplitudes: np.ndarray) -> None:
        arr = np.array(amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        n = len(register)
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
        self.__dict__.update(register=register, _index=None, _values=arr, _frame=0)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def amplitudes(self) -> np.ndarray:
        """The read-only dense 2^n amplitude vector in the Z frame.

        The Z-frame view of the state, scattered into a dense vector when it
        is held as a support index; built anew on each access, except for an
        unflagged dense state, which returns its stored vector.
        """
        index, values = _frame_view(self, 0)
        if index is not None:
            values = _scatter(self.n_qubits, index, values)
        values.setflags(write=False)
        return values

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self._values))

    def __repr__(self) -> str:
        return f"PureState(register={self.register.labels}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class BranchSet:
    """All branches of a state above the pruning threshold, under one basis choice.

    Held as columns: ``basis`` is the per-position selector tuple ("Z" or
    "X", aligned with ``register``), ``index`` the sorted int64 amplitude
    positions of the branches in the frame of the selectors (bit 0 is ↑ or
    →, bit 1 is ↓ or ←, position 0 the most significant bit), and
    ``amplitudes`` the amplitudes at them.  Sorted positions list the
    outcomes with ↑ before ↓ and → before ← at every position.
    """

    register: Register
    basis: tuple[str, ...]
    index: np.ndarray
    amplitudes: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchSet):
            return NotImplemented
        return (
            (self.register, self.basis) == (other.register, other.basis)
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    def __len__(self) -> int:
        return self.index.size

    @property
    def branches(self) -> BranchSet:
        """The set itself, for callers that count ``len(result.branches)``
        (the benchmark's span tracer in ``bench/spans.py``)."""
        return self

    def position(self, label: str) -> int:
        return self.register.position(label)

    def bit(self, position: int) -> np.ndarray:
        """Whether each branch reads bit 1 (↓ or ←) at one register position."""
        return (self.index & (1 << (len(self.basis) - 1 - position))) != 0

    def outcomes(self) -> np.ndarray:
        """The outcome strings, one symbol per position, as a ``<Un`` array."""
        symbols = np.array([Z_SYMBOLS if sel == "Z" else X_SYMBOLS for sel in self.basis])
        chars = np.where(_bit_matrix(self.index, len(self.basis)), symbols[:, 1], symbols[:, 0])
        return chars.view(f"<U{len(self.basis)}").reshape(-1)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """|amplitude|² per branch, bit for bit Python's ``abs(a) ** 2``:
        libm's hypot and pow, which ``np.abs`` and squaring differ from in
        the last bit of some values."""
        return np.float_power(np.hypot(self.amplitudes.real, self.amplitudes.imag), 2.0)


def _bit_matrix(index: np.ndarray, n: int) -> np.ndarray:
    """The n register bits of each position in ``index``, one uint8 row of
    0/1 per position, register position 0 first (a strided view)."""
    size = (n + 7) // 8
    octets = index.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - size :]
    return np.unpackbits(octets, axis=1)[:, 8 * size - n :]


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
    # Scaling by the power of two of the largest part first is exact, and it
    # keeps the norm of pairs like (1e308, 1e308) or (1e-320, 1e-320) finite.
    parts = np.array([pair[0], pair[1]], dtype=np.complex128).view(np.float64)
    if not np.all(np.isfinite(parts)):
        raise ValueError(f"{what} must be finite")
    peak = np.max(np.abs(parts))
    if peak == 0.0:
        raise ValueError(f"{what} must not be all zero")
    vec = np.ldexp(parts, -np.frexp(peak)[1]).view(np.complex128)
    return vec / np.linalg.norm(vec)


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
    _check_dense(len(reg))
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
    _, index, values = _ghz_part(len(reg), coefficients)
    return _adopt(reg, values, index)


def _single_part(label: str, pair: Sequence[complex]) -> tuple:
    """What :func:`product_state` stores for one label: its normalized pair
    times 1, as by ``np.kron``, which sets the sign of some zeros."""
    return 1, None, _normalized_pair(pair, f"amplitude pair for {label!r}") * (1 + 0j)


def _ghz_part(m: int, coefficients: Sequence[complex]) -> tuple:
    """What :func:`make_ghz` stores over m labels."""
    coeffs = _normalized_pair(coefficients, "GHZ coefficient vector")
    index = np.array([0, 2**m - 1], dtype=np.int64)
    if index.size > _sparse_limit(m):
        return m, None, _scatter(m, index, coeffs)
    return m, index, coeffs


def tensor(a: PureState, b: PureState) -> PureState:
    """Combine two states on disjoint registers; a's labels come first."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise ValueError(f"registers share labels: {sorted(overlap)}")
    reg = Register(a.register.labels + b.register.labels)
    frame = (a._frame << b.n_qubits) | b._frame
    _, index, values = _product((a.n_qubits, a._index, a._values), (b.n_qubits, b._index, b._values))
    return _adopt(reg, values, index, frame)


def _product(a: tuple, b: tuple) -> tuple:
    """The stored amplitudes of a ⊗ b, each part (qubits, index or None, values)
    as a state stores them: the one product rule, of :func:`tensor` and the
    runner's declared state.  A part with no index is scanned when it holds at
    most ``SPARSE_SHARE`` of the product's positions (module docstring)."""
    n, known = a[0] + b[0], []
    for width, index, values in (a, b):
        if index is None and 2**width <= 2**n * SPARSE_SHARE:
            index = np.flatnonzero(values)
            values = values[index]
        known.append((index, values))
    (ia, va), (ib, vb) = known
    if ia is None or ib is None or ia.size * ib.size > _sparse_limit(n):
        _check_dense(n)
        # No operand here has an index: one holds at most SPARSE_SHARE of its
        # own positions, so the other would be scanned and the product fit.
        return n, None, np.multiply.outer(a[2], b[2]).reshape(-1)
    return n, ((ia << b[0])[:, None] | ib).reshape(-1), np.multiply.outer(va, vb).reshape(-1)


def approx_eq(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """Max-norm amplitude comparison of two states on the same register."""
    if a.register != b.register:
        raise ValueError(
            f"register mismatch: {a.register.labels} vs {b.register.labels}"
        )
    return bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= tol)


def _rotate_axis(arr: np.ndarray, pos: int) -> None:
    """Apply the self-inverse ↑/↓ ↔ →/← change of basis on one tensor axis,
    in place: (lo ± hi)/√2 over the vector viewed as (2^pos, 2, rest)."""
    psi = arr.reshape(2**pos, 2, -1)
    lo, hi = psi[:, 0], psi[:, 1]
    total = lo + hi
    np.subtract(lo, hi, out=hi)
    hi *= _INV_SQRT2
    np.multiply(total, _INV_SQRT2, out=lo)


def _halves(
    index: np.ndarray, values: np.ndarray, mask: int, up: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair up a support index along the bits in ``mask``.

    Returns the sorted positions with those bits cleared, and the amplitudes
    at each of them with the bits set as in ``up`` (the up half) and at its
    partner in the other half, exact zeros where a position is not indexed.
    """
    is_up = (index & mask) == up
    keys = index[is_up] & ~mask  # sorted: the cleared bits are constant in a half
    if np.array_equal(keys, index[~is_up] & ~mask):  # the halves are paired already
        return keys, values[is_up], values[~is_up]
    del keys  # freed before the columns are paired anew
    keys, slot = np.unique(index & ~mask, return_inverse=True)
    v_up = np.zeros(keys.size, dtype=np.complex128)
    v_down = np.zeros(keys.size, dtype=np.complex128)
    v_up[slot[is_up]] = values[is_up]
    v_down[slot[~is_up]] = values[~is_up]
    return keys, v_up, v_down


def _rotated(
    n: int, index: np.ndarray | None, values: np.ndarray, mask: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Apply the basis rotation on every qubit flagged in ``mask``, in
    register-position order, to amplitudes held as (index, values), or as
    the dense vector when ``index`` is None.

    The final support is known before any step: 2^k positions, one per
    pattern of the k flagged bits, for each distinct indexed position with
    those bits cleared.  The view stays on the index when that lists at most
    :func:`_sparse_limit` positions, so that a view a larger register cannot
    hold fails on the dense limit before its index grows: the values go into
    a zeroed block of 2^k rows, the flagged bits as its leading axes, which
    :func:`_rotate_axis` rotates one axis at a time.  Otherwise that kernel
    rotates a copy of the dense vector in place.  Absent partners enter as
    exact zeros either way, so both give the same bits.
    """
    flagged = [pos for pos in range(n) if (mask >> (n - 1 - pos)) & 1]
    if index is None:
        values = values.copy()
    else:
        keys, slot = np.unique(index & ~mask, return_inverse=True)
        if keys.size << len(flagged) <= _sparse_limit(n):
            spread = np.zeros(1, dtype=np.int64)  # row r's flagged bits, at their positions
            for pos in flagged:
                spread = (spread[:, None] | [0, 1 << (n - 1 - pos)]).reshape(-1)
            block = np.zeros(spread.size * keys.size, dtype=np.complex128)
            block[np.searchsorted(spread, index & mask) * keys.size + slot] = values
            for axis in range(len(flagged)):
                _rotate_axis(block, axis)
            index = (spread[:, None] | keys).reshape(-1)
            order = np.argsort(index, kind="stable")
            return index[order], block[order]
        values = _scatter(n, index, values)
    for pos in flagged:
        _rotate_axis(values, pos)
    return None, values


def _frame_view(state: PureState, frame: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The amplitudes of H^frame · ψ, as (index, values), or (None, dense).

    With ψ = H^F · φ that is H^(frame ^ F) · φ: only the flags that differ
    from ``frame`` are cleared.  The stored arrays come back as they are
    when none differ.
    """
    flip = state._frame ^ frame
    if not flip:
        return state._index, state._values
    return _rotated(state.n_qubits, state._index, state._values, flip)


def branch_decompose(state: PureState, basis: BasisChoice) -> BranchSet:
    """Decompose a state into product-basis branches under a per-subsystem basis choice.

    X-selected subsystems are read in the →/← frame, Z-selected ones in the
    ↑/↓ frame (only the basis flags that differ from the selectors are
    cleared); all outcomes with |amplitude| above ``PRUNE_TOL`` are listed
    in sorted order.
    """
    selectors = normalize_basis(basis, state.register)
    n = len(selectors)
    frame = sum(1 << (n - 1 - p) for p, sel in enumerate(selectors) if sel == "X")
    index, values = _frame_view(state, frame)
    if index is None:
        keep = np.flatnonzero(np.abs(values) > PRUNE_TOL)
        amps = values[keep]
    else:
        live = np.abs(values) > PRUNE_TOL
        keep, amps = index[live], values[live]
    return BranchSet(state.register, selectors, keep, amps)


def from_branches(branch_set: BranchSet) -> PureState:
    """Rebuild the state a BranchSet was decomposed from (round-trip inverse)."""
    reg, n = branch_set.register, len(branch_set.basis)
    mask = sum(1 << (n - 1 - p) for p, sel in enumerate(branch_set.basis) if sel == "X")
    index, values = _rotated(n, branch_set.index, branch_set.amplitudes, mask)
    return PureState(reg, values if index is None else _scatter(n, index, values))
