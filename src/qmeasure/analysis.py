"""Correlation-cluster detection and accounting on pure states.

A state is in *cluster normal form* when it factors into groups of
subsystems that are each of the two-branch correlated shape
Σ_k c_k |k…k⟩ (optionally with per-member bit flips when anticorrelated
groups are admitted).  Single subsystems in an arbitrary state count as
degenerate one-member clusters.  Detection works in two stages, as the
branch structure suggests:

1. group subsystems whose computational bits co-vary over every branch of
   the state's support (equal everywhere, or opposite everywhere in
   relabeling mode) into candidate clusters;
2. try to factor each candidate out of every nonzero amplitude, the columns
   keeping their register positions with the bits of factored members
   cleared; candidates that do not factor cleanly are moved to the residual.

A state with basis flags, H^frame · φ, is read off the factors of its stored
amplitudes φ first, and its Z view only where they do not decide it.

The integer correlation measure of a cluster is its member count minus one
when both coefficients are live, else zero; ledger snapshots track how that
resource moves through a measurement procedure.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .statevec import DENSE_MAX_QUBITS, X_SYMBOLS, Z_SYMBOLS, BranchSet, PureState
from .statevec import _bit_matrix, _frame_view, _framed, _halves, _rotate_axis

#: Default detection tolerance.  Two roles: the cutoff on |amplitude| of the
#: support the candidate clusters are read from, and the relative 2-norm
#: reconstruction error, over every nonzero amplitude, accepted per factored
#: cluster.
DEFAULT_TOL = 1e-9


#: A peel normalizes the rest from its ↓ half only where that outweighs the
#: ↑ half by more than this relative margin: above the √N-ulp rounding (2⁻⁴¹
#: at N = 2^24 columns) by which two paths' sums over a tie differ.
_PICK_MARGIN = 2.0**-40


class NotClusterNormalError(ValueError):
    """The state has residual subsystems and therefore no ledger value."""


@dataclass(frozen=True)
class CorrelationCluster:
    """A group of subsystems in the correlated shape Σ_k c_k |k…k⟩.

    ``coefficients`` are (c_up, c_down) where c_up weights the branch in
    which the first member is ↑.  ``flips`` marks members that carry the
    opposite bit of the first member (only set in relabeling mode; the first
    member is never flipped).
    """

    members: tuple[str, ...]
    coefficients: tuple[complex, complex]
    flips: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("cluster needs at least one member")
        if len(self.flips) != len(self.members):
            raise ValueError("one flip flag per member required")
        if self.flips and self.flips[0]:
            raise ValueError("the first cluster member is the flip reference")
        if abs(self.coefficients[0]) == 0.0 and abs(self.coefficients[1]) == 0.0:
            raise ValueError("cluster coefficients must not both vanish")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterDecomposition:
    """Partition of a register into clusters plus a residual of unclustered labels."""

    clusters: tuple[CorrelationCluster, ...]
    residual: tuple[str, ...]


@dataclass(frozen=True)
class LedgerEntry:
    tag: str
    decomposition: ClusterDecomposition
    total: int


@dataclass(frozen=True)
class CorrelationLedger:
    """Append-only record of cluster snapshots; a value, extended functionally."""

    entries: tuple[LedgerEntry, ...] = ()

    def totals(self) -> tuple[int, ...]:
        return tuple(entry.total for entry in self.entries)


@dataclass(frozen=True, eq=False)
class AgreementReport:
    """Per-branch and probability-weighted symbol agreement for label pairs.

    ``agrees`` holds one bool row per branch of the listing it was read
    from and one column per pair.
    """

    pairs: tuple[tuple[str, str], ...]
    agrees: np.ndarray
    aggregates: tuple[float, ...]


def _support(
    state: PureState, cutoff: float
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Every nonzero column (index, amplitude) of the state, and the sorted
    positions of those above the cutoff.

    Reads the Z-frame amplitudes, clearing the state's basis flags on its
    support index while that stays sparse, and only the amplitudes at the
    index when there is one.  A full support above the cutoff, where no two
    positions co-vary, has index and positions None and the Z-frame vector
    itself, uncopied, as amplitudes; a dense vector with no zero in it keeps
    its amplitudes uncopied too.
    """
    index, values = _frame_view(state, 0)
    mag = np.abs(values)
    live = mag > cutoff
    if index is None and live.all():
        return None, values, None
    if not live.any():
        raise ValueError("state has no support above the tolerance cutoff")
    nonzero = mag > 0.0
    del mag  # freed before the columns are gathered
    if index is None:
        index = np.flatnonzero(nonzero)
    elif not nonzero.all():
        index = index[nonzero]
    if index.size < values.size:
        values, live = values[nonzero], live[nonzero]
    return index, values, index if live.all() else index[live]


#: Support columns unpacked to bits at a time in ``_covariation_classes``:
#: one byte per qubit each, so a block takes at most 256 KiB.
_CLASS_BLOCK = 1 << 12


def _covariation_classes(idx: np.ndarray, n: int, allow_relabeling: bool) -> list[list[int]]:
    """Group qubit positions whose bits co-vary over the support columns ``idx``.

    Each position's bits over the columns are XOR'd with its bit in the
    first column and packed into one row of a bit matrix, built a block of
    columns at a time.  Positions with equal rows co-vary: oppositely in
    relabeling mode, and with an equal first bit otherwise.  Constant
    positions (all-zero rows) stay singletons.  Classes come out ordered by
    their first position (the dict keeps insertion order).
    """
    first = _bit_matrix(idx[:1], n)
    width = (idx.size + 7) // 8
    matrix = np.empty((n, width), dtype=np.uint8)  # one row of packed bits per position
    for start in range(0, idx.size, _CLASS_BLOCK):
        block = _bit_matrix(idx[start : start + _CLASS_BLOCK], n) ^ first
        matrix[:, start // 8 : (start + _CLASS_BLOCK) // 8] = np.packbits(block, axis=0).T
    varies, packed = matrix.any(axis=1).tolist(), matrix.tobytes()
    classes: dict[int | bytes, list[int]] = {}
    for p, bit in enumerate(first[0].tolist()):
        key: int | bytes = p
        if varies[p]:
            key = packed[p * width : (p + 1) * width] + (b"" if allow_relabeling else bytes((bit,)))
        classes.setdefault(key, []).append(p)
    return list(classes.values())


def _peel(
    idx: np.ndarray | None, amp: np.ndarray, shifts: list[int], flips: list[bool], tol: float
) -> tuple[tuple[complex, complex], np.ndarray | None, np.ndarray] | None:
    """Try to factor the columns as (Σ_k c_k |k…k⟩ over members) ⊗ rest.

    The members own the bits ``1 << s`` for s in ``shifts``.  ``idx``/``amp``
    are the sorted columns at their register positions, the bits of members
    peeled before cleared, left unwritten; idx None stands for every
    position of the qubits not yet peeled, which then go in register order.
    A column whose members carry neither the up nor the down pattern counts
    in full against the fit.  The factor is accepted when the relative
    2-norm reconstruction error stays within ``tol``.

    Returns the coefficients and the normalized rest as sorted columns with
    the members' bits cleared, or None when not accepted.
    """
    off = 0.0
    if idx is None:
        # A full support peels singletons: halves of a view, copied in order.
        halves = amp.reshape(-1, 2, 1 << shifts[0])
        keys, v_up, v_down = None, halves[:, 0].copy(), halves[:, 1].copy()
    else:
        mask = sum(1 << s for s in shifts)
        up = sum(int(f) << s for f, s in zip(flips, shifts))
        if len(shifts) > 1:  # a lone member's bit always reads one of the two
            bits = idx & mask
            on = (bits == up) | (bits == up ^ mask)
            if not on.all():
                off = float(np.linalg.norm(amp[~on]))
                idx, amp = idx[on], amp[on]
        keys, v_up, v_down = _halves(idx, amp, mask, up)

    n_up, n_down = float(np.linalg.norm(v_up)), float(np.linalg.norm(v_down))
    norm = float(np.hypot(n_up, n_down))
    rest = v_down / n_down if n_down > n_up * (1.0 + _PICK_MARGIN) else v_up / n_up
    c_up = complex(np.vdot(rest, v_up))
    c_down = complex(np.vdot(rest, v_down))

    # What the factorization cannot explain: the non-parallel remainders,
    # from difference vectors, not norm differences, to dodge cancellation.
    # They overwrite the slices, owned copies no longer needed (full columns
    # read them back from amp, which saves a temporary).
    if idx is None:
        np.subtract(halves[:, 0], np.multiply(c_up, rest, out=v_up), out=v_up)
        np.subtract(halves[:, 1], np.multiply(c_down, rest, out=v_down), out=v_down)
    else:
        v_up -= c_up * rest
        v_down -= c_down * rest
    err = float(np.hypot(np.linalg.norm(v_up), np.linalg.norm(v_down)))
    if off:
        err, norm = float(np.hypot(err, off)), float(np.hypot(norm, off))
    if err / norm > tol:
        return None
    return (c_up, c_down), keys, rest.reshape(-1)


def _detect(
    labels: Sequence[str], idx: np.ndarray | None, amp: np.ndarray, live: np.ndarray | None,
    tol: float, allow_relabeling: bool,
) -> tuple[list[CorrelationCluster], list[str], np.ndarray]:
    """The two detection stages on the columns of ``_support``, classes read
    off the positions ``live``: the clusters in class order, the residual
    and the leftover columns."""
    n = len(labels)
    classes = [[p] for p in range(n)] if live is None else _covariation_classes(live, n, allow_relabeling)
    first_column = 0 if live is None else int(live[0])
    clusters: list[CorrelationCluster] = []
    residual: list[str] = []
    for group in classes:
        members = [labels[p] for p in group]
        shifts = [n - 1 - p for p in group]
        bits = [(first_column >> s) & 1 for s in shifts]
        flips = [b != bits[0] for b in bits]
        peeled = _peel(idx, amp, shifts, flips, tol)
        if peeled is None:
            residual.extend(members)
            continue
        coeffs, idx, amp = peeled
        clusters.append(CorrelationCluster(tuple(members), coeffs, tuple(flips)))
    return clusters, residual, amp


def _own_view(
    factor: CorrelationCluster, flagged: bool, tol: float, allow_relabeling: bool
) -> tuple[list[CorrelationCluster], complex] | None:
    """The clusters and leftover phase of the view of a factor of φ, or None
    where it has a residual or nothing above the cutoff.  One member is read
    in closed form, as ``_peel`` reads it but with no fit test (``_factored``)."""
    m, c = factor.size, np.array(factor.coefficients)
    if m > 1:
        up, live = sum(int(f) << (m - 1 - j) for j, f in enumerate(factor.flips)), np.abs(c) > tol
        index = np.array([up, (1 << m) - 1 - up])[live]
        found, left, rest = _detect(factor.members, index, c[live], index, tol, allow_relabeling)
        return None if left else (found, complex(rest[0]))
    if flagged:
        _rotate_axis(c, 0)
    c_up, c_down = (z if abs(z) > tol else 0j for z in c.tolist())
    a_up, a_down = abs(c_up), abs(c_down)
    if not a_up + a_down:
        return None
    r = c_down / a_down if a_down > a_up * (1.0 + _PICK_MARGIN) else c_up / a_up
    return [CorrelationCluster(factor.members, (r.conjugate() * c_up, r.conjugate() * c_down), (False,))], r


def _factored(
    state: PureState, tol: float, allow_relabeling: bool
) -> tuple[list[CorrelationCluster], list[str], complex] | None:
    """The clusters, residual and leftover phase of the state's Z view, read
    off the factors of its stored amplitudes φ; None where they do not
    decide them."""
    reg, frame, n = state.register, state._frame, state.n_qubits
    try:
        idx, amp, live = _support(_framed(reg, state._index, state._values, 0), tol)
    except ValueError:  # nothing above the cutoff
        return None
    if live is None:  # no multi-member factor
        return None
    # φ lies within len(factors)·fit of the product of factors accepted within fit.
    fit = 2.0**-49 * (amp.size + n + 3)
    factors, residual, amp = _detect(reg.labels, idx, amp, live, fit, allow_relabeling)
    if residual:
        return None
    clusters: list[CorrelationCluster] = []
    residual, phase, low, schmidt, own = [], complex(amp[0]), 1.0, 1.0, 0
    for factor in factors:
        m, c = factor.size, np.array(factor.coefficients)
        k = sum((frame >> (n - 1 - reg.position(label))) & 1 for label in factor.members)
        u = c / np.hypot(*np.abs(c))
        w = 2.0 ** (-k / 2) * np.abs([u[0] + u[1], u[0] - u[1]] if k == m else u)
        low *= w[w > 0].min()  # the factor's smallest nonzero modulus in the view
        if m > 1 and k:  # no peel of its view errs by less than its Schmidt coefficient
            if m == 2 == k and not w.all():  # a Bell pair read in X
                return None
            schmidt = min(schmidt, np.abs(u).min())
            residual += factor.members
            continue
        viewed = _own_view(factor, bool(k), tol, allow_relabeling)
        if viewed is None:
            return None
        clusters += viewed[0]
        phase *= viewed[1]
        own += 1
    # The view path's columns stay within slack of the product's view (its
    # peels renormalize by at most √2 each, one per factor peeled on its own
    # view); margin, 16·(N + 3)·2⁻⁵³, bounds the relative rounding of its
    # norms and inner products over N ≤ 2^24 columns.  Below 2·tol, bound
    # leaves those factors' peels accepted; it takes tol > 3·slack ≥ 24√2·fit >
    # 3e-13, past the rounding, about 1e-16, by which a one-member peel errs.
    slack = 4 * len(factors) * (own + 1) * fit * 2.0 ** (own / 2)
    margin = 2.0**-49 * (2 ** min(n, DENSE_MAX_QUBITS) + 3)
    bound = (tol * (1.0 + slack) + 3 * slack) / (1.0 - margin)
    if bound >= 2 * tol or low <= bound or schmidt <= bound:
        return None
    clusters.sort(key=lambda cluster: reg.position(cluster.members[0]))
    return clusters, residual, phase


def find_clusters(
    state: PureState,
    tol: float = DEFAULT_TOL,
    allow_relabeling: bool = False,
) -> ClusterDecomposition:
    """Finest partition of the register into correlated clusters plus residual.

    Never raises on structure: subsystems that fit no factor are reported in
    the residual.  Clusters come out sorted by their first member's register
    position, and when the residual is empty the tensor product of the
    cluster states reproduces the input to ``tol`` exactly (the terminal
    phase is folded into the last cluster).

    ``tol`` plays two roles: the candidate clusters are read off the support
    of amplitudes with modulus above it, and it bounds each cluster's
    relative 2-norm reconstruction error over every nonzero amplitude, where
    an amplitude whose members carry neither of the cluster's two patterns
    counts in full.  So an exact product factors whatever its smallest
    amplitude, and noise moves a subsystem to the residual exactly when the
    subsystem's fit, noise included, is off by more than ``tol``.

    A state with basis flags, H^frame · φ, is first read off the factors of
    its stored amplitudes φ: H^frame maps each to a factor of the Z view
    with the same weights p, q and Schmidt coefficient s = min(√p, √q).
    With m ≥ 2 members, k ≥ 1 of them flagged, that view has no two-branch
    split but the Bell pair read in X: a peel of unflagged members, whose
    halves are H^k-images of orthogonal patterns, errs by s, and one of a
    flagged member, whose halves overlap by |p − q|, by √(2pq) ≥ s.  Such a
    factor goes to the residual when s clears the peel's reject bound by a
    rounding margin; the others are peeled on their own views of at most
    two positions, a one-member view in closed form.  The view decides that
    Bell pair, an s within the bound, a φ with a residual, and a view whose
    smallest nonzero modulus, the product of the factors' closed-form minima,
    does not clear the cutoff by that margin.  The clusters are the view's
    either way, coefficients up to rounding.
    """
    reg = state.register
    found = _factored(state, tol, allow_relabeling) if state._frame else None
    if found is None:
        clusters, residual, amp = _detect(reg.labels, *_support(state, tol), tol, allow_relabeling)
        found = clusters, residual, complex(amp[0])
    clusters, residual, phase = found
    if clusters and not residual:
        # The leftover is a phase; fold it into the last cluster so the
        # product of cluster states equals the input exactly.
        c_up, c_down = clusters[-1].coefficients
        clusters[-1] = replace(clusters[-1], coefficients=(c_up * phase, c_down * phase))
    residual.sort(key=reg.position)
    return ClusterDecomposition(tuple(clusters), tuple(residual))


def cluster_measure(cluster: CorrelationCluster, tol: float = DEFAULT_TOL) -> int:
    """Correlation units carried by a cluster.

    A cluster of m subsystems with two live coefficients carries m − 1;
    a single live coefficient is a product state and carries nothing, as
    does any one-member cluster.
    """
    if cluster.size == 1:
        return 0
    live = sum(1 for c in cluster.coefficients if abs(c) > tol)
    return cluster.size - 1 if live >= 2 else 0


def total_measure(decomposition: ClusterDecomposition, tol: float = DEFAULT_TOL) -> int:
    return sum(cluster_measure(c, tol) for c in decomposition.clusters)


def ledger_record(
    ledger: CorrelationLedger,
    state: PureState,
    tag: str,
    tol: float = DEFAULT_TOL,
    allow_relabeling: bool = True,
) -> CorrelationLedger:
    """Append a cluster snapshot of ``state`` to the ledger.

    The measure is only defined in cluster normal form; a nonempty residual
    raises :class:`NotClusterNormalError` instead of recording an
    approximation.  Relabeling mode is on by default so anticorrelated pairs
    count as measure-carrying.
    """
    decomposition = find_clusters(state, tol, allow_relabeling)
    if decomposition.residual:
        raise NotClusterNormalError(
            f"state has no ledger value: residual subsystems {decomposition.residual}"
        )
    entry = LedgerEntry(tag, decomposition, total_measure(decomposition, tol))
    return CorrelationLedger(ledger.entries + (entry,))


def agreement(
    branches: BranchSet,
    pairs: Sequence[tuple[str, str]],
) -> AgreementReport:
    """Per-branch and aggregate symbol agreement for the given label pairs.

    A pair agrees on a branch iff the two outcome symbols are equal: both
    positions read in the same basis, with equal bits.  The aggregate is
    the total probability of the agreeing branches, summed in branch order.
    """
    positions = [(branches.position(a), branches.position(b)) for a, b in pairs]
    agrees = np.zeros((len(branches), len(pairs)), dtype=bool)
    totals = []
    for i, (pa, pb) in enumerate(positions):
        if branches.basis[pa] == branches.basis[pb]:
            np.equal(branches.bit(pa), branches.bit(pb), out=agrees[:, i])
        # A running total: cumsum adds left to right, np.sum pairs terms.
        picked = branches.probabilities[agrees[:, i]]
        totals.append(float(np.cumsum(picked, out=picked)[-1]) if picked.size else 0.0)
    return AgreementReport(tuple((a, b) for a, b in pairs), agrees, tuple(totals))


INCONSISTENT = "inconsistent"


def recover_record(branches: BranchSet, records: Sequence[str]) -> list[str]:
    """Common record symbol per branch, or ``"inconsistent"`` where they differ.

    Redundant record subsystems let later observers infer an earlier
    measurement outcome branch by branch; this reads that inference off a
    branch decomposition.  Records read in different bases never share a
    symbol.
    """
    if not records:
        raise ValueError("need at least one record subsystem")
    positions = [branches.position(r) for r in records]
    code = branches.bit(positions[0]).astype(np.uint8)  # the common bit, or 2 where they differ
    for p in positions[1:]:
        code[branches.bit(p) != code] = 2
    if len({branches.basis[p] for p in positions}) > 1:
        code[:] = 2
    symbols = Z_SYMBOLS if branches.basis[positions[0]] == "Z" else X_SYMBOLS
    return list(map((*symbols, INCONSISTENT).__getitem__, code.tolist()))
