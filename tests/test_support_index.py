"""Sparse states: a support index and the amplitudes at it, dense on demand.

Goldens and the shipped scenarios run at n = 5, where no state keeps an
index, so these tests are what covers the sparse side: every operation on
an indexed state must give the same bytes, clusters and branches as the
same operation on an index-free copy, and the dense vector an indexed state
builds on each access must be the one the index-free copy holds.
"""
import json
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmeasure import gates, statevec
from qmeasure.analysis import find_clusters
from qmeasure.oracle import oracle_apply
from qmeasure.protocol import ObserverNotReadyError, check_ready
from qmeasure.runner import RunError, _initial_state, run
from qmeasure.scenario import SingleDecl, parse_scenario
from qmeasure.gates import (
    Imprint,
    imprint,
    inverse_imprint,
    rotate_basis,
    swap,
)
from qmeasure.statevec import (
    SPARSE_SHARE,
    PureState,
    Register,
    _adopt,
    basis_state,
    branch_decompose,
    make_ghz,
    product_state,
    tensor,
)

from conftest import assert_unchanged, random_pair


def check_index(state: PureState) -> None:
    """The index is sorted, unique, within the share, and covers the support
    (of the Z-frame amplitudes when the state carries no basis flags)."""
    index = state._index
    if index is None:
        return
    assert index.dtype == np.int64
    assert index.size <= state.dim * SPARSE_SHARE
    assert np.all(np.diff(index) > 0)
    assert 0 <= index[0] and index[-1] < state.dim
    if not state._frame:
        off = np.ones(state.dim, dtype=bool)
        off[index] = False
        assert not np.any(state.amplitudes[off])


def _pair(gen):
    raw = gen.normal(size=2) + 1j * gen.normal(size=2)
    return tuple(complex(c) for c in raw)


def build_register(gen, sparse: bool) -> PureState:
    """Random GHZ blocks and single qubits, combined left to right by tensor.

    Sparse registers have n = 8…12 and at least one GHZ block of five or
    more labels, so the product keeps its index; the others have n = 2…4.
    """
    n = int(gen.integers(8, 13)) if sparse else int(gen.integers(2, 5))
    sizes = [int(gen.integers(5, n + 1))] if sparse else []
    while sum(sizes) < n:
        left = n - sum(sizes)
        sizes.append(1 if gen.random() < 0.6 else int(gen.integers(1, left + 1)))
    gen.shuffle(sizes)
    names = [f"q{i}" for i in gen.permutation(n)]
    state = None
    for size in sizes:
        labels, names = names[:size], names[size:]
        if size > 1 or gen.random() < 0.3:
            coeffs = _pair(gen) if gen.random() < 0.8 else ((1.0, 0.0), (0.0, 1.0))[
                int(gen.integers(0, 2))
            ]
            part = make_ghz(labels, coeffs)
        elif gen.random() < 0.5:
            part = basis_state(labels, "↑↓"[int(gen.integers(0, 2))])
        else:
            part = product_state(labels, [_pair(gen)])
        check_index(part)
        state = part if state is None else tensor(state, part)
        check_index(state)
    return state


def random_gates(gen, labels, count):
    kernels = (imprint, inverse_imprint, swap, rotate_basis)
    ops = []
    for _ in range(count):
        kernel = kernels[int(gen.integers(0, 4))]
        operands = [str(x) for x in gen.choice(labels, size=2, replace=False)]
        ops.append((kernel, operands[:1] if kernel is rotate_basis else operands))
    return ops


def assert_amplitudes_read_only(state: PureState, plain: PureState) -> None:
    """Every access builds the index-free copy's bytes, read-only, and
    leaves the state as it was."""
    stored = dict(vars(state))
    for _ in range(2):
        vec = state.amplitudes
        assert vec.tobytes() == plain.amplitudes.tobytes()
        assert not vec.flags.writeable
    assert_unchanged(state, stored)


def assert_same_views(indexed: PureState, plain: PureState) -> None:
    assert indexed.amplitudes.tobytes() == plain.amplitudes.tobytes()
    for relabel in (False, True):
        assert find_clusters(indexed, allow_relabeling=relabel) == find_clusters(
            plain, allow_relabeling=relabel
        )
    assert branch_decompose(indexed, "Z") == branch_decompose(plain, "Z")


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_indexed_states_match_index_free_copies(seed, sparse):
    gen = np.random.default_rng(seed)
    state = build_register(gen, sparse)
    assert (state._index is not None) == sparse
    plain = PureState(state.register, state.amplitudes)
    assert plain._index is None
    assert_same_views(state, plain)
    for kernel, operands in random_gates(gen, list(state.register.labels), int(gen.integers(0, 7))):
        state, plain = kernel(state, *operands), kernel(plain, *operands)
        assert_amplitudes_read_only(state, plain)
        check_index(state)
        assert plain._index is None
        assert_same_views(state, plain)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tensor_values_equal_the_outer_product(seed):
    gen = np.random.default_rng(seed)
    a, b = build_register(gen, True), build_register(gen, False)
    b = PureState(Register(tuple(f"b{lbl}" for lbl in b.register.labels)), b.amplitudes)
    for left, right in ((a, b), (b, a)):
        got = tensor(left, right)
        check_index(got)
        assert got._index is not None
        want = np.multiply.outer(left.amplitudes, right.amplitudes).reshape(-1)
        assert np.array_equal(got.amplitudes, want)


def dense_twin_step(plain: PureState, kernel, operands) -> PureState:
    """One gate on an unflagged dense state: the rotation as a pass over the
    amplitude vector, the permutation gates as they run on such a state."""
    if kernel is rotate_basis:
        vec = plain.amplitudes.copy()
        statevec._rotate_axis(vec, plain.register.position(operands[0]))
        return PureState(plain.register, vec)
    return kernel(plain, *operands)


@pytest.mark.parametrize("n", [*range(1, 12), 17])
def test_views_rotate_like_the_in_place_kernel_to_the_bit(n):
    # Sparse and dense views give the bits of the in-place kernel applied in
    # register order.  From n = 5, two views flagged on one qubit sit at the
    # share: final support at the limit stays sparse, one key more goes dense.
    gen = np.random.default_rng(n)
    dense = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    index = np.sort(gen.choice(2**n, size=max(1, 2**n // 16), replace=False))
    dense.setflags(write=False)
    cases = [
        (mask, idx, None)
        for mask in {2**n - 1, 1, *(int(m) for m in gen.integers(0, 2**n, size=6))}
        for idx in (None, index)
    ]
    if n >= 5:
        bit = 1 << int(gen.integers(0, n))
        free = np.flatnonzero((np.arange(2**n) & bit) == 0)
        keys = gen.choice(free, size=2**n // 32 + 1, replace=False)
        keys |= bit * gen.integers(0, 2, size=keys.size)
        cases += [(bit, np.sort(keys[:-1]), True), (bit, np.sort(keys), False)]
    for mask, idx, stays_sparse in cases:
        values = dense if idx is None else dense[idx]
        want = dense.copy() if idx is None else statevec._scatter(n, idx, values)
        for pos in range(n):
            if (mask >> (n - 1 - pos)) & 1:
                statevec._rotate_axis(want, pos)
        got_idx, got = statevec._rotated(n, idx, values, mask)
        if stays_sparse is not None:
            assert (got_idx is not None) == stays_sparse
        if got_idx is not None:
            got = statevec._scatter(n, got_idx, got)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [25, 40, 58, 63])
def test_views_past_the_share_fail_before_the_index_grows(n, monkeypatch):
    # Over more than DENSE_MAX_QUBITS qubits, a view whose final support
    # passes the share is refused on the dense limit before any flag clear:
    # the block path would reach the kernel before its index grows.
    def refuse(*args):
        raise AssertionError("support index grown")

    monkeypatch.setattr(statevec, "_rotate_axis", refuse)
    index = np.array([0, 2**n - 1], dtype=np.int64)
    values = np.array([0.6, 0.8j])
    over = statevec.DENSE_MAX_QUBITS - 4  # two keys << this passes 2^24 / 16
    for mask in (2**n - 1, 2**over - 1, (2**over - 1) << (n - over)):
        with pytest.raises(statevec.DenseLimitError, match="exceeds the limit of 24 qubits"):
            statevec._rotated(n, index, values, mask)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    layout=st.sampled_from(["equal keys", "mixed", "up half only", "down half only"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_halves_match_a_dense_reference(data, n, layout, seed):
    # Both halves laid over the sorted positions with the mask bits cleared,
    # read off the dense vector at those positions with the up and the down
    # pattern set: exact zeros where a half has no column.
    shifts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True))
    mask = sum(1 << s for s in shifts)
    up = sum(data.draw(st.booleans()) << s for s in shifts)
    down = up ^ mask
    free = [p for p in range(2**n) if not p & mask]
    keys = sorted(data.draw(st.lists(st.sampled_from(free), min_size=1, unique=True)))
    both, one = [(up, down)], [(up,), (down,)]
    choices = {"equal keys": both, "mixed": both + one, "up half only": one[:1]}
    patterns = [data.draw(st.sampled_from(choices.get(layout, one[1:]))) for _ in keys]
    index = np.array(sorted(k | p for k, pats in zip(keys, patterns) for p in pats), dtype=np.int64)
    gen = np.random.default_rng(seed)
    values = gen.normal(size=index.size) + 1j * gen.normal(size=index.size)
    dense = statevec._scatter(n, index, values)

    got_keys, v_up, v_down = statevec._halves(index, values, mask, up)
    assert got_keys.dtype == np.int64 and got_keys.tolist() == keys
    assert v_up.tobytes() == dense[got_keys | up].tobytes()
    assert v_down.tobytes() == dense[got_keys | down].tobytes()


def _ready_offs(state: PureState) -> list:
    """Per label and basis: None when the observer is ready, else its off-ready norm."""
    offs = []
    for label in state.register.labels:
        for basis in ("Z", "X"):
            try:
                check_ready(state, label, basis)
                offs.append(None)
            except ObserverNotReadyError as exc:
                offs.append(float(re.search(r"by (\S+);", str(exc)).group(1)))
    return offs


def assert_same_as_twin(state: PureState, twin: PureState, gen) -> None:
    """A flagged state reads like its unflagged dense twin, up to rounding."""
    assert twin._frame == 0 and twin._index is None
    check_index(state)
    assert np.allclose(state.amplitudes, twin.amplitudes, rtol=0.0, atol=1e-12)
    labels = state.register.labels
    mixed = {lbl: "ZX"[int(gen.integers(0, 2))] for lbl in labels}
    for basis in ("Z", "X", mixed):
        ours, theirs = branch_decompose(state, basis), branch_decompose(twin, basis)
        assert ours.outcomes().tolist() == theirs.outcomes().tolist()
        for a, b in zip(ours.amplitudes.tolist(), theirs.amplitudes.tolist()):
            assert abs(a - b) <= 1e-12
    for a, b in zip(_ready_offs(state), _ready_offs(twin)):
        assert (a is None) == (b is None) and (a is None or abs(a - b) <= 2e-3 * b)
    for relabel in (False, True):
        ours = find_clusters(state, allow_relabeling=relabel)
        theirs = find_clusters(twin, allow_relabeling=relabel)
        assert ours.residual == theirs.residual
        assert [(c.members, c.flips) for c in ours.clusters] == [
            (c.members, c.flips) for c in theirs.clusters
        ]
        for a, b in zip(ours.clusters, theirs.clusters):
            assert np.allclose(a.coefficients, b.coefficients, rtol=0.0, atol=1e-10)


def flagged_pair(gen, sparse: bool) -> tuple[PureState, PureState]:
    """A random register after random gates, rotations included, and its twin."""
    state = build_register(gen, sparse)
    twin = PureState(state.register, state.amplitudes)
    for kernel, operands in random_gates(gen, list(state.register.labels), int(gen.integers(2, 9))):
        state, twin = kernel(state, *operands), dense_twin_step(twin, kernel, operands)
    return state, twin


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_flagged_states_match_dense_twins(seed, sparse):
    gen = np.random.default_rng(seed)
    state = build_register(gen, sparse)
    twin = PureState(state.register, state.amplitudes)
    labels = list(state.register.labels)
    ops = random_gates(gen, labels, int(gen.integers(1, 13)))
    ops += [(rotate_basis, [lbl]) for lbl in gen.choice(labels, size=3)]
    gen.shuffle(ops)
    for kernel, operands in ops:
        state, twin = kernel(state, *operands), dense_twin_step(twin, kernel, operands)
        assert_same_as_twin(state, twin, gen)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tensor_of_flagged_states_matches_dense_twins(seed):
    gen = np.random.default_rng(seed)
    a, twin_a = flagged_pair(gen, bool(gen.integers(0, 2)))
    while a.n_qubits > 9:  # keeps the dense twins of the product small
        a, twin_a = flagged_pair(gen, True)
    b, twin_b = flagged_pair(gen, False)
    rename = Register(tuple(f"b{lbl}" for lbl in b.register.labels))
    b = statevec._framed(rename, b._index, b._values, b._frame)
    twin_b = PureState(rename, twin_b.amplitudes)
    for (left, twin_left), (right, twin_right) in (((a, twin_a), (b, twin_b)), ((b, twin_b), (a, twin_a))):
        got = tensor(left, right)
        assert got._frame == (left._frame << right.n_qubits) | right._frame
        twin = PureState(got.register, tensor(twin_left, twin_right).amplitudes)
        assert_same_as_twin(got, twin, gen)
        labels = list(got.register.labels)
        for kernel, operands in random_gates(gen, labels, 2):
            got, twin = kernel(got, *operands), dense_twin_step(twin, kernel, operands)
            assert_same_as_twin(got, twin, gen)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans(), flag_source=st.booleans())
def test_imprint_with_one_flagged_operand_clears_that_flag(seed, sparse, flag_source):
    gen = np.random.default_rng(seed)
    state = build_register(gen, sparse)
    while state.n_qubits > 8:  # the oracle's dense matrices stay small
        state = build_register(gen, sparse)
    labels = list(state.register.labels)
    source, target = (str(x) for x in gen.choice(labels, size=2, replace=False))
    for label in gen.choice(labels, size=3):  # flags elsewhere ride along
        if label not in (source, target):
            state = rotate_basis(state, str(label))
    flagged = source if flag_source else target
    state = rotate_basis(state, flagged)
    out = imprint(state, source, target)
    bit = 1 << (state.n_qubits - 1 - state.register.position(flagged))
    assert out._frame == state._frame ^ bit
    check_index(out)
    want = oracle_apply(state, [Imprint(source, target)]).amplitudes
    assert np.max(np.abs(out.amplitudes - want)) <= 1e-12


class TestShareEdge:
    def test_ghz_keeps_its_index_exactly_at_the_share(self):
        # two positions: 2 = 2^5 / 16 is kept, 2 > 2^4 / 16 is not
        assert make_ghz([f"e{i}" for i in range(5)], (1, 1))._index.tolist() == [0, 31]
        assert make_ghz([f"e{i}" for i in range(4)], (1, 1))._index is None

    def test_product_at_the_share_keeps_it(self):
        ghz = make_ghz([f"e{i}" for i in range(5)], (1, 1))
        at_share = tensor(ghz, product_state(["s"], [(1, 1)]))
        assert at_share._index.tolist() == [0, 1, 62, 63]
        check_index(at_share)

    def test_one_position_beyond_the_share_drops_it(self):
        reg = Register(tuple(f"q{i}" for i in range(6)))
        limit = int(2**6 * SPARSE_SHARE)
        for size, kept in ((limit, True), (limit + 1, False)):
            vec = np.zeros(2**6, dtype=np.complex128)
            index = np.arange(size, dtype=np.int64)
            vec[index] = 1 / np.sqrt(size)
            assert (_adopt(reg, vec[index], index)._index is not None) == kept

    def test_norm_is_checked_over_the_index(self):
        reg = Register(tuple(f"q{i}" for i in range(6)))
        vec = np.zeros(2**6, dtype=np.complex128)
        vec[[0, 63]] = 1.0
        index = np.array([0, 63], dtype=np.int64)
        with pytest.raises(ValueError, match="off unity"):
            _adopt(reg, vec[index], index)


class TestIndexDropped:
    def test_rotate_basis_keeps_the_index_and_sets_a_flag(self):
        ghz = make_ghz([f"e{i}" for i in range(6)], (1, 1))
        assert ghz._index is not None and ghz._frame == 0
        rotated = rotate_basis(ghz, "e2")
        assert rotated._index is ghz._index and rotated._values is ghz._values
        assert rotated._frame == 1 << 3
        assert np.count_nonzero(rotated.amplitudes) == 4
        back = rotate_basis(rotated, "e2")
        assert back._frame == 0 and back._index is ghz._index
        assert back.amplitudes.tobytes() == ghz.amplitudes.tobytes()

    def test_constructor_drops_it(self):
        ghz = make_ghz([f"e{i}" for i in range(6)], (1, 1))
        assert PureState(ghz.register, ghz.amplitudes)._index is None

    def test_large_operand_without_index_is_not_scanned(self):
        # A basis state from the public constructor has one nonzero amplitude
        # but no index; at 2^8 positions it exceeds the product's share
        # (2^9 / 16), so tensor builds densely instead of scanning it.
        big = basis_state([f"d{i}" for i in range(8)], "↑" * 8)
        assert big._index is None
        assert tensor(big, basis_state(["s"], "↓"))._index is None
        assert tensor(basis_state(["s"], "↓"), big)._index is None


def read_concurrently(state: PureState, readers: int = 4) -> list:
    """``state.amplitudes`` as read by threads released together."""
    start = threading.Barrier(readers)
    seen = [None] * readers

    def read(slot):
        start.wait(timeout=10)
        seen[slot] = state.amplitudes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return seen


def test_concurrent_amplitude_reads_agree_and_change_nothing():
    so = product_state(["s", "o"], [(1, 1), (1, 2)])
    for env_size, indexed in ((3, False), (14, True)):
        state = tensor(make_ghz([f"e{i}" for i in range(env_size)], (0.6, 0.8)), so)
        for candidate in (state, rotate_basis(rotate_basis(state, "e1"), "s")):
            assert (candidate._index is not None) == indexed
            stored = dict(vars(candidate))
            want = candidate.amplitudes.tobytes()
            for vec in read_concurrently(candidate):
                assert not vec.flags.writeable
                assert vec.tobytes() == want
            assert_unchanged(candidate, stored)


def _corrected_z_doc(n, psi, phi, chi):
    env = [f"e{i}" for i in range(1, n - 1)]
    return {
        "subsystems": [
            {"label": "s", "amplitudes": [[c.real, c.imag] for c in psi]},
            {"label": "o", "amplitudes": [[c.real, c.imag] for c in phi]},
            {"ghz": {"labels": env, "coefficients": [[c.real, c.imag] for c in chi]}},
        ],
        "script": [
            {"op": "ledger", "tag": "before"},
            {"op": "corrected_measure", "signal": "s", "observer": "o",
             "environment": env, "basis": "Z"},
            {"op": "ledger", "tag": "after"},
            {"op": "branches", "basis": "Z"},
            {"op": "agreement", "basis": "Z", "pairs": [["s", "o"]]},
        ],
    }


PSI, PHI, CHI = (0.6 + 0.1j, -0.3 + 0.7j), (0.2 - 0.5j, 0.9 + 0j), (0.8j, -0.4 + 0.3j)


def test_z_corrected_measurement_stays_sparse(monkeypatch):
    text = json.dumps(_corrected_z_doc(20, PSI, PHI, CHI))
    states = []
    adopt = statevec._adopt

    def recording(*args):
        states.append(adopt(*args))
        return states[-1]

    with monkeypatch.context() as patch:
        patch.setattr(statevec, "_adopt", recording)
        patch.setattr(gates, "_adopt", recording)
        sparse = run(parse_scenario(text)).render_text()
        # the initial state and one state per gate
        full = [s for s in states if s.n_qubits == 20]
        assert len(full) == 5
        assert all(s._index is not None for s in states if s.n_qubits > 2)
    monkeypatch.setattr(statevec, "SPARSE_SHARE", 0.0)
    assert run(parse_scenario(text)).render_text() == sparse


#: Single-qubit declarations, as [re, im] pairs: a generic pair drawn from
#: the seed, ↑, ↓, → and a pair with signed zeros, which a product times 1
#: can flip.  GHZ declarations: a size and generic coefficients, or a zero
#: one.
SINGLES = st.sampled_from(
    ["generic", [[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]], [[-0.0, -0.6], [0.8, -0.0]]]
)
GHZS = st.tuples(st.integers(1, 40), st.sampled_from(["generic", "down only", "up only"]))


def _declared_doc(kinds, seed):
    """The subsystems of a scenario with the drawn declarations, skipping
    those that would take it past 63 qubits."""
    rng = np.random.default_rng(seed)
    subsystems, n = [], 0

    def generic():
        return [[c.real, c.imag] for c in random_pair(rng, 0.1)]

    for i, kind in enumerate(kinds):
        size = kind[0] if isinstance(kind, tuple) else 1
        if n + size > 63:
            continue
        n += size
        if isinstance(kind, tuple):
            pair = {"generic": generic(), "down only": [[0, 0], [0.6, 0.8]], "up only": [[1, -1], [0, 0]]}[kind[1]]
            subsystems.append({"ghz": {"labels": [f"g{i}_{j}" for j in range(size)], "coefficients": pair}})
        else:
            subsystems.append({"label": f"q{i}", "amplitudes": generic() if kind == "generic" else kind})
    return {"subsystems": subsystems}


def _chained(declarations):
    """``tensor`` chained over the declared states, or the number of the
    declaration whose state or product failed and its error."""
    state = None
    for i, decl in enumerate(declarations):
        try:
            if isinstance(decl, SingleDecl):
                part = product_state((decl.label,), [decl.amplitudes])
            else:
                part = make_ghz(decl.labels, decl.coefficients)
            state = part if state is None else tensor(state, part)
        except ValueError as exc:
            return None, (i, exc)
    return state, None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kinds=st.lists(SINGLES | GHZS, min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    dense_max=st.sampled_from([24, 10, 6]),
)
# a dense prefix scanned against a wide GHZ, which keeps the product indexed
@example(kinds=["generic"] * 5 + [(30, "generic")], seed=0, dense_max=24)
# |→⟩ qubits after a 33-qubit GHZ, whose index outgrows the share: refused
@example(kinds=[(33, "generic")] + [[[1, 0], [1, 0]]] * 7, seed=0, dense_max=10)
# a dense product past the limit, and a GHZ whose own vector is past it
@example(kinds=["generic"] * 7, seed=0, dense_max=6)
@example(kinds=[(2, "generic"), (4, "up only")], seed=0, dense_max=3)
def test_declared_state_is_the_chain_of_tensor_calls(monkeypatch, kinds, seed, dense_max):
    # The runner builds the declared state in one fold over the declarations'
    # stored amplitudes; it must store what the chain of declared states and
    # tensor calls stores, bit for bit, or fail at the same declaration with
    # the same error.  No dense vector is scattered from an index but a GHZ
    # part's own, over at most 4 qubits, and only one state is made.
    scenario = parse_scenario(json.dumps(_declared_doc(kinds, seed)))
    scatter = statevec._scatter

    def small_scatter(n, index, values):
        assert n <= 4, f"dense vector over {n} qubits built from an index"
        return scatter(n, index, values)

    with monkeypatch.context() as patch:
        patch.setattr(statevec, "DENSE_MAX_QUBITS", dense_max)
        patch.setattr(statevec, "_scatter", small_scatter)
        want, failed = _chained(scenario.declarations)
        calls = {"parts": 0, "adopt": 0, "register": 0}

        def counted(key, fn):
            def spy(*args):
                calls[key] += 1
                return fn(*args)

            return spy

        for name in ("_single_part", "_ghz_part"):
            patch.setattr(statevec, name, counted("parts", getattr(statevec, name)))
        patch.setattr(statevec, "_adopt", counted("adopt", statevec._adopt))
        patch.setattr(Register, "__post_init__", counted("register", Register.__post_init__))
        try:
            got = _initial_state(scenario)
        except RunError as err:
            assert failed is not None, err
            at, exc = failed
            assert calls["parts"] - 1 == at and err.step_number == 0
            assert type(err.cause) is type(exc) and str(err.cause) == str(exc)
            return
    assert failed is None, failed
    assert (calls["adopt"], calls["register"]) == (1, 0)
    assert got.register == want.register and got._frame == want._frame == 0
    assert (got._index is None) == (want._index is None)
    if got._index is not None:
        assert got._index.tobytes() == want._index.tobytes()
    assert got._values.tobytes() == want._values.tobytes()


def test_z_corrected_measurement_beyond_dense_memory(no_dense_builds):
    n = 48
    report = run(parse_scenario(json.dumps(_corrected_z_doc(n, PSI, PHI, CHI))))
    sections = {s.title: s.rows for s in report.sections}
    assert sections["initial state"][1] == ("qubits", "48")
    for tag in ("step 1: ledger 'before'", "step 3: ledger 'after'"):
        assert sections[tag][-1] == ("total", str(n - 3))
    unit = [np.array(p) / np.linalg.norm(p) for p in (PSI, CHI, PHI)]
    rows = sections["step 4: branches"][1:]
    assert len(rows) == 8
    want = [
        ("↑↓"[i] * 2 + "↑↓"[k] * (n - 3) + "↑↓"[j], unit[0][i] * unit[1][k] * unit[2][j])
        for i in (0, 1) for k in (0, 1) for j in (0, 1)
    ]
    for row, (outcome, amp) in zip(rows, want):
        assert row[0] == outcome
        assert abs(float(row[1]) - amp.real) < 1e-11
        assert abs(float(row[2]) - amp.imag) < 1e-11
        assert abs(float(row[3]) - abs(amp) ** 2) < 1e-11
    assert sections["step 5: agreement"][-1] == ("aggregate", "", "1")
    assert report.sections[-1].rows == (("norm", "1"),)


def test_imprint_with_one_flagged_operand_past_the_dense_limit(no_dense_builds):
    env = [f"e{i}" for i in range(1, 47)]
    state = tensor(product_state(["s", "o"], [PSI, PHI]), make_ghz(env, CHI))
    state = rotate_basis(rotate_basis(state, "e1"), "e9")
    for source, target in (("e1", "o"), ("s", "e1")):
        out = imprint(state, source, target)
        assert out._frame == 1 << (48 - 11)
        assert out._index.size <= 2 * state._index.size


class TestCheckReady:
    """The ready check reads an indexed state's support in either basis."""

    def measured(self, observer_down):
        ghz = make_ghz([f"e{i}" for i in range(8)], (0.6, 0.8))
        so = product_state(["s", "o"], [(0.6, 0.8), (0.0, 1.0) if observer_down else (1.0, 0.0)])
        return tensor(so, ghz)

    def test_ready_indexed_state_stays_sparse(self, no_dense_builds):
        state = self.measured(observer_down=False)
        assert state._index is not None
        check_ready(state, "o", "Z")
        with pytest.raises(ObserverNotReadyError, match="by 8.000e-01"):
            check_ready(state, "e3", "Z")

    def test_same_outcome_with_and_without_index(self):
        for down in (False, True):
            state = self.measured(down)
            plain = PureState(state.register, state.amplitudes)
            for label in ("s", "o", "e0"):
                errors = []
                for candidate in (state, plain):
                    try:
                        check_ready(candidate, label, "Z")
                        errors.append(None)
                    except ObserverNotReadyError as exc:
                        errors.append(str(exc))
                assert errors[0] == errors[1]
                assert (errors[0] is None) == (label == "o" and not down)

    def test_x_check_builds_no_dense_vector(self, no_dense_builds):
        # o = |↑⟩ lies off |→⟩ by 1/√2; once flagged it sits in |→⟩ exactly
        state = self.measured(observer_down=False)
        with pytest.raises(ObserverNotReadyError, match=r"ready state \|→⟩ by 7.071e-01"):
            check_ready(state, "o", "X")
        flagged = rotate_basis(state, "o")
        assert flagged._frame and flagged._index is not None
        check_ready(flagged, "o", "X")
        with pytest.raises(ObserverNotReadyError, match=r"ready state \|↑⟩ by 7.071e-01"):
            check_ready(flagged, "o", "Z")
