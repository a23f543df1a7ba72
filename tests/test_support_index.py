"""The support index a sparse state carries beside its amplitude vector.

Goldens and the shipped scenarios run at n = 5, where no state keeps an
index, so these tests are what covers the sparse side: every operation on
an indexed state must give the same bytes, clusters and branches as the
same operation on an index-free copy.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure.analysis import find_clusters
from qmeasure.gates import (
    apply_single,
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


def check_index(state: PureState) -> None:
    """The index is sorted, unique, within the share, and covers the support."""
    index = state._index
    if index is None:
        return
    assert index.dtype == np.int64
    assert index.size <= state.dim * SPARSE_SHARE
    assert np.all(np.diff(index) > 0)
    assert 0 <= index[0] and index[-1] < state.dim
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
            assert (_adopt(reg, vec, index)._index is not None) == kept

    def test_norm_is_checked_over_the_index(self):
        reg = Register(tuple(f"q{i}" for i in range(6)))
        vec = np.zeros(2**6, dtype=np.complex128)
        vec[[0, 63]] = 1.0
        with pytest.raises(ValueError, match="off unity"):
            _adopt(reg, vec, np.array([0, 63], dtype=np.int64))


class TestIndexDropped:
    def test_rotate_basis_drops_the_index(self):
        ghz = make_ghz([f"e{i}" for i in range(6)], (1, 1))
        assert ghz._index is not None
        rotated = rotate_basis(ghz, "e2")
        assert rotated._index is None
        assert np.count_nonzero(rotated.amplitudes) == 4

    def test_single_qubit_unitary_and_constructor_drop_it(self):
        ghz = make_ghz([f"e{i}" for i in range(6)], (1, 1))
        assert apply_single(ghz, "e0", np.eye(2))._index is None
        assert PureState(ghz.register, ghz.amplitudes)._index is None

    def test_large_operand_without_index_is_not_scanned(self):
        # A basis state from the public constructor has one nonzero amplitude
        # but no index; at 2^8 positions it exceeds the product's share
        # (2^9 / 16), so tensor builds densely instead of scanning it.
        big = basis_state([f"d{i}" for i in range(8)], "↑" * 8)
        assert big._index is None
        assert tensor(big, basis_state(["s"], "↓"))._index is None
        assert tensor(basis_state(["s"], "↓"), big)._index is None
