"""Columnar branch tables against a per-row reference, and the bit matrix
of cluster detection against a per-qubit one.

The references are the per-row and per-qubit definitions the columns
replace, kept here: outcome strings built symbol by symbol, probabilities
as ``abs(a) ** 2``, aggregates as running totals, records as symbol sets.
States run at n = 25…63 on their support index: a dense vector there
would fail on the dense limit.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import analysis, statevec
from qmeasure.analysis import INCONSISTENT, agreement, recover_record
from qmeasure.statevec import PRUNE_TOL, Register, branch_decompose

from conftest import labels

SYMBOLS = {"Z": ("↑", "↓"), "X": ("→", "←")}


def reference_rows(state, selectors):
    """(outcome, amplitude) per listed branch, one Python step per row and symbol."""
    n = len(selectors)
    frame = sum(1 << (n - 1 - p) for p, sel in enumerate(selectors) if sel == "X")
    index, values = statevec._frame_view(state, frame)
    live = np.abs(values) > PRUNE_TOL
    rows = []
    for i, a in zip(index[live].tolist(), values[live].tolist()):
        outcome = "".join(SYMBOLS[sel][(i >> (n - 1 - p)) & 1] for p, sel in enumerate(selectors))
        rows.append((outcome, complex(a)))
    return rows


def reference_aggregates(rows, positions):
    totals = [0.0] * len(positions)
    for outcome, amplitude in rows:
        for k, (pa, pb) in enumerate(positions):
            if outcome[pa] == outcome[pb]:
                totals[k] += abs(amplitude) ** 2
    return totals


def reference_records(rows, positions):
    inferred = []
    for outcome, _ in rows:
        symbols = {outcome[p] for p in positions}
        inferred.append(symbols.pop() if len(symbols) == 1 else INCONSISTENT)
    return inferred


def sparse_state(data, n, gen):
    """A random support of up to 48 positions over n qubits, on which a few
    qubits copy qubit 0's bit on most rows, and its amplitudes, some of them
    under the pruning threshold."""
    size = data.draw(st.integers(1, 48))
    index = gen.integers(0, 2**n - 1, size=size, endpoint=True, dtype=np.int64)
    src = 1 << (n - 1)
    for p in data.draw(st.sets(st.integers(1, n - 1), max_size=4)):
        bit = 1 << (n - 1 - p)
        copy = gen.random(size) < 0.8
        index[copy] = np.where(index[copy] & src, index[copy] | bit, index[copy] & ~bit)
    index = np.unique(index)
    values = gen.normal(size=index.size) + 1j * gen.normal(size=index.size)
    values[gen.random(index.size) < 0.15] *= 1e-13
    values /= np.linalg.norm(values)
    return index, values


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_columns_match_the_per_row_reference(data):
    n = data.draw(st.integers(25, 63))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    reg = Register(labels(n))
    kind = data.draw(st.sampled_from(["Z", "X", "mixed"]))
    selectors = tuple(kind if kind != "mixed" else "ZX"[int(gen.integers(0, 2))] for _ in range(n))
    frame = sum(1 << (n - 1 - p) for p, sel in enumerate(selectors) if sel == "X")
    for p in data.draw(st.sets(st.integers(0, n - 1), max_size=3)):
        frame ^= 1 << (n - 1 - p)
    index, values = sparse_state(data, n, gen)
    state = statevec._adopt(reg, values, index, frame)

    branches = branch_decompose(state, dict(zip(reg.labels, selectors)))
    rows = reference_rows(state, selectors)
    assert len(branches) == len(rows)
    assert list(zip(branches.outcomes().tolist(), branches.amplitudes.tolist())) == rows
    expected = np.array([abs(a) ** 2 for _, a in rows], dtype=np.float64)
    assert branches.probabilities.tobytes() == expected.tobytes()

    pairs = [tuple(data.draw(st.lists(st.sampled_from(reg.labels), min_size=2, max_size=2)))
             for _ in range(data.draw(st.integers(1, 4)))]
    positions = [(reg.position(a), reg.position(b)) for a, b in pairs]
    report = agreement(branches, pairs)
    assert [x.hex() for x in report.aggregates] == [
        x.hex() for x in reference_aggregates(rows, positions)
    ]
    assert report.agrees.tolist() == [
        [outcome[pa] == outcome[pb] for pa, pb in positions] for outcome, _ in rows
    ]

    records = data.draw(st.lists(st.sampled_from(reg.labels), min_size=1, max_size=4))
    assert recover_record(branches, records) == reference_records(
        rows, [reg.position(r) for r in records]
    )


def reference_classes(idx, n, allow_relabeling):
    """The per-qubit grouping: one packed bit row per position."""
    classes = {}
    for p in range(n):
        row = (idx & (1 << (n - 1 - p))) != 0
        key = p
        if row.any() and not row.all():
            if allow_relabeling and row[0]:
                row = ~row
            key = np.packbits(row).tobytes()
        classes.setdefault(key, []).append(p)
    return list(classes.values())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_covariation_classes_match_the_per_qubit_reference(data):
    n = data.draw(st.integers(1, 63))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = data.draw(st.integers(1, 70))
    # Few distinct patterns per qubit, so that classes of several members form.
    patterns = gen.integers(0, 2, size=(4, size), dtype=np.int64)
    choice = gen.integers(0, 6, size=n)
    bits = np.array([patterns[c] if c < 4 else np.full(size, c - 4) for c in choice])
    bits[gen.random(n) < 0.3] ^= 1
    idx = np.unique(sum(bits[p] << (n - 1 - p) for p in range(n)))
    relabel = data.draw(st.booleans())
    expected = reference_classes(idx, n, relabel)
    # Mode-neutral exactly when both modes group the positions alike.
    expected = expected, expected == reference_classes(idx, n, not relabel)
    assert analysis._covariation_classes(idx, n, relabel) == expected
    with pytest.MonkeyPatch.context() as patch:  # many blocks, the last one partial
        patch.setattr(analysis, "_CLASS_BLOCK", 8)
        assert analysis._covariation_classes(idx, n, relabel) == expected


def test_the_bit_matrix_is_built_a_block_at_a_time():
    # 2^16 columns over 63 qubits: one byte per bit unpacked at once would
    # take 64 bytes a column, eight times the index; packed, a block at a
    # time, the matrix takes one.
    gen = np.random.default_rng(3)
    idx = np.unique(gen.integers(0, 2**63 - 1, size=2**16, endpoint=True, dtype=np.int64))
    tracemalloc.start()
    try:
        analysis._covariation_classes(idx, 63, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * idx.nbytes
