import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import analysis, statevec
from qmeasure.analysis import (
    INCONSISTENT,
    AgreementReport,
    ClusterDecomposition,
    CorrelationCluster,
    DEFAULT_TOL,
    CorrelationLedger,
    NotClusterNormalError,
    agreement,
    cluster_measure,
    find_clusters,
    ledger_record,
    recover_record,
    total_measure,
)
from qmeasure.gates import imprint, rotate_basis, swap
from qmeasure.protocol import (
    EnvironmentNotGHZError,
    MeasurementOutcomeSpec,
    corrected_measure,
    uncorrected_measure,
)
from qmeasure.runner import RunError, run
from qmeasure.scenario import parse_scenario
from qmeasure.statevec import (
    BranchSet,
    PureState,
    Register,
    approx_eq,
    branch_decompose,
    _framed,
    make_ghz,
    product_state,
    tensor,
)

from conftest import (
    assert_same_clusters,
    dense_twin,
    labels,
    random_pair,
    random_state,
    read_concurrently,
    scenario_state,
)


def normalized(pair):
    vec = np.array(pair, dtype=complex)
    return vec / np.linalg.norm(vec)


def correlated_pair(labels, psi, anti=False):
    pn = normalized(psi)
    vec = np.array([0, pn[0], pn[1], 0]) if anti else np.array([pn[0], 0, 0, pn[1]])
    return PureState(Register(labels), vec)


def reconstruct(decomposition: ClusterDecomposition, register: Register) -> PureState:
    """Tensor product of the cluster states, laid out in register order: the
    state a decomposition stands for.

    Only defined when the residual is empty and the clusters cover the
    register.
    """
    if decomposition.residual:
        raise NotClusterNormalError(
            f"cannot reconstruct: residual subsystems {decomposition.residual}"
        )
    covered = [m for cluster in decomposition.clusters for m in cluster.members]
    if sorted(covered) != sorted(register.labels):
        raise ValueError("clusters do not cover the register exactly")
    n = len(register)
    vec = np.ones(1, dtype=np.complex128)
    for cluster in decomposition.clusters:
        k = cluster.size
        part = np.zeros(2**k, dtype=np.complex128)
        up_index = sum(int(f) << (k - 1 - j) for j, f in enumerate(cluster.flips))
        part[up_index] = cluster.coefficients[0]
        part[(2**k - 1) ^ up_index] = cluster.coefficients[1]
        vec = np.kron(vec, part)

    perm = [covered.index(lbl) for lbl in register.labels]
    vec = np.transpose(vec.reshape([2] * n), perm).reshape(-1)
    return PureState(register, vec)


def env_labels(n):
    return tuple(f"e{k}" for k in range(1, n + 1))


class TestFindClusters:
    def test_ghz_is_one_cluster(self, rng):
        state = make_ghz(env_labels(4), (1, 1))
        decomposition = find_clusters(state)
        assert [c.members for c in decomposition.clusters] == [env_labels(4)]
        assert decomposition.residual == ()
        c = decomposition.clusters[0].coefficients
        assert abs(abs(c[0]) - abs(c[1])) < 1e-12

    def test_anticorrelated_pair_needs_relabeling(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng, 0.1), anti=True)
        with_flag = find_clusters(state, allow_relabeling=True)
        assert [c.members for c in with_flag.clusters] == [("s", "o")]
        assert with_flag.clusters[0].flips == (False, True)
        without = find_clusters(state, allow_relabeling=False)
        assert without.clusters == ()
        assert set(without.residual) == {"s", "o"}

    def test_uncorrected_output_generic_chi(self, rng):
        # the environment slot factors out carrying the observer's old state;
        # signal and observer stay entangled in a non-cluster shape
        psi, phi = random_pair(rng, 0.1), random_pair(rng, 0.1)
        chi = (2.0, 1.0)
        state = product_state(("s", "o", "e"), [psi, phi, chi])
        out = uncorrected_measure(state, "s", "o", "e")
        decomposition = find_clusters(out)
        assert [c.members for c in decomposition.clusters] == [("e",)]
        assert set(decomposition.residual) == {"s", "o"}
        c = np.array(decomposition.clusters[0].coefficients)
        on = normalized(phi)
        assert abs(c[0] * on[1] - c[1] * on[0]) < 1e-12

    def test_uncorrected_output_balanced_chi_factorizes(self, rng):
        # chi = (1,1)/sqrt(2) interferes the two branches into a full product
        psi, phi = random_pair(rng, 0.1), random_pair(rng, 0.1)
        state = product_state(("s", "o", "e"), [psi, phi, (1, 1)])
        out = uncorrected_measure(state, "s", "o", "e")
        decomposition = find_clusters(out)
        assert decomposition.residual == ()
        assert [c.members for c in decomposition.clusters] == [("s",), ("o",), ("e",)]

    def test_round_trip_of_built_clusters(self, rng):
        for _ in range(15):
            pieces, expected = [], []
            position = 0
            while position < 7:
                size = int(rng.integers(1, 4))
                members = tuple(f"q{position + j}" for j in range(size))
                position += size
                coeffs = random_pair(rng, 0.1)
                pieces.append(make_ghz(members, coeffs) if size > 1 else product_state(members, [coeffs]))
                expected.append(members)
            state = pieces[0]
            for piece in pieces[1:]:
                state = tensor(state, piece)
            decomposition = find_clusters(state, 1e-9, allow_relabeling=False)
            assert [c.members for c in decomposition.clusters] == expected
            assert decomposition.residual == ()
            assert approx_eq(reconstruct(decomposition, state.register), state, 1e-9)

    def test_non_contiguous_cluster(self, rng):
        chi = random_pair(rng, 0.1)
        phi = random_pair(rng, 0.1)
        cn, on = normalized(chi), normalized(phi)
        # a and c correlated with b sandwiched between them
        vec = np.zeros(8, dtype=complex)
        for k in (0, 1):
            for j in (0, 1):
                vec[4 * k + 2 * j + k] = cn[k] * on[j]
        state = PureState(Register(("a", "b", "c")), vec)
        decomposition = find_clusters(state)
        assert [c.members for c in decomposition.clusters] == [("a", "c"), ("b",)]
        assert approx_eq(reconstruct(decomposition, state.register), state, 1e-9)

    def test_w_state_is_all_residual(self):
        vec = np.zeros(8, dtype=complex)
        vec[[1, 2, 4]] = 1 / np.sqrt(3)
        decomposition = find_clusters(PureState(Register(("a", "b", "c")), vec))
        assert decomposition.clusters == ()
        assert set(decomposition.residual) == {"a", "b", "c"}

    def test_constant_qubits_split_to_singletons(self):
        state = product_state(("a", "b"), [(1, 0), (1, 0)])
        decomposition = find_clusters(state)
        assert [c.members for c in decomposition.clusters] == [("a",), ("b",)]

    def test_relabeled_three_cluster(self, rng):
        chi = random_pair(rng, 0.1)
        cn = normalized(chi)
        vec = np.zeros(8, dtype=complex)
        vec[0b010] = cn[0]  # a=0, b=1, c=0
        vec[0b101] = cn[1]
        state = PureState(Register(("a", "b", "c")), vec)
        decomposition = find_clusters(state, allow_relabeling=True)
        assert [c.members for c in decomposition.clusters] == [("a", "b", "c")]
        assert decomposition.clusters[0].flips == (False, True, False)
        assert approx_eq(reconstruct(decomposition, state.register), state, 1e-9)


class TestClusterMeasure:
    def test_ghz_carries_size_minus_one(self, rng):
        for n in range(2, 8):
            decomposition = find_clusters(make_ghz(env_labels(n), random_pair(rng, 0.1)))
            assert cluster_measure(decomposition.clusters[0]) == n - 1

    def test_singleton_is_zero(self):
        assert cluster_measure(CorrelationCluster(("s",), (0.6, 0.8), (False,))) == 0

    def test_single_live_coefficient_is_zero(self):
        cluster = CorrelationCluster(("a", "b", "c"), (1.0, 0.0), (False, False, False))
        assert cluster_measure(cluster) == 0

    def test_invariant_under_member_permutation_and_phase(self, rng):
        coeffs = random_pair(rng, 0.1)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        one = CorrelationCluster(("a", "b", "c"), coeffs, (False, True, False))
        two = CorrelationCluster(
            ("c", "a", "b"), (coeffs[0] * phase, coeffs[1] * phase), (False, False, True)
        )
        assert cluster_measure(one) == cluster_measure(two) == 2


class TestLedger:
    def test_before_and_after_n5(self, rng):
        psi, phi, chi = random_pair(rng, 0.1), random_pair(rng), random_pair(rng, 0.1)
        state = tensor(product_state(("s", "o"), [psi, phi]), make_ghz(env_labels(5), chi))
        spec = MeasurementOutcomeSpec("s", "o", env_labels(5))
        ledger = ledger_record(CorrelationLedger(), state, "before")
        out = corrected_measure(state, spec)
        ledger = ledger_record(ledger, out, "after")
        assert ledger.totals() == (4, 4)
        after = ledger.entries[-1].decomposition
        by_members = {c.members: cluster_measure(c) for c in after.clusters}
        assert by_members == {("s", "o"): 1, ("e1", "e2", "e3", "e4"): 3, ("e5",): 0}

    def test_degenerate_signal_loses_a_unit(self, rng):
        phi, chi = random_pair(rng), random_pair(rng, 0.1)
        state = tensor(product_state(("s", "o"), [(1, 0), phi]), make_ghz(env_labels(5), chi))
        out = corrected_measure(state, MeasurementOutcomeSpec("s", "o", env_labels(5)))
        ledger = ledger_record(CorrelationLedger(), out, "after")
        assert ledger.totals() == (3,)

    def test_conservation_sweep(self, rng):
        for n in range(3, 11):
            psi = random_pair(rng, 1e-6)
            chi = random_pair(rng, 1e-6)
            phi = random_pair(rng)
            state = tensor(product_state(("s", "o"), [psi, phi]), make_ghz(env_labels(n), chi))
            out = corrected_measure(state, MeasurementOutcomeSpec("s", "o", env_labels(n)))
            ledger = ledger_record(CorrelationLedger(), state, "before")
            ledger = ledger_record(ledger, out, "after")
            assert ledger.totals() == (n - 1, n - 1)

    def test_residual_state_has_no_ledger_value(self, rng):
        psi = random_pair(rng, 0.1)
        chi = (2.0, 1.0)
        state = product_state(("s", "o", "e"), [psi, random_pair(rng), chi])
        out = uncorrected_measure(state, "s", "o", "e")
        with pytest.raises(NotClusterNormalError, match="no ledger value"):
            ledger_record(CorrelationLedger(), out, "after")

    def test_anticorrelated_pair_counts_by_default(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng, 0.1), anti=True)
        ledger = ledger_record(CorrelationLedger(), state, "anti")
        assert ledger.totals() == (1,)
        with pytest.raises(NotClusterNormalError):
            ledger_record(CorrelationLedger(), state, "anti", allow_relabeling=False)

    def test_transfer_chain_prepared_case_conserves(self, rng):
        # a freshly correlated pair serves as a two-slot environment; with
        # the next signal and observer already in the ready state the unit
        # of correlation moves across (oracle-pinned N=2 semantics)
        psi, phi, chi = random_pair(rng, 0.1), random_pair(rng), random_pair(rng, 0.1)
        first = tensor(product_state(("s", "o"), [psi, phi]), make_ghz(env_labels(3), chi))
        first_out = corrected_measure(first, MeasurementOutcomeSpec("s", "o", env_labels(3)))
        big = tensor(product_state(("s2", "o2"), [(1, 0), (1, 0)]), first_out)
        before = ledger_record(CorrelationLedger(), big, "before")
        chained = corrected_measure(big, MeasurementOutcomeSpec("s2", "o2", ("s", "o")))
        after = ledger_record(before, chained, "after")
        assert after.totals() == (2, 2)
        moved = {c.members: cluster_measure(c) for c in after.entries[-1].decomposition.clusters}
        assert moved[("o2", "s")] == 1

    def test_transfer_chain_generic_case_is_unledgered(self, rng):
        psi, phi, chi = random_pair(rng, 0.1), random_pair(rng), random_pair(rng, 0.1)
        first = tensor(product_state(("s", "o"), [psi, phi]), make_ghz(env_labels(3), chi))
        first_out = corrected_measure(first, MeasurementOutcomeSpec("s", "o", env_labels(3)))
        big = tensor(product_state(("s2", "o2"), [random_pair(rng, 0.1), random_pair(rng, 0.1)]), first_out)
        chained = corrected_measure(big, MeasurementOutcomeSpec("s2", "o2", ("s", "o")))
        with pytest.raises(NotClusterNormalError):
            ledger_record(CorrelationLedger(), chained, "after")


class TestAgreement:
    def test_perfect_correlation(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng, 0.1))
        report = agreement(branch_decompose(state, "Z"), [("s", "o")])
        assert abs(report.aggregates[0] - 1.0) < 1e-12

    def test_anticorrelation(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng, 0.1), anti=True)
        report = agreement(branch_decompose(state, "Z"), [("s", "o")])
        assert report.aggregates[0] == 0.0

    def test_different_basis_scenario_pairs(self):
        out = scenario_state("different_basis", (1, 0))
        branches = branch_decompose(out, "X")
        report = agreement(branches, [("s", "o2"), ("o1", "o3'"), ("s", "o1")])
        assert abs(report.aggregates[0] - 1.0) < 1e-9
        assert abs(report.aggregates[1] - 1.0) < 1e-9
        assert abs(report.aggregates[2] - 0.5) < 1e-9

    def test_plus_signal_restores_agreement(self):
        out = scenario_state("different_basis", (1, 1))
        report = agreement(branch_decompose(out, "X"), [("s", "o1")])
        assert abs(report.aggregates[0] - 1.0) < 1e-9

    def test_aggregate_one_iff_every_branch_agrees(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng, 0.1))
        report = agreement(branch_decompose(state, "Z"), [("s", "o")])
        assert report.agrees.all()

    def test_unknown_label(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng))
        with pytest.raises(ValueError, match="unknown"):
            agreement(branch_decompose(state, "Z"), [("s", "nope")])

    @pytest.mark.parametrize("small, listed", [(1e-13, False), (1e-12, False), (2e-12, True)])
    def test_pruned_weight_is_missing_from_the_aggregates(self, small, listed):
        # The agreeing branch |↑↑⟩ has amplitude ``small``: at or below the
        # pruning threshold it is not listed and adds nothing to the aggregate.
        big = np.sqrt(1.0 - small**2)
        for basis in ("Z", "X"):
            state = PureState(Register(("s", "o")), [small, big, 0.0, 0.0])
            if basis == "X":
                state = rotate_basis(rotate_basis(state, "s"), "o")
            report = agreement(branch_decompose(state, basis), [("s", "o")])
            assert len(report.agrees) == (2 if listed else 1)
            if listed:
                assert abs(report.aggregates[0] - small**2) < 1e-30
            else:
                assert report.aggregates[0] == 0.0


class TestRecoverRecord:
    def test_single_record_trivially_consistent(self, rng):
        out = scenario_state("record_recovery", random_pair(rng, 0.1), 1)
        basis = {lbl: ("Z" if lbl.startswith("^") else "X") for lbl in out.register.labels}
        branches = branch_decompose(out, basis)
        assert all(sym != INCONSISTENT for sym in recover_record(branches, ["^1o1"]))

    def test_two_records_consistent_every_branch(self, rng):
        out = scenario_state("record_recovery", random_pair(rng, 0.1), 2)
        basis = {lbl: ("Z" if lbl.startswith("^") else "X") for lbl in out.register.labels}
        branches = branch_decompose(out, basis)
        inferred = recover_record(branches, ["^1o1", "^2o1"])
        assert inferred and all(sym in ("↑", "↓") for sym in inferred)

    def test_hand_built_inconsistency(self):
        reg = Register(("r1", "r2"))
        branches = BranchSet(reg, ("Z", "Z"), np.array([0b01]), np.array([1 + 0j]))  # ↑↓
        assert recover_record(branches, ["r1", "r2"]) == [INCONSISTENT]

    def test_requires_records(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng))
        with pytest.raises(ValueError, match="at least one"):
            recover_record(branch_decompose(state, "Z"), [])


class TestReconstruct:
    def test_rejects_residual(self, rng):
        state = correlated_pair(("s", "o"), random_pair(rng, 0.1), anti=True)
        decomposition = find_clusters(state, allow_relabeling=False)
        with pytest.raises(NotClusterNormalError):
            reconstruct(decomposition, state.register)

    def test_total_measure_sums_clusters(self, rng):
        state = tensor(make_ghz(("a", "b", "c"), random_pair(rng, 0.1)), make_ghz(("d", "e"), random_pair(rng, 0.1)))
        decomposition = find_clusters(state)
        assert total_measure(decomposition) == 3


# Dense reference for find_clusters: the same detection done on the full
# 2^n amplitude vector, with an int64 bit matrix over the support, union-find
# over pairwise row comparisons, and factoring on the full amplitude tensor.
# The support-column implementation is checked against it.


def _dense_support_bits(vec, n, cutoff):
    idx = np.flatnonzero(np.abs(vec) > cutoff)
    if idx.size == 0:
        raise ValueError("state has no support above the tolerance cutoff")
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx[None, :] >> shifts[:, None]) & 1


def _dense_covariation_classes(bits, allow_relabeling):
    n = bits.shape[0]
    varies = [bool(bits[p].any() and not bits[p].all()) for p in range(n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(n):
        if not varies[p]:
            continue
        for q in range(p + 1, n):
            if not varies[q]:
                continue
            same = bool(np.array_equal(bits[p], bits[q]))
            opposite = allow_relabeling and bool(np.array_equal(bits[p], 1 - bits[q]))
            if same or opposite:
                parent[find(q)] = find(p)

    groups = {}
    for p in range(n):
        groups.setdefault(find(p), []).append(p)
    return sorted(groups.values(), key=lambda g: g[0])


def _dense_peel(labels, vec, members, flips, tol):
    n = len(labels)
    positions = [labels.index(m) for m in members]
    psi = np.moveaxis(vec.reshape([2] * n), positions, range(len(members)))
    up_idx = tuple(int(f) for f in flips)
    down_idx = tuple(1 - int(f) for f in flips)
    v_up = psi[up_idx].reshape(-1)
    v_down = psi[down_idx].reshape(-1)

    n_up, n_down = np.linalg.norm(v_up), np.linalg.norm(v_down)
    pick = v_down if n_down > n_up * (1 + analysis._PICK_MARGIN) else v_up
    rest = pick / np.linalg.norm(pick)
    c_up = complex(np.vdot(rest, v_up))
    c_down = complex(np.vdot(rest, v_down))

    leftover = psi.copy()
    leftover[up_idx] = 0.0
    leftover[down_idx] = 0.0
    err_sq = (
        float(np.linalg.norm(leftover)) ** 2
        + float(np.linalg.norm(v_up - c_up * rest)) ** 2
        + float(np.linalg.norm(v_down - c_down * rest)) ** 2
    )
    if np.sqrt(err_sq) > tol:
        return None
    return (c_up, c_down), rest


def dense_find_clusters(state, tol=1e-9, allow_relabeling=False):
    reg = state.register
    n = len(reg)
    bits = _dense_support_bits(state.amplitudes, n, tol)
    classes = _dense_covariation_classes(bits, allow_relabeling)

    work_labels = list(reg.labels)
    work_vec = state.amplitudes.copy()
    clusters = []
    residual = []

    for group in classes:
        members = [reg.labels[p] for p in group]
        first = group[0]
        flips = [bool(bits[p, 0] != bits[first, 0]) for p in group]
        peeled = _dense_peel(work_labels, work_vec, members, flips, tol)
        if peeled is None:
            residual.extend(members)
            continue
        coeffs, work_vec = peeled
        work_labels = [lbl for lbl in work_labels if lbl not in members]
        clusters.append(CorrelationCluster(tuple(members), coeffs, tuple(flips)))

    if clusters and not residual:
        phase = complex(work_vec.reshape(-1)[0])
        last = clusters[-1]
        clusters[-1] = CorrelationCluster(
            last.members,
            (last.coefficients[0] * phase, last.coefficients[1] * phase),
            last.flips,
        )

    residual.sort(key=reg.position)
    return ClusterDecomposition(tuple(clusters), tuple(residual))


def random_cluster_state(gen, n):
    """Product of random clusters over a shuffled register, then 0-3 gates."""
    names = [f"q{i}" for i in range(n)]
    order = list(gen.permutation(names))
    clusters = []
    while order:
        size = int(gen.integers(1, min(4, len(order)) + 1))
        members, order = tuple(order[:size]), order[size:]
        flips = (False,) + tuple(bool(b) for b in gen.integers(0, 2, size - 1))
        if gen.random() < 0.15:
            coeffs = (1.0, 0.0) if gen.random() < 0.5 else (0.0, 1.0)
        else:
            raw = gen.uniform(0.3, 1.0, 2) * np.exp(2j * np.pi * gen.random(2))
            coeffs = tuple(complex(c) for c in raw / np.linalg.norm(raw))
        clusters.append(CorrelationCluster(members, coeffs, flips))
    state = reconstruct(ClusterDecomposition(tuple(clusters), ()), Register(tuple(names)))
    for _ in range(int(gen.integers(0, 4))):
        kind = int(gen.integers(0, 3))
        a, b = (str(x) for x in gen.choice(names, size=2, replace=False))
        if kind == 0:
            state = imprint(state, a, b)
        elif kind == 1:
            state = swap(state, a, b)
        else:
            state = rotate_basis(state, a)
    return state


class TestAgainstDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), relabel=st.booleans())
    def test_noise_free_states_match(self, seed, n, relabel):
        state = random_cluster_state(np.random.default_rng(seed), n)
        got = find_clusters(state, allow_relabeling=relabel)
        want = dense_find_clusters(state, allow_relabeling=relabel)
        assert got.residual == want.residual
        assert [(c.members, c.flips) for c in got.clusters] == [
            (c.members, c.flips) for c in want.clusters
        ]
        for g, w in zip(got.clusters, want.clusters):
            assert np.allclose(g.coefficients, w.coefficients, rtol=0.0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        relabel=st.booleans(),
        noise_exp=st.floats(-16.0, -8.0),
    )
    @example(seed=200, n=2, relabel=False, noise_exp=-9.125)
    @example(seed=0, n=8, relabel=True, noise_exp=-10.5)
    def test_noise_only_moves_labels_to_residual(self, seed, n, relabel, noise_exp):
        # find_clusters peels every nonzero amplitude, noise included, so it
        # moves the labels to the residual that the dense reference moves.
        gen = np.random.default_rng(seed)
        state = random_cluster_state(gen, n)
        noise = gen.normal(size=state.dim) + 1j * gen.normal(size=state.dim)
        vec = state.amplitudes + noise * (10.0**noise_exp / np.sqrt(2))
        noisy = PureState(state.register, vec / np.linalg.norm(vec))
        got = find_clusters(noisy, allow_relabeling=relabel)
        want = dense_find_clusters(noisy, allow_relabeling=relabel)
        assert got.residual == want.residual
        assert [c.members for c in got.clusters] == [c.members for c in want.clusters]


def product_of_factors(sizes, smallest, gen):
    """Single qubits and GHZ factors over q0, q1, … with the given member
    counts, whose product's smallest amplitude is ``smallest``: each
    factor's smaller coefficient is smallest^w for weights w that sum to 1,
    none under 1/40, with random phases and a random side."""
    weights = gen.random(len(sizes))
    weights = (1.0 - len(sizes) / 40) * weights / weights.sum() + 1 / 40
    parts, start = [], 0
    for size, w in zip(sizes, weights):
        small = smallest**w
        pair = np.array([np.sqrt(1.0 - small**2), small]) * np.exp(2j * np.pi * gen.random(2))
        pair = pair[::-1] if gen.random() < 0.5 else pair
        names = tuple(f"q{i}" for i in range(start, start + size))
        parts.append(product_state(names, [pair]) if size == 1 else make_ghz(names, pair))
        start += size
    state = parts[0]
    for part in parts[1:]:
        state = tensor(state, part)
    return state


def product_near_the_cutoff(k, ghz=0):
    """k qubits of (1.4, 0.2), then a GHZ over g0… with equal coefficients."""
    state = product_state(tuple(f"p{i}" for i in range(k)), [(1.4, 0.2)] * k)
    if ghz:
        state = tensor(state, make_ghz(tuple(f"g{i}" for i in range(ghz)), (1, 1)))
    return state


class TestAmplitudesNearTheCutoff:
    # Amplitudes at or below the cutoff are left out of the candidate
    # classes but peeled with the rest, as the dense reference peels them.

    @pytest.mark.parametrize("k, ghz", [(10, 0), (11, 0), (12, 0), (11, 3)])
    def test_products_with_amplitudes_under_the_cutoff_match_the_dense_reference(self, k, ghz):
        # the smallest amplitude of 11 such qubits is 4.5e-10
        state = product_near_the_cutoff(k, ghz)
        got = find_clusters(state)
        assert got.residual == ()
        assert_same_clusters(got, dense_find_clusters(state))

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        decades=st.floats(-1.0, 1.0),
        relabel=st.booleans(),
    )
    def test_factors_whose_smallest_amplitude_is_near_the_cutoff(self, sizes, seed, decades, relabel):
        while sum(sizes) > 20:
            sizes = sizes[:-1]
        state = product_of_factors(sizes, DEFAULT_TOL * 10.0**decades, np.random.default_rng(seed))
        assert_same_clusters(
            find_clusters(state, allow_relabeling=relabel),
            dense_find_clusters(state, allow_relabeling=relabel),
        )

    def test_eleven_such_qubits_next_to_a_50_qubit_ghz(self):
        # n = 61, past any dense vector: the closed form is 11 singletons and
        # one 50-member cluster carrying 49.
        decomposition = find_clusters(product_near_the_cutoff(11, 50), allow_relabeling=True)
        assert decomposition.residual == ()
        assert [c.size for c in decomposition.clusters] == [1] * 11 + [50]
        assert total_measure(decomposition) == 49


def test_dense_support_peak_memory_stays_near_state_size():
    # s, o and a 14-qubit GHZ environment, all rotated into X: every one of
    # the 2^16 amplitudes is in the support.
    env = env_labels(14)
    state = tensor(product_state(("s", "o"), [(0.6, 0.8j), (1, 2)]), make_ghz(env, (1, 1j)))
    for label in state.register.labels:
        state = rotate_basis(state, label)
    tracemalloc.start()
    try:
        decomposition = find_clusters(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(env) <= set(decomposition.residual)
    assert peak <= 3 * state.amplitudes.nbytes


def test_x_rejection_of_a_z_frame_environment_peaks_near_state_size():
    # The env_reject shape: s, o and a Z-frame GHZ environment, measured in
    # X, so the check reads all 2^16 Z-frame amplitudes of the rotated state.
    env = env_labels(14)
    state = tensor(product_state(("s", "o"), [(0.6, 0.8j), (1, 2)]), make_ghz(env, (1, 1j)))
    spec = MeasurementOutcomeSpec("s", "o", env, basis="X")
    tracemalloc.start()
    try:
        with pytest.raises(EnvironmentNotGHZError, match="carry no GHZ structure"):
            corrected_measure(state, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 2**16


# The same two states read through dense vectors on a full support, with
# reshape peels: the first as its unflagged dense twin; the second stored
# rotated and flagged on half its environment, so that the check frame's
# stored amplitudes do not factor and the check clears the other flags on
# the dense vector.


def test_dense_twin_support_peak_memory_stays_near_state_size():
    env = env_labels(14)
    state = tensor(product_state(("s", "o"), [(0.6, 0.8j), (1, 2)]), make_ghz(env, (1, 1j)))
    for label in state.register.labels:
        state = rotate_basis(state, label)
    twin = dense_twin(state)
    tracemalloc.start()
    try:
        decomposition = find_clusters(twin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(env) <= set(decomposition.residual)
    assert peak <= 3 * twin.amplitudes.nbytes


def noisy_dense_state():
    """The state above with noise of 1e-10 on every amplitude: every one of
    the 2^16 positions is a column, and the classes come from the few above
    the cutoff."""
    env = env_labels(14)
    state = tensor(product_state(("s", "o"), [(0.6, 0.8j), (1, 2)]), make_ghz(env, (1, 1j)))
    gen = np.random.default_rng(5)
    vec = state.amplitudes + 1e-10 * (gen.normal(size=state.dim) + 1j * gen.normal(size=state.dim))
    return PureState(state.register, vec / np.linalg.norm(vec))


def test_noisy_dense_support_peak_memory_stays_near_state_size():
    noisy = noisy_dense_state()
    tracemalloc.start()
    try:
        decomposition = find_clusters(noisy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_clusters(decomposition, dense_find_clusters(noisy))
    assert peak <= 3 * noisy.amplitudes.nbytes


def test_flagged_noisy_dense_support_peak_memory_stays_near_state_size():
    # The noisy state stored with every flag set, so detection reads a
    # rotated copy of the stored amplitudes.
    noisy = noisy_dense_state()
    vec = noisy.amplitudes.copy()
    for pos in range(noisy.n_qubits):
        statevec._rotate_axis(vec, pos)
    flagged = PureState(noisy.register, vec)
    for label in noisy.register.labels:
        flagged = rotate_basis(flagged, label)
    assert np.allclose(flagged.amplitudes, noisy.amplitudes, rtol=0.0, atol=1e-14)
    tracemalloc.start()
    try:
        decomposition = find_clusters(flagged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_clusters(decomposition, dense_find_clusters(flagged))
    assert peak <= 4 * noisy.amplitudes.nbytes


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("q0", [(1, 0), (0, 1)], ids=["up", "down"])
def test_half_support_detection_peaks_near_state_size(rng, q0, relabel):
    # A dense state with q0 fixed: 2^15 support columns, whose bit matrix is
    # built a block at a time, and a first peel whose halves do not pair.
    rest = random_state(rng, labels(16)[1:])
    state = tensor(product_state(("q0",), [q0]), rest)
    tracemalloc.start()
    try:
        decomposition = find_clusters(state, allow_relabeling=relabel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomposition.clusters[0].members == ("q0",)
    assert peak <= 3.25 * 16 * 2**16


def test_x_rejection_of_a_dense_z_frame_environment_peaks_near_state_size():
    env = env_labels(14)
    state = tensor(product_state(("s", "o"), [(0.6, 0.8j), (1, 2)]), make_ghz(env, (1, 1j)))
    vec = state.amplitudes.copy()
    for label in env[:7]:
        statevec._rotate_axis(vec, state.register.position(label))
    twin = PureState(state.register, vec)
    for label in env[:7]:
        twin = rotate_basis(twin, label)
    assert np.allclose(twin.amplitudes, state.amplitudes, rtol=0.0, atol=1e-15)
    spec = MeasurementOutcomeSpec("s", "o", env, basis="X")
    tracemalloc.start()
    try:
        with pytest.raises(EnvironmentNotGHZError, match="carry no GHZ structure"):
            corrected_measure(twin, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 2**16


# The factored path: a state with basis flags and a support index has its
# clusters read off the factors of its stored amplitudes φ where those
# decide them, and they must be the clusters its dense twin reads off the
# full view.


def flagged_state(state, mask):
    """The state's Z-frame amplitudes as the support index of a state whose
    basis flags are ``mask``."""
    phi = state.amplitudes
    index = np.flatnonzero(phi)
    return _framed(state.register, index, phi[index], mask)


def ghz_next_to_s_and_o(n, chi, so=None):
    so = so or ((0.6, 0.8j), (1, 2))
    return tensor(product_state(("s", "o"), so), make_ghz(env_labels(n - 2), chi))


#: GHZ edges next to s and o: a Schmidt coefficient ten times the bound, and
#: 1.5 times it, where all but one of φ's small-branch columns fall under the
#: cutoff unless s and o are basis states; |a − b| about 1e-8, which puts the
#: view's odd half near the cutoff; two-member GHZs read in X, which stay
#: two-branch for (1, 1), have full support for (1, i) and lose a half for
#: (1, −1); one and two flagged members of three.  With whether the factored
#: path decides them.
BASIS_SO = ((1, 0), (0, 1))
GHZ_EDGES = [
    (6, 0b001111, 1e-9, (1, 1e-8), None, True),
    (6, 0b111111, 1e-9, (1, 1.5e-9), None, True),
    (6, 0b111111, 1e-9, (1, 1.5e-9), BASIS_SO, True),
    (6, 0b001111, 1e-9, (1, 1 + 2**0.5 * 1e-8), None, False),
    (4, 0b0011, 1e-9, (1, 1), None, False),
    (4, 0b0011, 1e-9, (1, 1j), None, True),
    (4, 0b0011, 1e-9, (1, -1), None, False),
    (5, 0b00001, 1e-6, (0.6, 0.8j), None, True),
    (5, 0b00011, 1e-6, (0.6, 0.8j), None, True),
    (5, 0b00001, 1e-9, (1, 1), None, True),
    (5, 0b00011, 1e-9, (1, 1), None, True),
]


def with_ghz_edges(test):
    """Pin every GHZ edge, in both modes, as an example of a twin test."""
    for n, mask, tol, chi, so, _ in GHZ_EDGES:
        for relabel in (False, True):
            test = example(seed=0, n=n, mask=mask, tol=tol, relabel=relabel, ghz=(chi, so))(test)
    return test


#: Amplitudes in quarter steps, paired not both zero: the X-frame moduli of
#: many such pairs tie, as those of s = (0.6, 0.8i) do.
QUARTERS = st.builds(complex, *[st.integers(-4, 4).map(lambda x: x / 4)] * 2)
PAIRS = st.tuples(QUARTERS, QUARTERS).filter(any)


class TestFactoredPath:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        mask=st.integers(0, 2**12 - 1),
        tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
        relabel=st.booleans(),
        ghz=st.none() | st.tuples(PAIRS, st.none() | st.tuples(PAIRS, PAIRS)),
    )
    @with_ghz_edges
    @example(seed=0, n=7, mask=0b1000011, tol=1e-9, relabel=False, ghz=((0.25, 0.25 + 0.5j), None))
    def test_flagged_states_read_as_their_dense_twins(self, seed, n, mask, tol, relabel, ghz):
        # random cluster products, or a GHZ over e1… next to s and o
        if ghz is None:
            state = random_cluster_state(np.random.default_rng(seed), n)
        else:
            state = ghz_next_to_s_and_o(max(n, 3), *ghz)
        flagged = flagged_state(state, mask % 2**state.n_qubits)
        assert_same_clusters(
            find_clusters(flagged, tol, relabel), find_clusters(dense_twin(flagged), tol, relabel)
        )

    @pytest.mark.parametrize("n, mask, tol, chi, so, decided", GHZ_EDGES)
    def test_which_ghz_edges_the_factored_path_decides(self, n, mask, tol, chi, so, decided):
        flagged = flagged_state(ghz_next_to_s_and_o(n, chi, so), mask)
        assert (analysis._factored(flagged, tol, False)[0] is not None) == decided
        if decided:
            assert set(env_labels(n - 2)) <= set(find_clusters(flagged, tol).residual)

    def test_a_two_branch_view_falls_back_and_is_accepted(self):
        # (|↑↑⟩ + |↓↓⟩)/√2 reads the same in X on both members
        flagged = flagged_state(ghz_next_to_s_and_o(4, (1, 1)), 0b0011)
        decomposition = find_clusters(flagged)
        assert decomposition.residual == ()
        assert [c.members for c in decomposition.clusters] == [("s",), ("o",), ("e1", "e2")]

    def test_a_tolerance_above_every_amplitude_leaves_no_support(self):
        # φ's largest amplitude is 2^(−3/2) ≈ 0.354, so the factored path
        # finds no support and declines, and the view's raises
        state = tensor(product_state(("s", "o"), [(1, 1), (1, 1)]), make_ghz(env_labels(3), (1, 1)))
        flagged = rotate_basis(state, "e1")
        assert analysis._factored(flagged, 0.6, False)[0] is None
        for current in (flagged, dense_twin(flagged)):
            with pytest.raises(ValueError, match="state has no support above the tolerance cutoff"):
                find_clusters(current, 0.6)

    def test_unflagged_states_take_the_view_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factored path entered")

        monkeypatch.setattr(analysis, "_factored", refuse)
        find_clusters(ghz_next_to_s_and_o(8, (1, 1j)))

    def test_stored_vectors_with_and_without_index_give_the_same_bits(self):
        state = rotate_basis(rotate_basis(ghz_next_to_s_and_o(8, (0.6, 0.8j)), "e1"), "e2")
        plain = rotate_basis(rotate_basis(dense_twin(ghz_next_to_s_and_o(8, (0.6, 0.8j))), "e1"), "e2")
        assert state._index is not None and plain._index is None
        assert analysis._factored(state, DEFAULT_TOL, False)[0] is not None
        assert find_clusters(state) == find_clusters(plain)


def _one_member_pairs(gen, count):
    """(c, flagged, tol, relabel) cases: c a one-member factor's coefficients
    for a generic view, a view with one column under the cutoff, quarter
    steps, whose X-frame moduli can tie, like those of (0.6, 0.8i), or
    moduli within the pick margin of a tie."""
    quarters = np.arange(-4, 5) / 4
    for i in range(count):
        flagged, relabel = bool(gen.integers(2)), bool(gen.integers(2))
        tol = float(gen.choice([1e-12, 1e-9, 1e-6, 1e-3]))
        view = gen.normal(size=2) + 1j * gen.normal(size=2)
        if i % 4 == 1:
            j = gen.integers(2)
            view[j] *= tol * gen.uniform(0.0, 0.9) / abs(view[j])
        if i % 4 == 3:
            view[1] *= abs(view[0]) / abs(view[1]) * (1 + 1e-14)
        if i % 4 == 2:
            view = gen.choice(quarters, size=2) + 1j * gen.choice(quarters, size=2)
            if not view.any():
                view = np.array([0.6, 0.8j])
        view = view / np.linalg.norm(view)
        yield (statevec._rotated(1, None, view, 1)[1] if flagged else view), flagged, tol, relabel


def _multi_member_factors(gen, count):
    """(factor, tol, relabel) cases: an unflagged factor of m = 2…6
    members, random flips in relabeling mode, and in every third draw one
    coefficient under the cutoff."""
    for i in range(count):
        m, relabel = int(gen.integers(2, 7)), bool(gen.integers(2))
        tol = float(gen.choice([1e-12, 1e-9, 1e-6, 1e-3]))
        c = gen.normal(size=2) + 1j * gen.normal(size=2)
        c /= np.linalg.norm(c)
        if i % 3 == 1:
            j = gen.integers(2)
            c[j] *= tol * gen.uniform(0.0, 0.9) / abs(c[j])
        flips = (False, *(relabel and bool(f) for f in gen.integers(2, size=m - 1)))
        yield CorrelationCluster(tuple(f"m{j}" for j in range(m)), tuple(c.tolist()), flips), tol, relabel


def _peel_of_the_view(factor, flagged, tol, relabel):
    """``_detect`` on the factor's own view: its two positions, those above
    the cutoff."""
    m, c = factor.size, np.array(factor.coefficients)
    view = statevec._rotated(1, None, c, 1)[1] if flagged else c
    up = sum(int(f) << (m - 1 - j) for j, f in enumerate(factor.flips))
    live = np.abs(view) > tol
    idx = np.array([up, (1 << m) - 1 - up])[live]
    return analysis._detect(factor.members, idx, view[live], idx, tol, relabel)


def env_reject_state(n=18):
    """A Z-frame GHZ over n − 2 qubits next to s and o, read with every
    label rotated, as the environment check of an X measurement reads it."""
    state = ghz_next_to_s_and_o(n, (0.6, 0.8j))
    return _framed(state.register, state._index, state._values, 2**n - 1)


class TestOneMemberViews:
    def test_closed_form_is_the_peel_of_the_view(self):
        gen = np.random.default_rng(2000)
        singles = (
            (CorrelationCluster(("a",), tuple(c), (False,)), flagged, tol, relabel)
            for c, flagged, tol, relabel in _one_member_pairs(gen, 2000)
        )
        factors = ((factor, False, tol, relabel) for factor, tol, relabel in _multi_member_factors(gen, 3000))
        for factor, flagged, tol, relabel in (*singles, *factors):
            found, left, rest, _ = _peel_of_the_view(factor, flagged, tol, relabel)
            clusters, phase = analysis._own_view(factor, flagged, tol)
            assert left == []
            assert [(c.members, c.flips) for c in clusters] == [(c.members, c.flips) for c in found]
            live = sum(abs(z) > tol for z in found[0].coefficients)
            assert len(clusters) == (1 if live == 2 else factor.size)
            for got, want in zip(clusters, found):
                assert np.allclose(got.coefficients, want.coefficients, rtol=0.0, atol=1e-15)
            assert abs(phase - complex(rest[0])) <= 1e-15

    def test_a_view_with_no_column_above_the_cutoff_is_left_to_the_view_path(self):
        # |↑⟩ read in X has moduli 2^(−1/2) ≈ 0.707, under a cutoff of 0.8
        # that φ's columns clear
        state = rotate_basis(tensor(product_state(("a",), [(1, 0)]), make_ghz(env_labels(5), (1, 0))), "a")
        assert analysis._own_view(CorrelationCluster(("a",), (1 + 0j, 0j), (False,)), True, 0.8) is None
        assert analysis._factored(state, 0.8, False)[0] is None
        with pytest.raises(ValueError, match="state has no support above the tolerance cutoff"):
            find_clusters(state, 0.8)

    def test_the_factored_path_declines_where_a_fit_test_could_matter(self):
        # Deciding takes tol > 3·slack, far above the rounding a one-member
        # peel errs by: at 1e-13 the factors of an env_reject state decline.
        state = env_reject_state()
        assert analysis._factored(state, 1e-13, False)[0] is None
        assert analysis._factored(state, DEFAULT_TOL, False)[0] is not None

    def test_an_env_reject_state_runs_one_detection(self, detections):
        state = env_reject_state()
        assert set(env_labels(16)) == set(find_clusters(state).residual)
        assert detections == [state.register.labels]


# Stored decompositions: find_clusters computes a state's decomposition once
# per tolerance and keeps it on the state, shared by both modes where every
# grouping made for it was mode-neutral.


def answer_bits(state, tol, relabel):
    """``find_clusters``' answer with every coefficient as float hex, or the
    message it raised."""
    try:
        found = find_clusters(state, tol, relabel)
    except ValueError as error:
        return str(error)
    coefficients = [[(z.real.hex(), z.imag.hex()) for z in c.coefficients] for c in found.clusters]
    return found.residual, [(c.members, c.flips) for c in found.clusters], coefficients


ENV = list(env_labels(8))


def run_next_to_a_ghz(*script):
    """The report of ``script`` on s = (0.6, 0.8i), o = (1, 2) and a Z-frame
    GHZ over ``ENV``."""
    return run(parse_scenario(json.dumps({"subsystems": [
        {"label": "s", "amplitudes": [[0.6, 0], [0, 0.8]]},
        {"label": "o", "amplitudes": [[1, 0], [2, 0]]},
        {"ghz": {"labels": ENV, "coefficients": [[1, 0], [0, 1]]}},
    ], "script": list(script)})))


#: One-GHZ tolerance edges of ``GHZ_EDGES``: a small coefficient near the
#: cutoff, and an odd half of the view near it.
NEAR_CUTOFF = st.sampled_from([(1, 1e-8), (1, 1.5e-9), (1, 1 + 2**0.5 * 1e-8)])


class TestStoredDecompositions:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        mask=st.integers(0, 2**10 - 1),
        ghz=st.none() | st.tuples(PAIRS | NEAR_CUTOFF, st.none() | st.tuples(PAIRS, PAIRS)),
        dense=st.booleans(),
        tols=st.lists(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.3]), min_size=2, max_size=2, unique=True),
    )
    # Bell pairs read in X, and a GHZ coefficient near the cutoff
    @example(seed=0, n=4, mask=0b0011, ghz=((1, 1), None), dense=False, tols=[1e-9, 1e-3])
    @example(seed=0, n=4, mask=0b0011, ghz=((1, -1), None), dense=True, tols=[1e-9, 0.3])
    @example(seed=0, n=6, mask=0b111111, ghz=((1, 1.5e-9), None), dense=False, tols=[1e-9, 1e-12])
    def test_stored_decompositions_match_fresh_ones(self, seed, n, mask, ghz, dense, tols):
        # random cluster products, anticorrelated members among them, or a
        # GHZ over e1… next to s and o; flagged, on an index or dense
        def build():
            if ghz is None:
                state = random_cluster_state(np.random.default_rng(seed), n)
            else:
                state = ghz_next_to_s_and_o(max(n, 3), *ghz)
            flagged = flagged_state(state, mask % 2**state.n_qubits)
            return dense_twin(flagged) if dense else flagged

        for first in (False, True):
            state = build()
            for tol, relabel in ((tols[0], first), (tols[0], not first), (tols[0], first),
                                 (tols[1], not first), (tols[1], first)):
                assert answer_bits(state, tol, relabel) == answer_bits(build(), tol, relabel)

    def test_a_corrected_z_run_detects_each_state_once(self, detections):
        # the ledger's read of the declared state serves the environment
        # check, so three reads take two detections
        report = run_next_to_a_ghz(
            {"op": "ledger", "tag": "before"},
            {"op": "corrected_measure", "signal": "s", "observer": "o", "environment": ENV, "basis": "Z"},
            {"op": "ledger", "tag": "after"},
        )
        ledgers = [section for section in report.sections if "ledger" in section.title]
        assert [section.rows[-1] for section in ledgers] == [("total", "7")] * 2
        assert len(detections) == 2

    def test_an_env_reject_run_detects_once(self, detections):
        with pytest.raises(RunError, match="carry no GHZ structure"):
            run_next_to_a_ghz(
                {"op": "corrected_measure", "signal": "s", "observer": "o", "environment": ENV, "basis": "X"}
            )
        assert len(detections) == 1

    def test_modes_that_group_a_flipped_pair_apart_detect_apart(self, detections):
        # |↑↓⟩ and |↓↑⟩: one class in relabeling mode, two otherwise
        state = tensor(correlated_pair(("s", "o"), (0.6, 0.8), anti=True), make_ghz(env_labels(3), (1, 1)))
        for _ in range(2):
            relabeled, plain = find_clusters(state, allow_relabeling=True), find_clusters(state)
        assert len(detections) == 2
        assert relabeled.clusters[0].members == ("s", "o") and relabeled.residual == ()
        assert plain.residual == ("s", "o")

    @pytest.mark.parametrize("anti", [False, True])
    def test_threads_reading_one_fresh_state_agree(self, anti):
        def build():
            return tensor(correlated_pair(("s", "o"), (0.6, 0.8j), anti=anti), make_ghz(env_labels(12), (1, 2)))

        want = {relabel: answer_bits(build(), DEFAULT_TOL, relabel) for relabel in (False, True)}
        state = build()

        def read(slot):  # even slots read relabeling mode first
            order = (slot % 2 == 0, slot % 2 == 1)
            return {relabel: answer_bits(state, DEFAULT_TOL, relabel) for relabel in order}

        assert read_concurrently(read) == [want] * 4


# Cluster detection on a full support: every one of the 2^n positions is a
# column, and the member halves come from a reshape view.


def _peel_by_differences(v_up, v_down, tol):
    """Reference fit of two column slices from difference vectors: the
    coefficients and normalized rest, None when not accepted."""
    v_up, v_down = v_up.copy(), v_down.copy()
    n_up, n_down = float(np.linalg.norm(v_up)), float(np.linalg.norm(v_down))
    rest = v_down / n_down if n_down > n_up * (1 + analysis._PICK_MARGIN) else v_up / n_up
    c_up, c_down = complex(np.vdot(rest, v_up)), complex(np.vdot(rest, v_down))
    v_up -= c_up * rest
    v_down -= c_down * rest
    err = float(np.hypot(np.linalg.norm(v_up), np.linalg.norm(v_down))) / np.hypot(n_up, n_down)
    return None if err > tol else ((c_up, c_down), rest)


def _assert_same_peel(peeled, ref):
    assert (peeled is None) == (ref is None)
    if ref is not None:
        assert peeled[0] == ref[0]
        assert peeled[2].tobytes() == ref[1].tobytes()


def _full_support_amplitudes(gen, n, pos):
    """A read-only random vector over n qubits: qubit ``pos`` in a product
    factor, whose peel is accepted, with a generic state of the others,
    whose peels are rejected when there are at least two of them."""
    vec = gen.normal(size=(2, 2 ** (n - 1))) + 1j * gen.normal(size=(2, 2 ** (n - 1)))
    vec[1] = vec[1, 0] * vec[0]
    vec = np.moveaxis(vec.reshape([2] * n), 0, pos).reshape(-1)
    vec /= np.linalg.norm(vec)
    vec.setflags(write=False)
    return vec


class TestFullColumnPeel:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_reshape_slices_equal_index_slices(self, n):
        gen = np.random.default_rng(n)
        amp = _full_support_amplitudes(gen, n, int(gen.integers(0, n)))
        for shift in reversed(range(n)):
            got = analysis._peel(None, amp, [shift], [False], 1e-9)
            want = analysis._peel(np.arange(2**n), amp, [shift], [False], 1e-9)
            assert (got is None) == (want is None)
            if want is not None:
                assert got[0] == want[0] and got[1] is None
                positions = np.arange(2**n)
                assert np.array_equal(want[1], positions[positions & (1 << shift) == 0])
                assert got[2].tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_peels_leave_the_columns_unchanged(self, n):
        gen = np.random.default_rng(100 + n)
        pos = int(gen.integers(0, n))
        amp = _full_support_amplitudes(gen, n, pos)
        before = amp.tobytes()
        outcomes = []
        for shift in reversed(range(n)):
            peeled = analysis._peel(None, amp, [shift], [False], 1e-9)
            outcomes.append(peeled is not None)
            assert amp.tobytes() == before
        assert outcomes[pos]
        assert n == 2 or not any(outcomes[:pos] + outcomes[pos + 1 :])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_support_classes_are_singletons(self, n):
        # find_clusters skips the co-variation scan on a full support
        for relabel in (False, True):
            classes = analysis._covariation_classes(np.arange(2**n), n, relabel)
            assert classes == ([[p] for p in range(n)], True)


class TestPeelRejectBound:
    TOL = 1e-9

    @staticmethod
    def slices(gen, size, err, below, up_heavier):
        """v↑ and v↓ over ``size`` columns whose fit leaves relative error
        ``err``; with ``below`` nonzero, every other column of the rest has
        modulus ``below`` before normalization, under the cutoff ``TOL``."""
        u = gen.normal(size=size) + 1j * gen.normal(size=size)
        w = gen.normal(size=size) + 1j * gen.normal(size=size)
        if below:
            u[::2] *= below / np.abs(u[::2])
        u /= np.linalg.norm(u)
        w -= np.vdot(u, w) * u
        w /= np.linalg.norm(w)
        # The heavier slice is the fitted rest; the lighter one leaves γ·w.
        gamma = err / np.sqrt(1.0 - err**2)
        heavy, light = 0.8 * u, 0.6 * np.exp(0.3j) * u + gamma * w
        scale = np.sqrt(1.0 + gamma**2)
        return (heavy / scale, light / scale) if up_heavier else (light / scale, heavy / scale)

    def check(self, gen, size, err, below, up_heavier):
        v_up, v_down = self.slices(gen, size, err, below, up_heavier)
        want = _peel_by_differences(v_up, v_down, self.TOL)
        shift = size.bit_length() - 1
        amp = np.concatenate((v_up, v_down))
        amp.setflags(write=False)
        for idx in (None, np.arange(2 * size)):
            _assert_same_peel(analysis._peel(idx, amp, [shift], [False], self.TOL), want)
        # a sparse index: the same columns next to a qubit that is always ↑
        sparse = np.arange(2 * size) * 2
        _assert_same_peel(analysis._peel(sparse, amp, [shift + 1], [False], self.TOL), want)
        # the columns _support hands on, those under the cutoff included
        wide = np.zeros(4 * size, dtype=complex)
        wide[sparse] = amp
        for vec, s in ((amp, shift), (wide, shift + 1)):
            idx, values, _ = analysis._support(PureState(Register(labels(s + 1)), vec), self.TOL)
            _assert_same_peel(analysis._peel(idx, values, [s], [False], self.TOL), want)
        return want

    @pytest.mark.parametrize("size", [2, 16, 256])
    @pytest.mark.parametrize("below", [0.0, 3e-11, 2e-10])
    @pytest.mark.parametrize("err", [1e-5, 1e-3, 0.3])
    def test_decisive_rejections_match_the_difference_vectors(self, size, below, err):
        gen = np.random.default_rng(7)
        for up_heavier in (True, False):
            assert self.check(gen, size, err, below, up_heavier) is None

    @pytest.mark.parametrize("size", [2, 16, 256])
    @pytest.mark.parametrize("below", [0.0, 3e-11, 2e-10])
    @pytest.mark.parametrize("where", [0.0, 0.5, 0.999, 1.001, 1.5, 4.0])
    def test_errors_near_the_bound(self, size, below, where):
        # ``where`` places the error relative to the reject bound, ``tol``
        gen = np.random.default_rng(8)
        for up_heavier in (True, False):
            peeled = self.check(gen, size, where * self.TOL, below, up_heavier)
            assert (peeled is not None) == (where < 1.0)


@pytest.mark.parametrize("flips", [(False, False, False), (False, True, False)])
@pytest.mark.parametrize("where", [0.5, 0.9, 1.1, 2.0])
def test_off_pattern_columns_count_in_full_against_the_fit(flips, where):
    # A three-member GHZ factor of five qubits, with columns whose members
    # carry neither pattern of 2-norm ``where`` times the tolerance.
    gen = np.random.default_rng(9)
    rest = gen.normal(size=4) + 1j * gen.normal(size=4)
    up = sum(int(f) << (2 - j) for j, f in enumerate(flips))
    factor = np.zeros(8, dtype=complex)
    factor[up], factor[7 - up] = 0.6, 0.8j
    off = np.zeros((8, 4), dtype=complex)
    pattern = np.isin(np.arange(8), [up, 7 - up])
    off[~pattern] = gen.normal(size=(6, 4)) + 1j * gen.normal(size=(6, 4))
    vec = np.kron(factor, rest / np.linalg.norm(rest)) + (where * 1e-9 / np.linalg.norm(off)) * off.reshape(-1)
    vec /= np.linalg.norm(vec)
    got = analysis._peel(np.arange(32), vec, [4, 3, 2], list(flips), 1e-9)
    want = _dense_peel(list(labels(5)), vec, list(labels(3)), list(flips), 1e-9)
    assert (got is None) == (want is None) == (where > 1.0)
    if want is not None:
        assert np.allclose(got[0], want[0], rtol=0.0, atol=1e-15)
        assert np.array_equal(got[1], np.arange(4))
        assert np.allclose(got[2], want[1], rtol=0.0, atol=1e-15)


def test_tied_singleton_peels_on_uncut_columns_match_the_dense_reference():
    # Every |→⟩ peel is a tie of its two slices, whose rounding must not add
    # up past the tolerance and move the last qubits to the residual.
    plus = [f"p{i}" for i in range(10)]
    state = tensor(make_ghz(("g0", "g1"), (1, 1)), product_state(plus, [(1, 1)] * 10))
    got = find_clusters(state, tol=1e-13)
    want = dense_find_clusters(state, tol=1e-13)
    assert got.residual == want.residual == ()
    assert [c.members for c in got.clusters] == [c.members for c in want.clusters]
