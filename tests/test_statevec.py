import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import statevec
from qmeasure.gates import rotate_basis
from qmeasure.statevec import (
    DENSE_MAX_QUBITS,
    MAX_QUBITS,
    BranchSet,
    DenseLimitError,
    PureState,
    Register,
    approx_eq,
    basis_state,
    branch_decompose,
    from_branches,
    make_ghz,
    product_state,
    tensor,
)

from conftest import assert_unchanged, labels, random_pair, random_state

INV_SQRT2 = 1 / np.sqrt(2)


def amplitude_pairs(min_mag=0.0):
    component = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    return st.tuples(component, component).filter(
        lambda p: abs(p[0]) + abs(p[1]) > max(min_mag, 1e-3)
    )


class TestRegister:
    def test_positions_follow_declaration_order(self):
        reg = Register(("s", "o", "e1"))
        assert reg.position("s") == 0
        assert reg.position("e1") == 2
        assert "o" in reg and "x" not in reg

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Register(("s", "s"))

    def test_rejects_whitespace_and_empty(self):
        with pytest.raises(ValueError):
            Register(("a b",))
        with pytest.raises(ValueError):
            Register(("",))
        with pytest.raises(ValueError):
            Register(())

    def test_unusual_labels_accepted(self):
        reg = Register(("o3'", "^1o1", "e_2"))
        assert reg.position("^1o1") == 1


class TestPureState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            PureState(Register(("a",)), np.array([1.0, 0.0, 0.0]))

    def test_rejects_norm_drift(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(Register(("a",)), np.array([2.0, 0.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(Register(("a",)), np.array([np.nan, 0.0]))

    def test_amplitudes_are_locked_and_copied(self):
        src = np.array([1.0 + 0j, 0.0])
        state = PureState(Register(("a",)), src)
        src[0] = 5.0
        assert state.amplitudes[0] == 1.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_attributes_cannot_be_assigned(self):
        state = basis_state(("a",), "↑")
        for name in ("register", "amplitudes", "_index"):
            with pytest.raises(AttributeError):
                setattr(state, name, None)
        with pytest.raises(AttributeError):
            del state.register

    def test_identity_equality_and_repr(self):
        a, b = basis_state(("a", "b"), "↑↓"), basis_state(("a", "b"), "↑↓")
        assert a == a and a != b
        assert len({a, b}) == 2
        assert repr(a) == "PureState(register=('a', 'b'), dim=4)"
        assert repr(make_ghz(labels(40), (1, 1))) == (
            f"PureState(register={labels(40)}, dim={2**40})"
        )


class TestProductState:
    def test_single_basis_state(self):
        state = product_state(("s",), [(1, 0)])
        assert np.array_equal(state.amplitudes, [1, 0])

    def test_two_qubit_composite_matches_outer_product(self, rng):
        psi, phi = random_pair(rng), random_pair(rng)
        state = product_state(("s", "o"), [psi, phi])
        pn = np.array(psi) / np.linalg.norm(np.array(psi))
        on = np.array(phi) / np.linalg.norm(np.array(phi))
        expected = np.array([pn[i] * on[j] for i in (0, 1) for j in (0, 1)])
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-15

    def test_renormalizes_each_pair(self):
        state = product_state(("s",), [(2, 0)])
        assert np.array_equal(state.amplitudes, [1, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="pairs"):
            product_state(("s", "o"), [(1, 0)])

    def test_all_zero_pair(self):
        with pytest.raises(ValueError, match="zero"):
            product_state(("s",), [(0, 0)])

    @given(pair=amplitude_pairs())
    def test_always_unit_norm(self, pair):
        assert abs(product_state(("s",), [pair]).norm() - 1.0) <= 1e-9


class TestMakeGhz:
    def test_degenerate_single_qubit(self):
        state = make_ghz(("e1",), (1, 1))
        assert np.max(np.abs(state.amplitudes - [INV_SQRT2, INV_SQRT2])) < 1e-15

    def test_three_qubit_equal_weights(self):
        state = make_ghz(("e1", "e2", "e3"), (1, 1))
        expected = np.zeros(8)
        expected[0] = expected[7] = INV_SQRT2
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-15

    def test_single_branch(self):
        state = make_ghz(("e1", "e2"), (1, 0))
        assert np.array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_at_most_two_live_branches_proportional_to_coefficients(self, rng):
        coeffs = random_pair(rng)
        state = make_ghz(labels(5), coeffs)
        live = np.flatnonzero(np.abs(state.amplitudes) > 0)
        assert set(live.tolist()) <= {0, 31}
        ratio = state.amplitudes[31] / state.amplitudes[0]
        assert abs(ratio - coeffs[1] / coeffs[0]) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            make_ghz((), (1, 0))
        with pytest.raises(ValueError, match="zero"):
            make_ghz(("e1",), (0, 0))
        with pytest.raises(ValueError, match="two"):
            make_ghz(("e1",), (1, 0, 0))


class TestTensor:
    def test_basis_states(self):
        out = tensor(basis_state(("s",), "↑"), basis_state(("o",), "↓"))
        assert approx_eq(out, basis_state(("s", "o"), "↑↓"), 0)

    def test_duplicate_label_rejected(self, rng):
        a = random_state(rng, ("s",))
        with pytest.raises(ValueError, match="share"):
            tensor(a, random_state(rng, ("s",)))

    def test_norm_multiplicative(self, rng):
        out = tensor(random_state(rng, ("a", "b")), random_state(rng, ("c",)))
        assert abs(out.norm() - 1.0) < 1e-12

    def test_associativity_exact_on_dyadic_amplitudes(self):
        a = product_state(("a",), [(0.5, 0.5)])
        b = product_state(("b",), [(0.25, 0.75)])
        c = product_state(("c",), [(1.0, 0.0)])
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left.register == right.register
        assert np.array_equal(left.amplitudes, right.amplitudes)

    def test_associativity_random(self, rng):
        a, b, c = (random_state(rng, (lbl,)) for lbl in ("a", "b", "c"))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert approx_eq(left, right, 1e-15)

    def test_three_factor_composite_has_eight_amplitudes(self, rng):
        psi, phi = random_pair(rng), random_pair(rng)
        state = tensor(
            tensor(product_state(("s",), [psi]), product_state(("o",), [phi])),
            basis_state(("e",), "↑"),
        )
        assert state.dim == 8
        # the environment slot ↓ never fires
        assert np.max(np.abs(state.amplitudes[1::2])) == 0


class TestApproxEq:
    def test_equal(self):
        up = basis_state(("s",), "↑")
        assert approx_eq(up, up, 1e-12)

    def test_global_phase(self):
        up = basis_state(("s",), "↑")
        minus = PureState(up.register, -up.amplitudes)
        assert not approx_eq(up, minus, 1e-12)

    def test_distinct(self):
        assert not approx_eq(basis_state(("s",), "↑"), basis_state(("s",), "↓"), 1e-12)

    def test_register_mismatch(self):
        with pytest.raises(ValueError, match="register"):
            approx_eq(basis_state(("s",), "↑"), basis_state(("o",), "↑"), 1e-12)


class TestBranchDecompose:
    def test_basis_state_single_branch(self):
        bs = branch_decompose(basis_state(("s", "o"), "↑↑"), "Z")
        assert (bs.outcomes().tolist(), bs.amplitudes.tolist()) == (["↑↑"], [1 + 0j])

    def test_plus_state_in_z(self):
        bs = branch_decompose(product_state(("s",), [(1, 1)]), "Z")
        assert bs.outcomes().tolist() == ["↑", "↓"]
        assert all(abs(a - INV_SQRT2) < 1e-15 for a in bs.amplitudes.tolist())

    def test_plus_state_in_x_is_one_branch(self):
        bs = branch_decompose(product_state(("s",), [(1, 1)]), "X")
        assert bs.outcomes().tolist() == ["→"]

    def test_mixed_basis_map(self):
        state = product_state(("s", "o"), [(1, 1), (1, 0)])
        bs = branch_decompose(state, {"s": "X", "o": "Z"})
        assert bs.outcomes().tolist() == ["→↑"]

    def test_requires_full_coverage(self):
        state = basis_state(("s", "o"), "↑↑")
        with pytest.raises(ValueError, match="missing"):
            branch_decompose(state, {"s": "Z"})
        with pytest.raises(ValueError, match="not in register"):
            branch_decompose(state, {"s": "Z", "o": "Z", "x": "Z"})

    def test_prunes_rounding_noise(self):
        eps = 1e-13
        vec = np.array([np.sqrt(1 - eps**2), eps])
        bs = branch_decompose(PureState(Register(("s",)), vec), "Z")
        assert bs.outcomes().tolist() == ["↑"]

    def test_branches_sorted_and_distinct(self, rng):
        state = random_state(rng, labels(3))
        bs = branch_decompose(state, "Z")
        outcomes = bs.outcomes().tolist()
        assert outcomes == sorted(outcomes, key=lambda o: [("↑↓→←").index(c) % 2 for c in o])
        assert len(set(outcomes)) == len(outcomes)

    def test_probabilities_sum_to_one(self, rng):
        state = random_state(rng, labels(4))
        bs = branch_decompose(state, {lbl: ("X" if i % 2 else "Z") for i, lbl in enumerate(labels(4))})
        assert abs(sum(bs.probabilities.tolist()) - 1.0) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**32 - 1))
        gen = np.random.default_rng(seed)
        state = random_state(gen, labels(n))
        selectors = {lbl: data.draw(st.sampled_from(("Z", "X"))) for lbl in labels(n)}
        rebuilt = from_branches(branch_decompose(state, selectors))
        assert approx_eq(state, rebuilt, 1e-12)


class TestFromBranches:
    def test_manual_branch_set(self):
        reg = Register(("s",))
        bs = BranchSet(reg, ("X",), np.array([0]), np.array([1 + 0j]))
        assert approx_eq(from_branches(bs), product_state(("s",), [(1, 1)]), 1e-12)


class TestSizeLimits:
    """Both limits refuse oversized requests before anything is allocated."""

    def test_register_holds_at_most_max_qubits(self):
        assert len(Register(labels(MAX_QUBITS))) == MAX_QUBITS
        with pytest.raises(ValueError, match=f"at most {MAX_QUBITS}"):
            Register(labels(MAX_QUBITS + 1))
        with pytest.raises(ValueError, match=f"at most {MAX_QUBITS}"):
            make_ghz(labels(MAX_QUBITS + 1), (1, 1))

    def test_ghz_at_max_qubits_holds_its_extreme_positions(self):
        ghz = make_ghz(labels(MAX_QUBITS), (1, 1))
        assert ghz._index.tolist() == [0, 2**MAX_QUBITS - 1]
        assert ghz.dim == 2**MAX_QUBITS
        assert abs(ghz.norm() - 1.0) < 1e-15

    def test_dense_views_of_a_large_sparse_state_are_refused(self):
        ghz = make_ghz(labels(40), (1, 1))
        stored = dict(vars(ghz))
        for dense in (
            lambda: ghz.amplitudes,
            lambda: rotate_basis(ghz, "q3").amplitudes,
            lambda: branch_decompose(ghz, "X"),
            lambda: approx_eq(ghz, ghz),
            lambda: tensor(ghz, product_state(("s",), [(1, 1)])).amplitudes,
        ):
            with pytest.raises(DenseLimitError, match="over 4[01] qubits"):
                dense()
        assert_unchanged(ghz, stored)

    def test_dense_builders_check_before_allocating(self):
        n = DENSE_MAX_QUBITS + 1
        assert issubclass(DenseLimitError, ValueError)
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match=f"over {n} qubits"):
                product_state(labels(n), [(1, 1)] * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak} bytes allocated before the refusal"
        with pytest.raises(DenseLimitError, match=f"over {n} qubits"):
            from_branches(BranchSet(Register(labels(n)), ("Z",) * n, np.array([0]), np.array([1 + 0j])))

    def test_dense_product_is_refused_past_the_limit(self, monkeypatch):
        # Reaching tensor's dense path past the real limit takes a dense
        # operand of 2^22 amplitudes, so the limit is lowered here instead.
        monkeypatch.setattr(statevec, "DENSE_MAX_QUBITS", 6)
        a = product_state(labels(3), [(1, 1)] * 3)
        b = product_state(("x", "y", "z", "w"), [(1, 1)] * 4)
        with pytest.raises(DenseLimitError, match="over 7 qubits"):
            tensor(a, b)

    def test_sparse_product_past_the_limit_keeps_the_dense_limit_share(self, monkeypatch):
        # Past DENSE_MAX_QUBITS a product's index may list SPARSE_SHARE of
        # 2^DENSE_MAX_QUBITS positions, 4 with the limit lowered to 6; a
        # dense part is still scanned for it when the product fits.
        monkeypatch.setattr(statevec, "DENSE_MAX_QUBITS", 6)
        sparse_part = product_state(labels(6), [(1, 1)] + [(1, 0)] * 5)
        product = tensor(sparse_part, make_ghz(("w", "x", "y", "z"), (1, 1)))
        assert product._index.size == 4
        with pytest.raises(DenseLimitError, match="over 11 qubits"):
            tensor(make_ghz(labels(8), (1, 1)), product_state(("x", "y", "z"), [(1, 1)] * 3))
