import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure.gates import (
    Imprint,
    InverseImprint,
    RotateBasis,
    Swap,
    apply_script,
    imprint,
    inverse_imprint,
    invert_script,
    rotate_basis,
    swap,
)
from qmeasure.oracle import gate_matrix
from qmeasure.statevec import Register, approx_eq, basis_state, product_state

from conftest import labels, random_state

INV_SQRT2 = 1 / np.sqrt(2)

IMPRINT_TABLE = [("↑↑", "↑↑"), ("↑↓", "↑↓"), ("↓↑", "↓↓"), ("↓↓", "↓↑")]
SWAP_TABLE = [("↑↑", "↑↑"), ("↑↓", "↓↑"), ("↓↑", "↑↓"), ("↓↓", "↓↓")]

AB = Register(("a", "b"))


def random_script(gen, qubits, length):
    ops = []
    for _ in range(length):
        kind = gen.integers(0, 4)
        if kind == 3:
            ops.append(RotateBasis(str(gen.choice(qubits))))
        else:
            pair = gen.choice(len(qubits), size=2, replace=False)
            x, y = qubits[pair[0]], qubits[pair[1]]
            ops.append([Imprint, InverseImprint, Swap][kind](x, y))
    return ops


class TestImprint:
    @pytest.mark.parametrize("sym_in, sym_out", IMPRINT_TABLE)
    def test_truth_table(self, sym_in, sym_out):
        out = imprint(basis_state(AB, sym_in), "a", "b")
        assert approx_eq(out, basis_state(AB, sym_out), 0)

    def test_superposed_control_entangles(self):
        state = product_state(AB, [(1, 1), (1, 0)])
        out = imprint(state, "a", "b")
        expected = np.array([INV_SQRT2, 0, 0, INV_SQRT2])
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-15
        # same thing through the dense matrix
        oracle = gate_matrix(Imprint("a", "b"), AB) @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - oracle)) < 1e-15

    def test_rejects_same_operand(self):
        with pytest.raises(ValueError, match="distinct"):
            imprint(basis_state(AB, "↑↑"), "a", "a")

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="unknown"):
            imprint(basis_state(AB, "↑↑"), "a", "zz")


class TestInverseImprint:
    @pytest.mark.parametrize("sym", ["↑↑", "↑↓", "↓↑", "↓↓"])
    def test_undoes_imprint_on_basis_states(self, sym):
        state = basis_state(AB, sym)
        assert approx_eq(inverse_imprint(imprint(state, "a", "b"), "a", "b"), state, 0)

    def test_coincides_with_imprint_on_qubits(self):
        assert approx_eq(inverse_imprint(basis_state(AB, "↓↓"), "a", "b"), basis_state(AB, "↓↑"), 0)
        assert approx_eq(inverse_imprint(basis_state(AB, "↑↑"), "a", "b"), basis_state(AB, "↑↑"), 0)


class TestSwap:
    @pytest.mark.parametrize("sym_in, sym_out", SWAP_TABLE)
    def test_truth_table(self, sym_in, sym_out):
        out = swap(basis_state(AB, sym_in), "a", "b")
        assert approx_eq(out, basis_state(AB, sym_out), 0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_involution(self, seed):
        state = random_state(np.random.default_rng(seed), labels(3))
        out = swap(swap(state, "q0", "q2"), "q0", "q2")
        assert approx_eq(out, state, 0)

    def test_rejects_same_operand(self):
        with pytest.raises(ValueError, match="distinct"):
            swap(basis_state(AB, "↑↑"), "b", "b")


class TestRotateBasis:
    def test_up_to_plus(self):
        out = rotate_basis(basis_state(("s",), "↑"), "s")
        assert np.max(np.abs(out.amplitudes - [INV_SQRT2, INV_SQRT2])) < 1e-15

    def test_plus_to_up(self):
        out = rotate_basis(product_state(("s",), [(1, 1)]), "s")
        assert approx_eq(out, basis_state(("s",), "↑"), 1e-15)

    @pytest.mark.parametrize("sym", ["↑↑", "↑↓", "↓↑", "↓↓"])
    def test_self_inverse(self, sym):
        state = basis_state(AB, sym)
        assert approx_eq(rotate_basis(rotate_basis(state, "b"), "b"), state, 1e-15)

    def test_hadamard_reproduces_rotate_basis(self, rng):
        for _ in range(20):
            state = random_state(rng, labels(4))
            direct = rotate_basis(state, "q2")
            via_matrix = gate_matrix(RotateBasis("q2"), state.register) @ state.amplitudes
            assert np.max(np.abs(direct.amplitudes - via_matrix)) <= 1e-12


class TestApplyScript:
    def test_empty_script_is_identity(self, rng):
        state = random_state(rng, labels(2))
        assert approx_eq(apply_script(state, []), state, 0)

    def test_measurement_composite(self, rng):
        # imprint then swap moves the observer's state onto the environment
        state = random_state(rng, ("s",))
        phi = random_state(rng, ("o",))
        from qmeasure.statevec import tensor

        full = tensor(tensor(state, phi), basis_state(("e",), "↑"))
        out = apply_script(full, [Imprint("s", "e"), Swap("o", "e")])
        # environment slot now carries the observer's old amplitudes
        psi = state.amplitudes
        expected_e = phi.amplitudes
        picked = out.amplitudes.reshape(2, 2, 2)
        assert np.max(np.abs(picked[0, 0, :] - psi[0] * expected_e)) < 1e-12
        assert np.max(np.abs(picked[1, 1, :] - psi[1] * expected_e)) < 1e-12

    def test_reversed_inverted_script_restores_state(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            state = random_state(rng, labels(n))
            script = random_script(rng, labels(n), int(rng.integers(1, 12)))
            out = apply_script(apply_script(state, script), invert_script(script))
            assert approx_eq(out, state, 1e-12)

    def test_invalid_gate_raises_and_input_unchanged(self, rng):
        state = random_state(rng, labels(2))
        before = state.amplitudes.copy()
        with pytest.raises(ValueError):
            apply_script(state, [Swap("q0", "q1"), Imprint("q0", "nope")])
        assert np.array_equal(state.amplitudes, before)


class TestGateProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_norm_preserved(self, seed):
        gen = np.random.default_rng(seed)
        state = random_state(gen, labels(4))
        for op in (Imprint("q0", "q3"), InverseImprint("q1", "q0"), Swap("q2", "q0"), RotateBasis("q1")):
            out = apply_script(state, [op])
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_basis_permutation_small(self, rng):
        # imprint/swap scripts send each basis vector to exactly one basis vector
        n = 4
        script = random_script(rng, labels(n), 8)
        script = [op for op in script if not isinstance(op, RotateBasis)]
        for index in range(2**n):
            symbols = "".join("↑↓"[(index >> (n - 1 - p)) & 1] for p in range(n))
            out = apply_script(basis_state(labels(n), symbols), script)
            mags = np.abs(out.amplitudes)
            assert np.count_nonzero(mags > 1e-12) == 1
            assert abs(mags.max() - 1.0) < 1e-12

    def test_disjoint_gates_commute(self, rng):
        state = random_state(rng, labels(4))
        first, second = Imprint("q0", "q1"), Swap("q2", "q3")
        one = apply_script(state, [first, second])
        two = apply_script(state, [second, first])
        assert approx_eq(one, two, 1e-12)

    def test_swap_is_basis_independent(self, rng):
        # rotating both operands commutes with swap
        state = random_state(rng, labels(3))
        rotations = [RotateBasis("q0"), RotateBasis("q2")]
        one = apply_script(state, rotations + [Swap("q0", "q2")])
        two = apply_script(state, [Swap("q0", "q2")] + rotations)
        assert approx_eq(one, two, 1e-12)

    def test_imprint_is_not_basis_independent(self):
        # search the two-qubit basis states for a witness
        rotations = [RotateBasis("a"), RotateBasis("b")]
        witnesses = []
        for sym in ("↑↑", "↑↓", "↓↑", "↓↓"):
            state = basis_state(AB, sym)
            one = apply_script(state, rotations + [Imprint("a", "b")])
            two = apply_script(state, [Imprint("a", "b")] + rotations)
            if not approx_eq(one, two, 1e-12):
                witnesses.append(sym)
        assert witnesses, "imprint unexpectedly commuted with the basis rotation everywhere"


class TestGateOpValidation:
    def test_operands_must_differ_at_construction(self):
        with pytest.raises(ValueError):
            Imprint("a", "a")
        with pytest.raises(ValueError):
            InverseImprint("b", "b")
        with pytest.raises(ValueError):
            Swap("c", "c")

    def test_invert_script_swaps_imprint_kinds(self):
        script = [Imprint("a", "b"), Swap("a", "b"), InverseImprint("b", "a"), RotateBasis("a")]
        inverted = invert_script(script)
        assert inverted == [
            RotateBasis("a"),
            Imprint("b", "a"),
            Swap("a", "b"),
            InverseImprint("a", "b"),
        ]
