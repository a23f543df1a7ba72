import sys
from pathlib import Path

import numpy as np
import pytest

from qmeasure import protocol
from qmeasure.analysis import (
    CorrelationLedger,
    NotClusterNormalError,
    cluster_measure,
    find_clusters,
    ledger_record,
)
from qmeasure.gates import Imprint, RotateBasis, apply_script
from qmeasure.oracle import gate_matrix, oracle_apply
from qmeasure.protocol import (
    EnvironmentNotGHZError,
    MeasurementOutcomeSpec,
    ObserverNotReadyError,
    check_environment,
    check_ready,
    corrected_measure,
    corrected_script,
    ideal_measure,
    ideal_script,
    uncorrected_measure,
    uncorrected_script,
)
from qmeasure.statevec import (
    BranchSet,
    PureState,
    Register,
    approx_eq,
    basis_state,
    branch_decompose,
    from_branches,
    make_ghz,
    _framed,
    _rotate_axis,
    product_state,
    tensor,
)

from qmeasure.runner import RunError, run
from qmeasure.scenario import ScenarioError, parse_scenario

from conftest import random_pair, scenario_state

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's scenario generators, standard library only)

INV_SQRT2 = 1 / np.sqrt(2)

SOE = Register(("s", "o", "e"))


def normalized(pair):
    vec = np.array(pair, dtype=complex)
    return vec / np.linalg.norm(vec)


def correlated_pair(labels, psi):
    """(Σ_i ψ_i |ii⟩) over two labels."""
    pn = normalized(psi)
    return PureState(Register(labels), np.array([pn[0], 0, 0, pn[1]]))


def env_labels(n):
    return tuple(f"e{k}" for k in range(1, n + 1))


def corrected_setup(psi, phi, chi, n):
    state = tensor(product_state(("s", "o"), [psi, phi]), make_ghz(env_labels(n), chi))
    return state, MeasurementOutcomeSpec("s", "o", env_labels(n))


class TestUncorrectedMeasure:
    def test_known_environment_gives_correlation(self, rng):
        psi, phi = random_pair(rng), random_pair(rng)
        state = product_state(SOE, [psi, phi, (1, 0)])
        out = uncorrected_measure(state, "s", "o", "e")
        pn, on = normalized(psi), normalized(phi)
        expected = tensor(correlated_pair(("s", "o"), psi), product_state(("e",), [phi]))
        assert approx_eq(out, expected, 1e-12)
        assert np.max(np.abs(on - normalized(phi))) == 0  # input untouched

    def test_flipped_environment_gives_anticorrelation(self, rng):
        psi, phi = random_pair(rng), random_pair(rng)
        state = product_state(SOE, [psi, phi, (0, 1)])
        out = uncorrected_measure(state, "s", "o", "e")
        pn = normalized(psi)
        anti = PureState(Register(("s", "o")), np.array([0, pn[0], pn[1], 0]))
        expected = tensor(anti, product_state(("e",), [phi]))
        assert approx_eq(out, expected, 1e-12)

    def test_superposed_environment_structure_and_oracle(self, rng):
        for _ in range(25):
            psi, phi, chi = random_pair(rng), random_pair(rng), random_pair(rng)
            state = product_state(SOE, [psi, phi, chi])
            out = uncorrected_measure(state, "s", "o", "e")
            assert approx_eq(out, oracle_apply(state, uncorrected_script("s", "o", "e")), 1e-12)
            # explicit branch structure: chi_up on the correlated pair,
            # chi_down on the anticorrelated pair, phi parked on e
            pn, on, cn = normalized(psi), normalized(phi), normalized(chi)
            vec = np.zeros(8, dtype=complex)
            for i in (0, 1):
                for j in (0, 1):
                    for k in (0, 1):  # s, o, e indices
                        if j == i:
                            vec[4 * i + 2 * j + k] += cn[0] * pn[i] * on[k]
                        else:
                            vec[4 * i + 2 * j + k] += cn[1] * pn[i] * on[k]
            assert np.max(np.abs(out.amplitudes - vec)) < 1e-12

    def test_full_basis_action(self):
        # all eight soe basis rows of the composite: |i j k> -> |i (k xor i) j>
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    sym_in = "".join("↑↓"[b] for b in (i, j, k))
                    sym_out = "".join("↑↓"[b] for b in (i, k ^ i, j))
                    out = uncorrected_measure(basis_state(SOE, sym_in), "s", "o", "e")
                    assert approx_eq(out, basis_state(SOE, sym_out), 0), (sym_in, sym_out)

    def test_distinct_labels_required(self):
        with pytest.raises(ValueError, match="distinct"):
            uncorrected_measure(basis_state(SOE, "↑↑↑"), "s", "s", "e")


class TestCorrectedMeasure:
    def test_known_environment_n3(self, rng):
        psi, phi = random_pair(rng), random_pair(rng)
        state, spec = corrected_setup(psi, phi, (1, 0), 3)
        out = corrected_measure(state, spec)
        expected = tensor(
            tensor(correlated_pair(("s", "o"), psi), basis_state(("e1", "e2"), "↑↑")),
            product_state(("e3",), [phi]),
        )
        assert approx_eq(out, expected, 1e-10)

    def test_deterministic_signal_single_branch(self, rng):
        phi, chi = random_pair(rng), random_pair(rng)
        state, spec = corrected_setup((1, 0), phi, chi, 3)
        out = corrected_measure(state, spec)
        branches = branch_decompose(out, "Z")
        so = {(outcome[0], outcome[1]) for outcome in branches.outcomes().tolist()}
        assert so == {("↑", "↑")}

    def test_factorization_and_oracle_n4(self, rng):
        for _ in range(25):
            psi, phi, chi = random_pair(rng), random_pair(rng), random_pair(rng)
            state, spec = corrected_setup(psi, phi, chi, 4)
            out = corrected_measure(state, spec)
            assert approx_eq(out, oracle_apply(state, corrected_script(spec)), 1e-12)
            expected = tensor(
                tensor(correlated_pair(("s", "o"), psi), make_ghz(("e1", "e2", "e3"), chi)),
                product_state(("e4",), [phi]),
            )
            assert approx_eq(out, expected, 1e-10)

    def test_output_clusters(self, rng):
        psi, phi, chi = random_pair(rng, 0.1), random_pair(rng), random_pair(rng, 0.1)
        state, spec = corrected_setup(psi, phi, chi, 5)
        out = corrected_measure(state, spec)
        decomposition = find_clusters(out)
        members = [c.members for c in decomposition.clusters]
        assert members == [("s", "o"), ("e1", "e2", "e3", "e4"), ("e5",)]
        assert decomposition.residual == ()

    def test_observer_state_dumped_on_last_slot(self, rng):
        # the observer's prior amplitudes reappear verbatim on eN
        psi, phi, chi = random_pair(rng, 0.1), random_pair(rng), random_pair(rng, 0.1)
        state, spec = corrected_setup(psi, phi, chi, 4)
        out = corrected_measure(state, spec)
        clusters = [c for c in find_clusters(out).clusters if "e4" in c.members]
        assert [c.members for c in clusters] == [("e4",)]
        cluster = clusters[0]
        c = np.array(cluster.coefficients)
        on = normalized(phi)
        assert abs(c[0] * on[1] - c[1] * on[0]) < 1e-12
        assert np.max(np.abs(np.abs(c) - np.abs(on))) < 1e-12

    @pytest.mark.parametrize("n_env", [4, 8])
    def test_basis_permutation_of_basis_vectors(self, n_env):
        spec = MeasurementOutcomeSpec("s", "o", env_labels(n_env))
        reg = Register(("s", "o", *env_labels(n_env)))
        script = corrected_script(spec)
        n = len(reg)
        for index in range(2**n):
            symbols = "".join("↑↓"[(index >> (n - 1 - p)) & 1] for p in range(n))
            out = apply_script(basis_state(reg, symbols), script)
            mags = np.abs(out.amplitudes)
            assert np.count_nonzero(mags > 1e-12) == 1
            assert abs(mags.max() - 1.0) < 1e-12

    def test_relabeling_symmetry(self, rng):
        # swapping psi and chi components flips the s,o,e1..e(N-1) branch
        # labels while the eN factor stays put
        psi, phi, chi = random_pair(rng, 0.1), random_pair(rng), random_pair(rng, 0.1)
        state, spec = corrected_setup(psi, phi, chi, 3)
        swapped_state, _ = corrected_setup(psi[::-1], phi, chi[::-1], 3)
        out = branch_decompose(corrected_measure(state, spec), "Z")
        swapped = branch_decompose(corrected_measure(swapped_state, spec), "Z")
        flip = {"↑": "↓", "↓": "↑"}
        expected = {}
        for outcome, amplitude in zip(out.outcomes().tolist(), out.amplitudes.tolist()):
            flipped = "".join(flip[c] for c in outcome[:4]) + outcome[4]
            expected[flipped] = amplitude
        got = dict(zip(swapped.outcomes().tolist(), swapped.amplitudes.tolist()))
        assert set(got) == set(expected)
        for outcome, amplitude in expected.items():
            assert abs(got[outcome] - amplitude) < 1e-12

    def test_x_basis_is_the_rotated_procedure(self, rng):
        psi, phi, chi = random_pair(rng), random_pair(rng), random_pair(rng)
        z_state, z_spec = corrected_setup(psi, phi, chi, 3)
        rotations = [RotateBasis(lbl) for lbl in ("s", "o", "e1", "e2", "e3")]
        x_state = apply_script(z_state, rotations)
        x_spec = MeasurementOutcomeSpec("s", "o", env_labels(3), basis="X")
        out = corrected_measure(x_state, x_spec)
        expected = apply_script(corrected_measure(z_state, z_spec), rotations)
        assert approx_eq(out, expected, 1e-10)

    def test_rejects_uncorrelated_environment(self, rng):
        psi, phi = random_pair(rng), random_pair(rng)
        state = product_state(("s", "o", "e1", "e2"), [psi, phi, (1, 0), (0, 1)])
        with pytest.raises(EnvironmentNotGHZError, match="different constant branches"):
            corrected_measure(state, MeasurementOutcomeSpec("s", "o", ("e1", "e2")))

    def test_rejects_locally_superposed_environment(self, rng):
        state = product_state(
            ("s", "o", "e1", "e2"), [random_pair(rng), random_pair(rng), (1, 1), (1, 0)]
        )
        with pytest.raises(EnvironmentNotGHZError, match="superposition"):
            corrected_measure(state, MeasurementOutcomeSpec("s", "o", ("e1", "e2")))

    def test_rejects_environment_entangled_with_outside(self, rng):
        phi = random_pair(rng)
        state = tensor(
            make_ghz(("s", "e1", "e2"), random_pair(rng, 0.1)),
            product_state(("o", "e3"), [phi, (1, 0)]),
        )
        with pytest.raises(EnvironmentNotGHZError):
            corrected_measure(state, MeasurementOutcomeSpec("s", "o", ("e1", "e2", "e3")))

    def test_rejects_piecewise_correlated_environment(self, rng):
        state = tensor(
            product_state(("s", "o"), [random_pair(rng), random_pair(rng)]),
            tensor(make_ghz(("e1", "e2"), random_pair(rng, 0.1)), make_ghz(("e3", "e4"), random_pair(rng, 0.1))),
        )
        with pytest.raises(EnvironmentNotGHZError, match="several correlated pieces"):
            corrected_measure(state, MeasurementOutcomeSpec("s", "o", env_labels(4)))

    def test_requires_two_environment_slots(self, rng):
        state = product_state(("s", "o", "e1"), [random_pair(rng), random_pair(rng), (1, 0)])
        with pytest.raises(ValueError, match="at least two"):
            corrected_measure(state, MeasurementOutcomeSpec("s", "o", ("e1",)))

    def test_n2_runs_but_degenerates(self, rng):
        # pinned by the oracle: the coincident dump/copy slot entangles
        # everything for generic inputs, so there is no ledger value
        psi, phi, chi = random_pair(rng, 0.1), random_pair(rng, 0.1), random_pair(rng, 0.1)
        state, spec = corrected_setup(psi, phi, chi, 2)
        out = corrected_measure(state, spec)
        assert approx_eq(out, oracle_apply(state, corrected_script(spec)), 1e-12)
        decomposition = find_clusters(out, allow_relabeling=True)
        assert set(decomposition.residual) == {"s", "o", "e1", "e2"}
        with pytest.raises(NotClusterNormalError):
            ledger_record(CorrelationLedger(), out, "after")


class TestToleranceEdges:
    """Environments at the edges of the detection tolerance."""

    @staticmethod
    def rotated(state):
        return apply_script(state, [RotateBasis(lbl) for lbl in state.register.labels])

    def assert_x_runs_the_rotated_z_procedure(self, state, n_env):
        z_spec = MeasurementOutcomeSpec("s", "o", env_labels(n_env))
        x_spec = MeasurementOutcomeSpec("s", "o", env_labels(n_env), "X")
        out = corrected_measure(self.rotated(state), x_spec)
        assert approx_eq(out, self.rotated(corrected_measure(state, z_spec)), 1e-12)

    @pytest.mark.parametrize(
        "chi, coefficients", [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1e-10), (1, 0))]
    )
    def test_zero_ghz_coefficient_takes_the_degenerate_path(self, rng, chi, coefficients):
        # A coefficient at or below the cutoff leaves every environment qubit
        # constant: the single-branch resource, returned exactly, in Z and X.
        state, spec = corrected_setup(random_pair(rng), random_pair(rng), chi, 3)
        got = check_environment(state, spec)
        assert got == coefficients and all(type(c) is complex for c in got)
        self.assert_x_runs_the_rotated_z_procedure(state, 3)

    def test_ghz_coefficient_above_the_cutoff_is_one_cluster(self, rng):
        state, spec = corrected_setup(random_pair(rng), random_pair(rng), (1, 1e-8), 3)
        c_up, c_down = check_environment(state, spec)
        assert abs(abs(c_up) - 1.0) < 1e-15 and abs(abs(c_down) - 1e-8) < 1e-20
        self.assert_x_runs_the_rotated_z_procedure(state, 3)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("chi, anti", [((1, 0), False), ((0, 1), True), ((1, 1e-10), False)])
    def test_n2_with_a_single_branch_environment_factors(self, rng, basis, chi, anti):
        # With one environment branch and the observer ready, the coincident
        # dump and copy slot stay unentangled: the non-generic N = 2 case.
        psi = random_pair(rng, 0.1)
        state, _ = corrected_setup(psi, (1, 0), chi, 2)
        spec = MeasurementOutcomeSpec("s", "o", env_labels(2), basis)
        if basis == "X":
            state = self.rotated(state)
        out = corrected_measure(state, spec)
        if basis == "X":
            out = self.rotated(out)
        decomposition = find_clusters(out, allow_relabeling=True)
        assert decomposition.residual == ()
        assert [(c.members, c.flips) for c in decomposition.clusters] == [
            (("s", "o"), (False, anti)),
            (("e1",), (False,)),
            (("e2",), (False,)),
        ]
        pair = np.array(decomposition.clusters[0].coefficients)
        assert abs(abs(np.vdot(pair / np.linalg.norm(pair), normalized(psi))) - 1.0) < 1e-12

    def test_n2_with_a_coefficient_above_the_cutoff_is_unledgered(self, rng):
        state, spec = corrected_setup(random_pair(rng, 0.1), (1, 0), (1, 1e-8), 2)
        decomposition = find_clusters(corrected_measure(state, spec), allow_relabeling=True)
        assert set(decomposition.residual) == {"s", "o", "e1"}


@pytest.mark.parametrize("chi", [(1, 0), (0, 1), (1, 1e-10), (1, 1e-8), (0.6, 0.8j)])
@pytest.mark.parametrize("n_env", [2, 3])
def test_tolerance_edge_environments_decide_as_their_dense_twins(twin_checked, rng, chi, n_env):
    # The environments of TestToleranceEdges read in the other frame: in X
    # from the Z frame, in Z and X from the X frame, and ledgered there.
    env = env_labels(n_env)
    state, _ = corrected_setup(random_pair(rng), random_pair(rng), chi, n_env)
    x_frame = apply_script(state, [RotateBasis(e) for e in env])
    for basis, current in (("X", state), ("Z", x_frame), ("X", x_frame)):
        try:
            corrected_measure(current, MeasurementOutcomeSpec("s", "o", env, basis))
        except EnvironmentNotGHZError:
            pass
    try:
        ledger_record(CorrelationLedger(), x_frame, "x frame")
    except NotClusterNormalError:
        pass
    assert twin_checked


@pytest.mark.parametrize(
    "name, sizes, count",
    [
        ("env_reject", (8, 14, 20), 3),
        ("corrected_z", (8, 14, 20), 3),
        ("wide_branches", (8, 10, 12), 3),
        ("small_scripts", (5, 6, 7, 8), 8),  # cases 4-7 of each size run in X
    ],
)
def test_benchmark_cases_decide_as_their_dense_twins(twin_checked, name, sizes, count):
    workload = workloads.WORKLOADS[name]
    for n in sizes:
        for case in workload.make_cases(0, n)[:count]:
            for engine in workload.engines:
                try:
                    run(parse_scenario(case.text), engine=engine)
                except (RunError, ScenarioError):
                    pass
    # corrected_z never flags a qubit, so nothing there is twinned
    assert bool(twin_checked) == (name != "corrected_z")


ROTATED_GHZ_SO = (0.6, 0.8j), (1, 2)


class TestPastTheDenseLimit:
    """Checks and ledgers that read a GHZ environment in the other frame
    reject it from its stored amplitudes, at any size, with no dense vector."""

    @pytest.mark.parametrize("n", [20, 26, 30, 48])
    def test_x_measurement_of_a_z_frame_environment(self, no_dense_builds, n):
        env = env_labels(n - 2)
        state, _ = corrected_setup(*ROTATED_GHZ_SO, (1, 1j), n - 2)
        spec = MeasurementOutcomeSpec("s", "o", env, "X")
        message = f"environment subsystems {sorted(env)} carry no GHZ structure"
        with pytest.raises(EnvironmentNotGHZError) as info:
            corrected_measure(state, spec)
        assert str(info.value) == message
        check_frame = apply_script(state, [RotateBasis(lbl) for lbl in ("s", "o", *env)])
        assert find_clusters(check_frame).residual == env

    def test_z_ledger_and_measurement_of_an_x_frame_environment(self, no_dense_builds):
        env = env_labels(28)
        state, spec = corrected_setup(*ROTATED_GHZ_SO, (1, 1j), 28)
        state = apply_script(state, [RotateBasis(e) for e in env])
        with pytest.raises(NotClusterNormalError) as info:
            ledger_record(CorrelationLedger(), state, "before")
        assert str(info.value) == f"state has no ledger value: residual subsystems {env}"
        with pytest.raises(EnvironmentNotGHZError) as info:
            corrected_measure(state, spec)
        assert str(info.value) == f"environment subsystems {sorted(env)} carry no GHZ structure"


def script_matrix(script, register):
    """Dense matrix of a gate script: the last gate's matrix on the left."""
    total = np.eye(2 ** len(register), dtype=np.complex128)
    for op in script:
        total = gate_matrix(op, register) @ total
    return total


def rotated(script, operands):
    """Reference X form of a Z script: conjugated by the basis rotation on
    every operand (the form the X procedures ran before the identity)."""
    rotations = [RotateBasis(lbl) for lbl in operands]
    return rotations + list(script) + rotations


class TestXBasisIdentity:
    """(R⊗R)·imprint(a→b)·(R⊗R) = imprint(b→a): the X scripts are the Z
    scripts with each imprint reversed, checked against the rotated form."""

    def test_ideal_x_script_is_the_reversed_imprint(self):
        reg = Register(("s", "x", "o"))
        assert ideal_script("s", "o", "X") == [Imprint("o", "s")]
        reference = rotated(ideal_script("s", "o", "Z"), ("s", "o"))
        assert np.allclose(
            script_matrix(ideal_script("s", "o", "X"), reg),
            script_matrix(reference, reg),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n_env", [2, 3, 4, 5])
    def test_corrected_x_script_is_the_rotated_z_script(self, n_env):
        env = env_labels(n_env)
        reg = Register(("s", "o", *env))
        z_script = corrected_script(MeasurementOutcomeSpec("s", "o", env))
        x_script = corrected_script(MeasurementOutcomeSpec("s", "o", env, basis="X"))
        assert not any(isinstance(op, RotateBasis) for op in x_script)
        assert np.allclose(
            script_matrix(x_script, reg),
            script_matrix(rotated(z_script, reg.labels), reg),
            rtol=0.0,
            atol=1e-12,
        )

    def test_x_check_reads_all_operands_and_the_script_runs_unrotated(self, rng):
        z_state, _ = corrected_setup(random_pair(rng), random_pair(rng), random_pair(rng, 0.1), 3)
        frame = [RotateBasis(lbl) for lbl in ("s", "o", *env_labels(3))]
        spec = MeasurementOutcomeSpec("s", "o", env_labels(3), basis="X")
        scripts = []

        def recording(current, script):
            scripts.append(list(script))
            return apply_script(current, script)

        corrected_measure(apply_script(z_state, frame), spec, execute=recording)
        assert scripts == [frame, corrected_script(spec)]

    def test_x_rejection_names_the_entangled_signal(self, rng):
        # an X-frame GHZ over (s, e1, e2): the all-operand check frame sees
        # the signal in the environment's cluster
        ghz = apply_script(
            make_ghz(("s", "e1", "e2"), random_pair(rng, 0.1)),
            [RotateBasis(lbl) for lbl in ("s", "e1", "e2")],
        )
        state = tensor(ghz, product_state(("o", "e3"), [random_pair(rng), (1, 0)]))
        spec = MeasurementOutcomeSpec("s", "o", ("e1", "e2", "e3"), basis="X")
        with pytest.raises(
            EnvironmentNotGHZError, match=r"entangled with outside subsystems \['s'\]"
        ):
            corrected_measure(state, spec)


class TestIdealMeasure:
    def test_z_measure_correlates(self, rng):
        psi = random_pair(rng)
        state = product_state(("s", "o"), [psi, (1, 0)])
        out = ideal_measure(state, "s", "o", "Z")
        assert approx_eq(out, correlated_pair(("s", "o"), psi), 1e-12)

    def test_three_observer_chain(self, rng):
        psi = random_pair(rng)
        labels = ("s", "o1", "o2", "o3")
        state = product_state(labels, [psi, (1, 0), (1, 0), (1, 0)])
        for observer in ("o1", "o2", "o3"):
            state = ideal_measure(state, "s", observer, "Z")
        pn = normalized(psi)
        expected = np.zeros(16, dtype=complex)
        expected[0], expected[15] = pn[0], pn[1]
        assert approx_eq(state, PureState(Register(labels), expected), 1e-12)

    def test_repeatability(self, rng):
        psi = random_pair(rng)
        state = product_state(("s", "o1", "o2"), [psi, (1, 0), (1, 0)])
        state = ideal_measure(state, "s", "o1", "Z")
        state = ideal_measure(state, "s", "o2", "Z")
        for outcome in branch_decompose(state, "Z").outcomes().tolist():
            assert outcome[0] == outcome[1] == outcome[2]

    def test_x_measure_of_correlated_pair(self, rng):
        psi = random_pair(rng)
        pn = normalized(psi)
        state = tensor(correlated_pair(("s", "o1"), psi), product_state(("o2",), [(1, 1)]))
        out = ideal_measure(state, "s", "o2", "X")
        expected = from_branches(
            BranchSet(
                state.register,
                ("X", "Z", "X"),
                np.array([0b000, 0b010, 0b101, 0b111]),  # →↑→, →↓→, ←↑←, ←↓←
                np.array([pn[0], pn[1], pn[0], -pn[1]]) * INV_SQRT2,
            )
        )
        assert approx_eq(out, expected, 1e-12)
        assert approx_eq(out, oracle_apply(state, ideal_script("s", "o2", "X")), 1e-12)

    def test_rejects_unready_observer_z(self, rng):
        state = product_state(("s", "o"), [random_pair(rng), (0.6, 0.8)])
        with pytest.raises(ObserverNotReadyError, match="ready state"):
            ideal_measure(state, "s", "o", "Z")

    def test_rejects_unready_observer_x(self, rng):
        # |↑> is not the X-ready state |→>
        state = product_state(("s", "o"), [random_pair(rng), (1, 0)])
        with pytest.raises(ObserverNotReadyError):
            ideal_measure(state, "s", "o", "X")

    def test_entangled_observer_is_not_ready(self, rng):
        state = tensor(correlated_pair(("s", "o"), random_pair(rng, 0.1)), basis_state(("x",), "↑"))
        with pytest.raises(ObserverNotReadyError):
            ideal_measure(state, "x", "o", "Z")

    @pytest.mark.parametrize("n", range(6, 13))
    def test_dense_ready_check_reads_the_full_rotation(self, n, monkeypatch):
        # The off-ready norm equals, to the bit, the norm of the observer's ↓
        # half after rotating the whole vector: READY_TOL at that norm passes
        # and one ulp below it fails.
        gen = np.random.default_rng(n)
        labels = tuple(f"q{i}" for i in range(n))
        for _ in range(4):
            vec = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
            frame = int(gen.integers(0, 2**n))
            state = _framed(Register(labels), None, vec / np.linalg.norm(vec), frame)
            pos = int(gen.integers(0, n))
            for basis in ("Z", "X"):
                flagged = (frame >> (n - 1 - pos)) & 1
                rotated = state._values.copy()
                if flagged != (basis == "X"):
                    _rotate_axis(rotated, pos)
                off = float(np.linalg.norm(rotated.reshape(2**pos, 2, -1)[:, 1]))
                monkeypatch.setattr(protocol, "READY_TOL", off)
                check_ready(state, labels[pos], basis)
                monkeypatch.setattr(protocol, "READY_TOL", np.nextafter(off, 0.0))
                with pytest.raises(ObserverNotReadyError, match=f"by {off:.3e};"):
                    check_ready(state, labels[pos], basis)


class TestDifferentBasisScenario:
    def test_deterministic_signal_four_equal_branches(self):
        out = scenario_state("different_basis", (1, 0))
        assert approx_eq(
            out, scenario_state("different_basis", (1, 0), execute=oracle_apply), 1e-12
        )
        branches = branch_decompose(out, "X")
        got = dict(zip(branches.outcomes().tolist(), branches.amplitudes.tolist()))
        assert set(got) == {"→→→→", "→→←←", "←←→→", "←←←←"}
        for amplitude in got.values():
            assert abs(amplitude - 0.5) < 1e-12

    def test_plus_signal_keeps_only_agreement_branches(self):
        out = scenario_state("different_basis", (1, 1))
        assert approx_eq(
            out, scenario_state("different_basis", (1, 1), execute=oracle_apply), 1e-12
        )
        branches = branch_decompose(out, "X")
        got = dict(zip(branches.outcomes().tolist(), branches.amplitudes.tolist()))
        assert set(got) == {"→→→→", "←←←←"}
        for amplitude in got.values():
            assert abs(amplitude - INV_SQRT2) < 1e-12

    def test_minus_signal_keeps_only_disagreement_branches(self):
        out = scenario_state("different_basis", (1, -1))
        assert approx_eq(
            out, scenario_state("different_basis", (1, -1), execute=oracle_apply), 1e-12
        )
        got = set(branch_decompose(out, "X").outcomes().tolist())
        assert got == {"→→←←", "←←→→"}

    def test_generic_signal_amplitude_pattern(self, rng):
        psi = random_pair(rng)
        pn = normalized(psi)
        out = scenario_state("different_basis", psi)
        branches = branch_decompose(out, "X")
        got = dict(zip(branches.outcomes().tolist(), branches.amplitudes.tolist()))
        plus, minus = (pn[0] + pn[1]) / 2, (pn[0] - pn[1]) / 2
        expected = {"→→→→": plus, "←←←←": plus, "→→←←": minus, "←←→→": minus}
        for outcome, amplitude in expected.items():
            assert abs(got.get(outcome, 0.0) - amplitude) < 1e-12


class TestAppendixScenario:
    @staticmethod
    def record_basis(state):
        return {lbl: ("Z" if lbl.startswith("^") else "X") for lbl in state.register.labels}

    def test_single_record_deterministic_signal(self):
        out = scenario_state("record_recovery", (1, 0), 1)
        assert approx_eq(
            out, scenario_state("record_recovery", (1, 0), 1, execute=oracle_apply), 1e-12
        )
        branches = branch_decompose(out, self.record_basis(out))
        assert len(branches), "no branches survived"
        for outcome in branches.outcomes().tolist():
            assert outcome[branches.position("^1o1")] == "↑"

    def test_two_records_always_agree(self, rng):
        psi = random_pair(rng)
        out = scenario_state("record_recovery", psi, 2)
        assert approx_eq(
            out, scenario_state("record_recovery", psi, 2, execute=oracle_apply), 1e-12
        )
        branches = branch_decompose(out, self.record_basis(out))
        for outcome in branches.outcomes().tolist():
            assert outcome[branches.position("^1o1")] == outcome[branches.position("^2o1")]

    def test_branch_weights_follow_the_record(self):
        # record-ket expansion: |amplitude| is |psi_r| / 2 branch by branch
        psi = (1, 1)
        out = scenario_state("record_recovery", psi, 1)
        assert approx_eq(
            out, scenario_state("record_recovery", psi, 1, execute=oracle_apply), 1e-12
        )
        branches = branch_decompose(out, self.record_basis(out))
        assert len(branches) == 8
        for amplitude in branches.amplitudes.tolist():
            assert abs(abs(amplitude) - INV_SQRT2 / 2) < 1e-12

    def test_record_tracks_pre_rotation_value(self, rng):
        psi = random_pair(rng, 0.1)
        pn = normalized(psi)
        out = scenario_state("record_recovery", psi, 1)
        branches = branch_decompose(out, self.record_basis(out))
        for outcome, amplitude in zip(branches.outcomes().tolist(), branches.amplitudes.tolist()):
            record = outcome[branches.position("^1o1")]
            expected_mag = abs(pn[0]) / 2 if record == "↑" else abs(pn[1]) / 2
            assert abs(abs(amplitude) - expected_mag) < 1e-12
