"""qmeasure: state-vector simulation of fully unitary quantum measurement.

Measurement is modeled as reversible dynamics on labeled qubit registers:
an imprint gate copies a signal's value onto another subsystem, swaps move
states around, and a GHZ-correlated environment supplies the redundancy
needed to correct the environment's influence and leave signal and observer
perfectly correlated.  Analysis tools decompose states into correlated
clusters, track the integer correlation resource through a procedure, and
report whether independent observers agree about a signal.
"""
from .analysis import (
    AgreementReport,
    ClusterDecomposition,
    CorrelationCluster,
    CorrelationLedger,
    NotClusterNormalError,
    agreement,
    cluster_measure,
    find_clusters,
    ledger_record,
    recover_record,
    total_measure,
)
from .gates import (
    GateOp,
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
from .oracle import ORACLE_MAX_QUBITS, gate_matrix, oracle_apply
from .protocol import (
    EnvironmentNotGHZError,
    MeasurementOutcomeSpec,
    ObserverNotReadyError,
    corrected_measure,
    corrected_script,
    ideal_measure,
    ideal_script,
    uncorrected_measure,
    uncorrected_script,
)
from .runner import Report, RunError, Section, run
from .scenario import Scenario, ScenarioError, parse_scenario
from .statevec import (
    DENSE_MAX_QUBITS,
    BasisChoice,
    BranchSet,
    DenseLimitError,
    PureState,
    Register,
    approx_eq,
    basis_state,
    branch_decompose,
    from_branches,
    make_ghz,
    normalize_basis,
    product_state,
    tensor,
)

__version__ = "0.1.0"
