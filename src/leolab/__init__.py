"""Leakage elimination toolkit.

Build codes, classify couplings into logical, outside, and leakage parts,
synthesize parity-kick pulses whose action is -1 on the code and +1 on its
complement, and simulate how pulsed evolution suppresses leakage relative
to free evolution.
"""

from types import ModuleType as _ModuleType

from .classify import (
    CLASS_LEAKAGE,
    CLASS_LOGICAL,
    CLASS_MIXED,
    CLASS_OUTSIDE,
    BlockDecomposition,
    PauliClassification,
    classification_to_csv,
    classify_pauli_strings,
    decompose,
)
from .codes import (
    CodeSubspace,
    SpinSector,
    SpinSectorDecomposition,
    bare_qubit_code,
    build_code,
    code_labels,
    dfs2_dephasing,
    dfs3_collective,
    dfs4_collective,
    dual_rail_code,
    lift_quadratic,
    s_squared,
    spin_multiplicity,
    spin_sector_decomposition,
    two_photon_occupations,
)
from .dynamics import (
    ParityKickSchedule,
    SimulationReport,
    SimulationSample,
    SweepRow,
    SweepTable,
    decoupled_limit_unitary,
    parity_kick_unitary,
    simulate,
    sweep_cycles,
)
from .leo import (
    ROUTES,
    LeakageEliminationOperator,
    LeoVerification,
    NotGeneralizedGeneratorError,
    NotLogicalInvolutionError,
    ProbeCheck,
    canonical_leo,
    exchange_dfs2_leo,
    extract_phase,
    generalized_leo,
    leo_from_json,
    leo_to_json,
    number_operator_leo,
    phase_shifter_leo,
    projector_leo,
    random_probes,
    reference_reflection,
    s_squared_leo,
    synthesize,
    verify_leo,
)
from .models import (
    LogicalOps,
    SystemBathModel,
    dfs2_leakage_model,
    hopping_model,
    linear_optics_model,
    logical_ops_dfs2,
    model_from_config,
)
from .opalg import (
    DimensionMismatchError,
    NumericalDegeneracyError,
    Operator,
    derived_seeds,
    hermitian_exponential,
    operator_from_json,
    operator_to_json,
    pauli_string,
    random_hermitian,
)

__version__ = "0.1.0"

# every name the imports above bound, less the submodules they bound too
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
