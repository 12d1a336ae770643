"""Optimal-cloning target states, MPS bond compression, and sequential
synthesis under restricted ancilla-qubit interactions."""

from .cloning import (
    GMSpec,
    KET_ONE,
    KET_PLUS,
    KET_ZERO,
    PureQubit,
    clone_fidelities,
    clone_fidelity_oracle,
    gm_chain,
    gm_coefficients,
    gm_mps,
    gm_state,
)
from .compression import (
    FidelityReport,
    METHOD_SVD,
    METHOD_VARIATIONAL,
    METHOD_VARIATIONAL_SEEDED,
    fidelity,
    regularization_scan,
    svd_truncate_mps,
    variational_compress,
)
from .errors import (
    CanonicalFormError,
    NumericalFailure,
    ResourceLimitError,
    StructureError,
)
from .linalg import (
    SVDResult,
    complete_to_unitary,
    svd,
    truncate_rank,
)
from .mps import (
    MatrixProductState,
    extract_isometries,
    from_statevector,
    overlap,
    to_statevector,
)
from .sequential import (
    CouplingSchedule,
    StepCoupling,
    SynthesisResult,
    optimize_schedule,
    sequential_generate,
    xxz_hamiltonian,
)

__version__ = "0.1.0"
