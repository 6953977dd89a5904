"""Koopman-spectrum computation and nonlinear PDE / graphon identification
from snapshot data.

The package simulates dictionary-defined 1-D dynamics, fits a
finite-dimensional approximation of the composition (Koopman) operator on a
basis of observable functionals, extracts its spectrum, and identifies
governing-equation coefficients through the principal matrix logarithm of the
fitted operator.
"""

from .errors import (
    BlowUpError,
    BranchCutError,
    IllConditionedWarning,
    InsufficientDataError,
    InvalidInputError,
    KoopidError,
    PreconditionError,
    RankDeficiencyError,
    RankDeficiencyWarning,
)
from .fields import Grid1D
from .identify import (
    ConvergenceReport,
    IdentificationResult,
    direct_identify,
    lifting_identify,
    true_coefficients,
    ts_convergence_study,
)
from .koopman import (
    KoopmanFit,
    SpectrumResult,
    build_data_matrices,
    edmd_fit,
    spectrum,
)
from .linalg import EigenDecomposition, eig, expm, logm, pinv
from .observables import (
    Bump,
    FunctionalSpec,
    InnerProductPower,
    LiftedTerm,
    PointEvaluation,
    PowerLaw,
    WeightSpec,
    build_burgers_basis,
    build_lifting_basis,
    functional_values,
)
from .operators import (
    Dictionary,
    GraphonKernel,
    MonomialDerivative,
    RhsPlan,
    TermSpec,
    rhs_values,
)
from .simulate import (
    BUILTIN_MODELS,
    EXPERIMENT_DEFAULTS,
    ICFamily,
    Model,
    SnapshotDataset,
    burgers_model,
    generate_pairs,
    graphon_model,
    integrate,
    pde1_model,
)

__version__ = "0.1.0"
