"""loewner-lab: operator means, positive linear maps, and monotone function
calculus on positive definite matrices, with randomized certificate suites
that verify, hunt, and probe a family of mean-reversal inequalities."""

from .certificates import (
    ALL_INEQUALITIES,
    AUDIT_INEQUALITIES,
    NON_AUDIT_INEQUALITIES,
    ROWS,
    Certificate,
    check_stack,
)
from .errors import (
    ConditionCapError,
    DimensionMismatchError,
    DomainError,
    EigenSolverError,
    HypothesisError,
    LoewnerLabError,
    NotPositiveDefiniteError,
    NotUnitalError,
)
from .generate import (
    BoundedPair,
    SandwichPair,
    SplitMix64,
    derive_seed,
    estimate_sandwich,
    random_orthogonal,
    random_spd,
)
from .kernels import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    LOG1P,
    LOGARITHMIC,
    SQUARE,
    MonotoneFunction,
    ScalarKernel,
    default_grid,
    eval_kernel,
    heinz,
    inv_power,
    is_symmetric_kernel,
    kernel_catalog,
    kernel_dominance,
    loewner_matrix_psd_test,
    parse_function,
    parse_kernel,
    power,
    rational,
    sandwich_constant,
    shifted_inverse,
    specht_ratio,
)
from .maps import (
    CongruenceMap,
    IdentityMap,
    KrausSumMap,
    MapSpec,
    MixtureMap,
    NormalizedTraceMap,
    PinchingMap,
    check_unital,
    parse_map,
)
from .means import MeanContext, arithmetic, geometric, harmonic, kernel_mean, mean
from .spectral import (
    FROBENIUS,
    OPERATOR,
    TRACE,
    LoewnerVerdict,
    NormKind,
    SpectralDecomposition,
    SymStack,
    decompose,
    ky_fan,
    loewner_compare,
    loewner_slack,
    matrix_function,
    op_norm,
    parse_norm,
    schatten,
    spectrum_bounds,
    ui_norm,
)
from .suite import (
    Report,
    SuiteConfig,
    hunt_counterexamples,
    load_report,
    probe_tightness,
    recheck,
    run_suite,
    write_report,
)

__version__ = "0.1.0"
