"""opjensen: numerical verification of Jensen-type trace inequalities for
partial traces, positive maps, and states on finite-dimensional operator
algebras."""

from .convex_catalog import ScalarFunction, check_operator_convex, get_function
from .errors import (
    BoundaryAmbiguityError,
    ConvexityError,
    DimensionError,
    DomainError,
    HypothesisError,
    NonHermitianError,
    NumericError,
    OpJensenError,
    PartitionError,
    UnknownFunctionError,
    UsageError,
)
from .intervals import Interval
from .jensen_checks import (
    ablation_search,
    check_cfl,
    check_hansen_pedersen,
    check_main_tracial,
    check_partial_trace_duality,
    check_petz,
    check_pinching_chain,
    check_spectral_preorder_lemma,
    check_state_version,
    check_vector_jensen,
    generate_trial,
    replay_report,
    run_trial,
)
from .linalg_core import (
    DEFAULT_TOL,
    SpectralDecomposition,
    ToleranceConfig,
    hermitian_eig,
    hermitian_eigvals,
    kron,
    matrix_function,
    rng_stream,
)
from .harness_cli import CampaignConfig, cli_entry, default_campaign, run_campaign
from .positive_maps import PositiveMap, apply_map, random_positive_map, slice_compress_map
from .reporting import CheckReport
from .spectral_tools import (
    StepFunction,
    jordan_split,
    kaplansky_verify,
    monotone_sign_split,
    pinching,
    singular_value_function,
    spectral_projection,
)
from .tensor_ops import (
    BlockAlgebra,
    TensorSpace,
    conjugate_compress,
    slice_map,
)

__version__ = "0.1.0"
