"""Matrix-valued positive definite functions on finite groups.

Convolution *-algebra, positive definiteness certification, spectral
and iterative convolution square roots, and executable theorem suites.
Spectral work is done block by block in a Fourier basis of the group
(see fourier), which keeps groups of a few hundred elements, such as S5
and its products, at millisecond cost for small matrix dimension.
"""

from .groups import (
    GroupTable,
    ValidationReport,
    Violation,
    build_cyclic,
    build_dihedral,
    build_klein,
    build_quaternion,
    build_symmetric,
    build_trivial,
    canonical_spec,
    direct_product,
    group_from_json,
    group_to_json,
    is_abelian,
    parse_group_spec,
    validate_group,
)
from .matfun import (
    MatFun,
    VecFun,
    add,
    conjugate,
    convolve,
    convolve_vec,
    delta_identity,
    inner,
    l1_norm,
    l2_norm,
    make_pd,
    matfun_from_json,
    matfun_to_json,
    random_matfun,
    random_vecfun,
    scale,
    star,
    subtract,
    zero_matfun,
)
from .operators import (
    ConvMatrix,
    EquivarianceError,
    NotPositiveDefiniteError,
    PDCertificate,
    SpectralDecomposition,
    conv_matrix,
    decompose,
    extract_kernel,
    gram_pd_check,
    hermitian_symmetry_residual,
    is_positive_definite,
    operator_norm,
    pd_order_leq,
    right_translation_matrix,
    spectral_truncate,
    translation_commutant_residual,
    translation_equivariance_residual,
)
from .reps import (
    UnitaryRep,
    check_tensor_nonneg,
    homomorphism_residual,
    matrix_coeff_fun,
    regular_rep,
    rep_to_json,
    tensor_product,
    trivial_rep,
    unitarity_residual,
)
from .roots import (
    ConvergenceError,
    PolySpec,
    SqrtResult,
    poly_apply,
    sqrt_iterative,
    sqrt_spectral,
    truncation_sequence,
)
from .theorems import (
    SpectrumSplitError,
    SuiteConfig,
    TheoremReport,
    build_orthogonal_pd_pair,
    check_inner_trace,
    check_theorem_a,
    check_theorem_b,
    check_theorem_c,
    run_suite,
)

__version__ = "0.1.0"
