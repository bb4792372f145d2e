"""Numerics for spaces carrying two norms at once.

The package models C^n equipped with an ambient norm and a weighted inner
product whose norm it dominates, and implements the operator calculus this
situation induces: plus-adjoints, proper norms, oblique projections with
prescribed range and kernel, canonical plus-self-adjoint projections with
quantitative compatibility margins, contour-integral spectral projections,
superoperator models of matrix spaces under the trace norm, and truncation
studies tracking how the margins behave as the dimension grows.
"""

from .errors import *  # noqa: F401,F403
from .space import (  # noqa: F401
    GzReport,
    Operator,
    WeightedSpace,
    gz_bound_check,
    is_L_isometric,
    is_symmetrizable,
    make_space,
    opnorm,
    plus_adjoint,
    proper_norm,
    trace_opnorm_estimate,
)
from .subspaces import (  # noqa: F401
    CompanionReport,
    NullspacePlusReport,
    ProjPair,
    Subspace,
    complement_L,
    direct_sum_gap,
    finite_rank_proper_projection,
    gram_schmidt_L,
    is_proper_companion,
    max_principal_angle,
    nullspace_plus_check,
    oblique_projection,
    principal_angles,
    span,
    subspace_contained,
    subspace_equal,
)
from .compat import (  # noqa: F401
    BuckholtzReport,
    CompatReport,
    LemmaReport,
    algebraic_lemma_check,
    buckholtz_verify,
    c_operator,
    companion_metric,
    companion_transport,
    compat_margin,
    compat_projection,
    krein_check,
)
from .spectra import (  # noqa: F401
    RieszDiagnostics,
    SpectrumReport,
    VVPlusReport,
    riesz_projection,
    spectrum,
    vvplus_diagnostics,
)
from .schatten import (  # noqa: F401
    AdzNormReport,
    CqReport,
    MatrixSpaceModel,
    SylvesterResult,
    TwoCompanionsReport,
    ZCriterionReport,
    adz_norm_check,
    block_idempotent,
    cq_compat_demo,
    left_mult,
    matrix_space,
    right_mult,
    sandwich,
    sylvester,
    two_companions_demo,
    two_sided_mult,
    unvec,
    vec,
    z_criterion_margin,
)
from .studies import (  # noqa: F401
    StudyRow,
    diverging_vector_study,
    emit_rows,
    symmetry_truncation_study,
)

__version__ = "0.1.0"
