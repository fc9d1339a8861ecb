"""Finite-dimensional dynamical systems over matrix algebras.

Classification of ergodicity and mixing through GNS spectra, joinings on
the tangent space of the product state with rank verdicts and certified
optima, and an exact combinatorial engine for group-algebra dual systems.
"""

from .algebra import (
    AlgebraElement,
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
    ValidationReport,
    apply_automorphism,
    cyclic_rotation_system,
    identity_automorphism,
    identity_system,
    single_block_system,
    state_eval,
    uniform_state,
    validate_system,
)
from .gns import (
    Classification,
    GnsSpace,
    MirrorSystem,
    ModularData,
    PointSpectrumEntry,
    asymptotic_abelianness_profile,
    cesaro_correlation,
    classify_finite,
    compactness_net,
    eigenoperator,
    fixed_point_algebra,
    gns_construct,
    mirror_system,
    modular_data,
    modular_invariance_check,
    point_spectrum,
    point_spectrum_overlap,
    spectral_atoms,
    spectral_interval_projection,
    verify_spectral_covariance,
)
from .joinings import (
    DisjointnessCertificate,
    JoiningMatrix,
    SolveReport,
    TensorContext,
    build_tensor_context,
    cesaro_diagonal_average,
    conditional_expectation,
    diagonal_state,
    disjointness_test,
    find_joining,
    graph_joining,
    joining_face_dimension,
    joining_residuals,
    mirror_context,
    ornstein_ratio_scan,
    product_joining,
    scan_compact_disjointness,
)
from .dual import (
    CorrelationSeries,
    DualClassification,
    DualSystem,
    FinPerm,
    OrbitCertificate,
    QQi,
    Track,
    TrackSpec,
    classify_dual,
    correlation_series,
    delta_n_eval,
    finite_orbit_subsystem,
    opposite_group_joining,
    ornstein_scan_dual,
    parse_word,
    word_inverse,
    word_multiply,
)

__version__ = "0.1.0"
