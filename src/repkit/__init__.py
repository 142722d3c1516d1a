"""Numerical representation theory of compact groups.

Compactness tests for Lie algebras via the trace scalar product, quadrature
realizations of the invariant integral on finite groups, the circle and su2,
unitarization by group averaging, commutant-based irreducibility analysis,
block decomposition, and the character orthogonality integrals.
"""

from . import linalg
from .builtin import (
    builtin_group,
    cyclic_group,
    cyclic_phase_rep,
    s3_irreps,
    s3_sign,
    s3_standard,
    s3_trivial,
    symmetric_group_3,
)
from .errors import (
    AlreadyIrreducibleError,
    DimensionMismatchError,
    EvaluationFailureError,
    GroupMismatchError,
    InputParseError,
    InvalidResolutionError,
    KindMismatchError,
    NonIntegerMultiplicityError,
    NotHermitianError,
    NotIrreducibleError,
    NotPositiveDefiniteError,
    NotSquareError,
    RepkitError,
    RuleMismatchError,
    ShapeMismatchError,
    SingularMatrixError,
    SpinOutOfRangeError,
)
from .groups import (
    AxiomAuditReport,
    CircleGroup,
    FiniteGroup,
    HaarRule,
    SU2Group,
    axiom_audit,
    enumerate_or_sample,
    haar_rule,
    identity,
    integrate_matrix,
    integrate_scalar,
    inverse,
    multiply,
)
from .lie_algebras import (
    LieAlgebraSpec,
    MatrixLieAlgebra,
    TraceFormReport,
    adjoint_matrix,
    bracket,
    su2_standard,
    theta_isometry,
    trace_form,
)
from .linalg import cholesky_hermitian, invert
from .loaders import load_algebra, load_group, load_representation
from .probes import standard_probes, standard_shifts
from .representations import (
    Character,
    CircleWeightRepresentation,
    ConjugatedRepresentation,
    DirectSumRepresentation,
    FiniteTableRepresentation,
    MatrixEntryProbe,
    Representation,
    SpinRepresentation,
    character,
    class_invariance_audit,
    conjugate,
    direct_sum,
    evaluate,
    homomorphism_audit,
    spin_irrep,
    unitarity_audit,
)
from .schur import (
    CommutantReport,
    DecompositionReport,
    averaged_intertwiner,
    character_inner,
    commutant,
    decompose,
    irreducibility_test,
    matrix_element_audit,
    multiplicity,
    orthogonality_audit,
    split_once,
    unitary_commutant,
)
from .unitarization import (
    HermitianForm,
    SpecialnessReport,
    UnitarizationResult,
    averaged_form,
    invariant_form_space,
    specialness_report,
    unitarize,
)

__version__ = "0.1.0"
