"""Exact operator calculus over generalized integer sequences.

Everything is computed in exact rational arithmetic on degree-bounded
polynomial spaces: admissible weight families, degree-lowering operators
and their duals, basic and prefactored (Sheffer-type) sequence tables,
expansion of arbitrary operators over a lowering operator, diagonal
pairings and index operators, and a cross-family identity harness.
"""

from .errors import (
    BadModulusError,
    BadParameterError,
    BasisMismatchError,
    DegenerateFamilyError,
    DegreeOverflowError,
    IndexOrderError,
    NotDegreeLoweringError,
    NotDeltaError,
    NotInvertibleError,
    SingularOperatorError,
    UmbralError,
    UndefinedIndexError,
    WrongFamilyError,
)
from .poly import ONE, Polynomial, SequenceTable, X, ZERO, coordinates_in_table, parse_polynomial
from .psi import AdmissibleSequence
from .series import DeltaSeries
from .operators import (
    OperatorMatrix,
    apply_delta_series,
    commutator,
    detect_psi_form,
    dilation,
    divided_difference,
    dual_operator,
    expand_in_dual_pair,
    forward_difference,
    generalized_shift,
    identity_operator,
    indicator,
    jackson_operator,
    lowering_failures,
    multiplication_x,
    nhat_diagonal,
    operator_polynomial,
    psi_derivative,
    realize_delta_series,
    table_conjugate,
    umbral_operator,
    xhat_psi,
    zero_operator,
)
from .sequences import (
    BasicSequence,
    ShefferSequence,
    addition_rule_failure,
    appell_sequence,
    basic_sequence,
    basic_sequence_from_series,
    closed_form_routes,
    generating_function_failures,
    inverse_reconstruction_failures,
    sheffer_sequence,
    verify_binomial_type,
    verify_sheffer_binomial,
)
from .integration import IntegralOperator, right_inverse_failures
from .star import StarContext, poisson_psi_polynomials, star_power, star_product
from .spectral import (
    conjugation_transport_failures,
    inner_product,
    orthogonality_failures,
    qhat_operator,
    spectral_operator,
)
from .harness import (
    IdentityReport,
    SUITES,
    exit_status,
    render_json,
    render_text,
    run_all,
    run_suites,
    summarize,
)

__version__ = "0.1.0"
