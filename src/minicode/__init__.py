"""minicode: linear codes over F_q built from q-ary functions.

Construct defining-set codes C(D) and the function codes C_f, compute exact
weight distributions, decide minimality by four criteria (definition,
weight-ratio, weight-identity, rank), validate construction-theorem
hypotheses for four function families, and generate/verify per-class
witness certificates.
"""

from .code import (
    CodeParams,
    DefiningSet,
    WeightEnumerator,
    codeword,
    defining_set,
    generator_matrix,
    linearity_check,
    params,
    read_defining_set,
    weight_distribution,
    write_defining_set,
)
from .errors import (
    BudgetExceededError,
    CertificateFormatError,
    ConstructionError,
    GuardError,
)
from .families import (
    ComplementThreshold,
    FunctionSpec,
    MaioranaMcFarland,
    MonomialSum,
    Preset,
    TableFunction,
    TheoremId,
    ValidationResult,
    WeightThreshold,
    get_preset,
    monomial_support,
    paper_presets,
    read_function,
    validate_hypotheses,
    write_function,
)
from .gf import FieldSpec, field_by_order, make_field
from .linalg import covers, dot, support, weight
from .minimality import (
    Certificate,
    CoverViolation,
    DhzViolation,
    MinimalityReport,
    Witness,
    ab_condition,
    cf_case_check,
    dhz_criterion,
    is_minimal_definition,
    rank_criterion_code,
    rank_criterion_codeword,
    read_certificate,
    verify_certificate,
    write_certificate,
)
from .witness import WitnessBasis, theorem_witness, witness_certificate

__version__ = "0.1.0"
