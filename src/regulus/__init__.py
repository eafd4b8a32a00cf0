"""Exact regularity checks for closed points on affine and arithmetic
varieties, with residue-field towers, generalized derivative matrices, and
base-change verdicts."""

from .criteria import (
    BaseChangeVerdict,
    PresentedVariety,
    RegularityReport,
    SpecialFiberReport,
    arithmetic_jacobian,
    base_change_verdict,
    check_arithmetic,
    check_geometric,
    check_point,
    default_dimension,
    generalized_jacobian,
    special_fiber_verdict,
    validate_point,
)
from .errors import (
    DimensionMismatch,
    EmptyVariety,
    GeneratorsNotIndependent,
    IdealNotMaximal,
    InternalConsistencyError,
    InvalidPoint,
    JobFileError,
    OracleResourceError,
    PointNotOnVariety,
    PointNotRegular,
    PolySyntaxError,
    RegulusError,
)
from .groebner import groebner_basis, ideal_dimension, leading_term, normal_form, order_key
from .jobfile import Job, parse_job, run_job
from .linalg import FieldMatrix
from .oracle import cotangent_dimension
from .poly import (
    MultiPoly,
    TriangularPoint,
    membership_certificate,
    parse_poly,
    partial_derivative,
    triangular_divide,
)
from .rings import QQ, ZZ, Fraction, PrimeField, Rational
from .tower import ResidueTower, TowerElem, residue_field, tower_invert, tower_reduce

__version__ = "0.1.0"

__all__ = [
    "BaseChangeVerdict",
    "DimensionMismatch",
    "EmptyVariety",
    "FieldMatrix",
    "Fraction",
    "GeneratorsNotIndependent",
    "IdealNotMaximal",
    "InternalConsistencyError",
    "InvalidPoint",
    "Job",
    "JobFileError",
    "MultiPoly",
    "OracleResourceError",
    "PointNotOnVariety",
    "PointNotRegular",
    "PolySyntaxError",
    "PresentedVariety",
    "PrimeField",
    "QQ",
    "Rational",
    "RegularityReport",
    "RegulusError",
    "ResidueTower",
    "SpecialFiberReport",
    "TowerElem",
    "TriangularPoint",
    "ZZ",
    "arithmetic_jacobian",
    "base_change_verdict",
    "check_arithmetic",
    "check_geometric",
    "check_point",
    "cotangent_dimension",
    "default_dimension",
    "generalized_jacobian",
    "groebner_basis",
    "ideal_dimension",
    "leading_term",
    "membership_certificate",
    "normal_form",
    "order_key",
    "parse_job",
    "parse_poly",
    "partial_derivative",
    "residue_field",
    "run_job",
    "special_fiber_verdict",
    "tower_invert",
    "tower_reduce",
    "triangular_divide",
    "validate_point",
]
