"""Evaluation-code parameters on Jacobians of genus-2 curves over small
finite fields, certified by brute-force oracles."""

from .bounds import (
    Branch,
    CodeReport,
    code_params,
    distance_threshold,
    support_bound,
    weil_type_point_bound,
)
from .curves import CurveModel, PointCount, count_points, validate_curve
from .explore import SearchSpace, TableRow, analyze_curve, best_codes
from .fields import (
    FieldEmbedding,
    FiniteField,
    default_modulus,
    extend_field,
    field_from_order,
    make_field,
    prime_power,
)
from .mumford import (
    IDENTITY,
    MumfordDivisor,
    TranslateExperiment,
    cantor_add,
    check_divisor,
    enumerate_jacobian,
    in_theta,
    negate,
    scalar_mul,
    theta_set,
    translate_support_count,
    zero_sum_tuples,
)
from .weil import (
    SimplicityVerdict,
    Verdict,
    WeilData,
    classify_simplicity,
    jacobian_order,
    serre_constant,
    weil_from_counts,
)

__version__ = "0.1.0"
