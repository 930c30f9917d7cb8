"""Exact degenerate poly-Bernoulli numbers, polynomials and identities.

Everything is computed over Q or Q[lambda] with arbitrary-precision
rationals; there is no floating point anywhere.
"""

from .errors import (
    ConstantTermNotOne,
    NonUnitLeadingCoefficient,
    NonzeroConstantTerm,
    NonzeroInnerConstant,
    NotDelta,
    NotInvertible,
    PolybernError,
    PrecisionExceeded,
    UnknownIdentity,
)
from .families import (
    DEFAULT_PRECISION,
    FAMILY_IDS,
    SequenceTable,
    dpb_gf,
    dpb_higher_gf,
    elam,
    polylog_series,
    polynomial,
    table,
)
from .identities import CATALOG_IDS, IdentityReport, Witness, verify
from .parser import eval_expr, parse, render
from .polynomials import Polynomial
from .ring import LAMBDA, LambdaPoly, Rational, lambda_eval
from .series import Series
from .umbral import invariant_integral, op_apply, pair

__all__ = [
    "ConstantTermNotOne", "NonUnitLeadingCoefficient", "NonzeroConstantTerm",
    "NonzeroInnerConstant", "NotDelta", "NotInvertible", "PolybernError",
    "PrecisionExceeded", "UnknownIdentity",
    "DEFAULT_PRECISION", "FAMILY_IDS", "SequenceTable", "table", "polynomial",
    "dpb_gf", "dpb_higher_gf", "elam", "polylog_series",
    "CATALOG_IDS", "IdentityReport", "Witness", "verify",
    "eval_expr", "parse", "render",
    "Polynomial", "LAMBDA", "LambdaPoly", "Rational", "lambda_eval", "Series",
    "invariant_integral", "op_apply", "pair",
]

__version__ = "0.1.0"
