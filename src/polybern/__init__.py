"""Exact degenerate poly-Bernoulli numbers, polynomials and identities.

Everything is computed over Q or Q[lambda] with arbitrary-precision
rationals; there is no floating point anywhere.

``import polybern`` imports no submodule: each exported name, and each
submodule read as an attribute (``polybern.families``), imports its module
on first use (PEP 562), so a CLI command loads only what it runs.
"""

import sys

# Each exported name -> its home module.
_HOMES = {
    **dict.fromkeys(("ConstantTermNotOne", "NonUnitLeadingCoefficient", "NonzeroConstantTerm",
                     "NonzeroInnerConstant", "NotDelta", "NotInvertible", "PolybernError",
                     "PrecisionExceeded", "UnknownIdentity"), "errors"),
    **dict.fromkeys(("DEFAULT_PRECISION", "FAMILY_IDS", "SequenceTable", "table", "polynomial",
                     "dpb_gf", "dpb_higher_gf", "elam", "polylog_series"), "families"),
    **dict.fromkeys(("CATALOG_IDS", "IdentityReport", "Witness", "verify"), "identities"),
    **dict.fromkeys(("eval_expr", "parse", "render"), "parser"),
    **dict.fromkeys(("Polynomial",), "polynomials"),
    **dict.fromkeys(("LAMBDA", "LambdaPoly", "Rational", "lambda_eval"), "ring"),
    **dict.fromkeys(("Series",), "series"),
    **dict.fromkeys(("invariant_integral", "op_apply", "pair"), "umbral"),
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = name if name in _HOMES.values() else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
