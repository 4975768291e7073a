"""Exact certification of Galois-module freeness for the quartic fields
Q(sqrt(pq), sqrt(-d)), built on integer-only quadratic field arithmetic.

The package certifies sufficient hypotheses (class numbers prime to p,
local unit tests, tower place counts); it never claims non-freeness.
"""

from ._version import __version__
from .arith import Factorization, factor, is_prime, kronecker, mult_order
from .classno import ClassNumberResult, h_imaginary, h_plus_real
from .criteria import (
    CERTIFIED_FREE,
    NOT_CERTIFIED,
    FreenessReport,
    PRationalityReport,
    certify_freeness,
    judge,
    prat_biquad,
    prat_imag,
    prat_real,
)
from .localfield import classify_splitting, is_pth_power_local, tower_places
from .quadratic import FundUnit, QuadElem, QuadField, fundamental_unit, make_field
from .scan import TableRow, reproduce_table, scan_q, scan_records

__all__ = [
    "CERTIFIED_FREE",
    "NOT_CERTIFIED",
    "ClassNumberResult",
    "Factorization",
    "FreenessReport",
    "FundUnit",
    "PRationalityReport",
    "QuadElem",
    "QuadField",
    "TableRow",
    "__version__",
    "certify_freeness",
    "classify_splitting",
    "factor",
    "fundamental_unit",
    "h_imaginary",
    "h_plus_real",
    "is_prime",
    "is_pth_power_local",
    "judge",
    "kronecker",
    "make_field",
    "mult_order",
    "prat_biquad",
    "prat_imag",
    "prat_real",
    "reproduce_table",
    "scan_q",
    "scan_records",
    "tower_places",
]
