"""Exact test ideals over F_p and the toric non-nef laboratory."""

from .caps import Caps, DEFAULT_CAPS
from .errors import ContractError, DomainError, NonnefError, ResourceLimitError
from .field import PrimeField
from .frobenius import (CeilSplit, JumpReport, Plateau,
                        TestIdealResult, ceil_split, f_jumping_numbers,
                        frobenius_power, frobenius_root, mixed_test_ideal,
                        test_ideal)
from .ideal import (Ideal, groebner_basis, ideal_contains, ideal_equal,
                    ideal_power, ideal_product, ideal_sum, monomial_ideal,
                    unit_ideal, zero_ideal)
from .parsing import format_ideal, format_rational, parse_ideal, parse_poly, parse_rational
from .poly import Polynomial, Ring, ring

__all__ = [
    "Caps", "DEFAULT_CAPS",
    "ContractError", "DomainError", "NonnefError", "ResourceLimitError",
    "PrimeField", "Polynomial", "Ring", "ring",
    "Ideal", "monomial_ideal", "unit_ideal", "zero_ideal",
    "ideal_power", "ideal_product", "ideal_sum", "ideal_contains",
    "ideal_equal", "groebner_basis",
    "TestIdealResult", "JumpReport", "Plateau", "CeilSplit",
    "frobenius_power", "frobenius_root", "test_ideal", "mixed_test_ideal",
    "f_jumping_numbers", "ceil_split",
    "parse_ideal", "format_ideal", "parse_poly", "parse_rational", "format_rational",
]

__version__ = "0.1.0"
