"""Exception hierarchy shared by all modules.

DomainError / ContractError map to CLI exit code 1, ResourceLimitError to
exit code 2.  Everything else is a plain bug.
"""


class NonnefError(Exception):
    """Base class for all library errors."""


class DomainError(NonnefError):
    """Input outside the mathematical domain of an operation (e.g. the zero
    ideal where a nonzero one is required, a non-pseudo-effective divisor
    passed to sigma)."""


class ContractError(NonnefError):
    """A structural invariant was violated: ambient ring mismatch, a table
    that fails superadditivity, a fan that is not smooth/complete, or an
    internal cross-check (method disagreement) that is guaranteed by a
    theorem and therefore indicates an implementation bug."""


class ResourceLimitError(NonnefError):
    """A configurable cap (Groebner pair count, power degree, the tau level
    of the non-nef cross-check) was exceeded.

    Distinct from the evidence='cap-reached' flag on chain results, which is
    an honest partial answer rather than an abort.
    """


def require_int(value, name: str, least: int = 1) -> int:
    """value if it is an int (not a bool) >= least; otherwise a DomainError
    that names the argument."""
    if type(value) is not int or value < least:
        wanted = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise DomainError(f"{name} must be {wanted}, got {value!r}")
    return value
