"""Shared error types.

Guard errors mark inputs that exceed a configured size or operation budget;
the CLI maps them to its usage/guard exit code, distinct from a negative
minimality verdict.
"""

from __future__ import annotations


class GuardError(ValueError):
    """A size guard was exceeded; the computation was refused, not attempted."""


class BudgetExceededError(GuardError):
    """The elementary-operation budget was exceeded (report, never partially answer)."""


class CertificateFormatError(ValueError):
    """A certificate file is structurally malformed (not merely invalid)."""


class ConstructionError(RuntimeError):
    """An internally-verified witness construction failed its post-condition."""


def construction_bug(msg: str) -> ConstructionError:
    """The error for a witness construction that failed its own post-condition."""
    return ConstructionError(f"witness construction bug: {msg}")
