"""Core domain types shared by the tail engines and the bound solver."""

from __future__ import annotations

import decimal
import enum
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Union

Probability = Union[Fraction, Decimal, float, str]

# Exponent range for all decimal contexts.  Tail terms far from the bound
# can be as small as exp(-s * KL); +-10**12 leaves room for samples far
# beyond anything the CLI accepts, while staying within libmpdec limits.
_EMAX = 10**12
_EMIN = -(10**12)


class DomainError(ValueError):
    """An argument violates the documented domain of an operation."""


class OracleLimitError(DomainError):
    """Exact-rational oracle asked to handle a population above its size guard."""


class PrecisionInfeasibleError(ArithmeticError):
    """The requested digit count cannot resolve the truncation threshold."""


class StructuralZeroError(ArithmeticError):
    """Log of a structurally zero probability was requested."""


class TailEngine(enum.Enum):
    """Strategy used to evaluate hypergeometric tails."""

    DIRECT = "direct"
    STIRLING = "stirling"
    EXACT = "exact"

    def __str__(self) -> str:
        return self.value


def as_fraction(value: Probability) -> Fraction:
    """Convert a probability-like value to an exact Fraction.

    Floats go through their shortest decimal repr, so 0.05 means 1/20
    rather than the nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, float) or isinstance(value, str):
        try:
            return Fraction(Decimal(str(value)))
        except (decimal.InvalidOperation, ValueError, OverflowError):
            raise DomainError(f"not a valid probability: {value!r}") from None
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"not a valid probability: {value!r}")


@dataclass(frozen=True)
class QueryInstance:
    """One bound query: population n, sample s, observed successes k, failure budget delta."""

    n: int
    s: int
    k: int
    delta: Fraction

    def __init__(self, n: int, s: int, k: int, delta: Probability):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "s", int(s))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "delta", as_fraction(delta))
        if self.n < 1:
            raise DomainError(f"population size must be >= 1, got {self.n}")
        if not 1 <= self.s <= self.n:
            raise DomainError(f"sample size must satisfy 1 <= s <= n, got s={self.s}, n={self.n}")
        if not 0 <= self.k <= self.s:
            raise DomainError(f"successes must satisfy 0 <= k <= s, got k={self.k}, s={self.s}")
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must lie strictly in (0, 1), got {self.delta}")


@lru_cache(maxsize=None)
def decimal_context(digits: int) -> decimal.Context:
    """Shared decimal context at the given precision (copied by localcontext on use)."""
    return decimal.Context(prec=digits, Emax=_EMAX, Emin=_EMIN)


@dataclass(frozen=True)
class PrecisionContext:
    """Arithmetic contract for a tail evaluation.

    digits            decimal significant digits for every operation
    abs_error_target  absolute error allowed in one tail value
    trunc_threshold   terms below this are dropped from the sum
    """

    digits: int
    abs_error_target: Decimal
    trunc_threshold: Decimal

    def __post_init__(self):
        if self.digits < 16:
            raise DomainError(f"precision must be at least 16 digits, got {self.digits}")
        if not self.abs_error_target > 0:
            raise DomainError("abs_error_target must be positive")
        if not 0 < self.trunc_threshold <= self.abs_error_target:
            raise DomainError("trunc_threshold must lie in (0, abs_error_target]")

    @property
    def context(self) -> decimal.Context:
        return decimal_context(self.digits)

    @classmethod
    def for_terms(cls, digits: int, terms: int) -> "PrecisionContext":
        """Context for a bare tail evaluation summing up to `terms` terms.

        Leaves 8 digits between the roundoff floor and the error target, and
        splits the target across the terms for truncation.
        """
        if digits < 16:
            raise DomainError(f"precision must be at least 16 digits, got {digits}")
        with decimal.localcontext(decimal_context(digits)):
            target = Decimal(1).scaleb(8 - digits)
            threshold = target / (10 * max(1, terms))
        return cls(digits=digits, abs_error_target=target, trunc_threshold=threshold)


@dataclass(frozen=True)
class BoundResult:
    """A computed bound with its certificate.

    For side "upper", tail_at_m_hat is the computed left tail at m_hat and
    tail_at_m_hat_plus_1 the one at m_hat + 1; they straddle delta_used.
    For side "lower" the fields hold the right tails at m_hat and at
    m_hat - 1 (the straddle partner below the bound), which equal the left
    tails of the dual search at n - m_hat and n - m_hat + 1.
    """

    m_hat: int
    side: str
    delta_used: Fraction
    engine: TailEngine
    tail_at_m_hat: "Decimal | Fraction"
    tail_at_m_hat_plus_1: "Decimal | Fraction"
    iterations: int

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise DomainError(f"side must be 'upper' or 'lower', got {self.side!r}")
        if self.m_hat < 0:
            raise DomainError(f"bound must be a count, got {self.m_hat}")
        if self.iterations < 0:
            raise DomainError("iteration count cannot be negative")
