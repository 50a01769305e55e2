"""Sharp PAC bounds on population frequencies from without-replacement samples.

Given that k of s uniformly sampled items satisfy a condition in a
population of n, compute the largest and smallest success counts m whose
hypergeometric tail probability still meets a failure budget delta.  Tails
can be evaluated by exact rational arithmetic (small n), direct integer
products, or a log-space Stirling series, with precision chosen so the
returned bound is within one of the sharp value.  The root exports the
documented API; everything else is reached through its module.
"""

from .coverage import CoverageReport, coverage_run
from .exact import (
    left_tail_exact,
    lower_bound_exact,
    pmf_exact,
    right_tail_exact,
    upper_bound_exact,
)
from .model import (
    BoundResult,
    DomainError,
    OracleLimitError,
    PrecisionContext,
    PrecisionInfeasibleError,
    QueryInstance,
    TailEngine,
)
from .solver import left_tail, lower_bound, right_tail, upper_bound

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CoverageReport",
    "DomainError",
    "OracleLimitError",
    "PrecisionContext",
    "PrecisionInfeasibleError",
    "QueryInstance",
    "TailEngine",
    "coverage_run",
    "left_tail",
    "left_tail_exact",
    "lower_bound",
    "lower_bound_exact",
    "pmf_exact",
    "right_tail",
    "right_tail_exact",
    "upper_bound",
    "upper_bound_exact",
]
