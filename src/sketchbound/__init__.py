"""Sharp PAC bounds on population frequencies from without-replacement samples.

Given that k of s uniformly sampled items satisfy a condition in a
population of n, compute the largest and smallest success counts m whose
hypergeometric tail probability still meets a failure budget delta.  Tails
can be evaluated by exact rational arithmetic (small n), direct integer
products, or a log-space Stirling series, with precision chosen so the
returned bound is within one of the sharp value.
"""

from .coverage import CoverageReport, coverage_run, sample_successes
from .direct import left_tail_direct, pmf_direct
from .exact import (
    ExactRational,
    binom,
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
    StructuralZeroError,
    TailEngine,
)
from .solver import (
    MultiplicityPolicy,
    SearchBracket,
    adjust_delta,
    choose_precision,
    gap,
    left_tail,
    lower_bound,
    pmf,
    resolve_engine,
    right_tail,
    start_high,
    start_low,
    upper_bound,
)
from .stirling import (
    LogFactorialTable,
    left_tail_stirling,
    log_factorial,
    log_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CoverageReport",
    "DomainError",
    "ExactRational",
    "LogFactorialTable",
    "MultiplicityPolicy",
    "OracleLimitError",
    "PrecisionContext",
    "PrecisionInfeasibleError",
    "QueryInstance",
    "SearchBracket",
    "StructuralZeroError",
    "TailEngine",
    "adjust_delta",
    "binom",
    "choose_precision",
    "coverage_run",
    "gap",
    "left_tail",
    "left_tail_direct",
    "left_tail_exact",
    "left_tail_stirling",
    "log_factorial",
    "log_pmf",
    "lower_bound",
    "lower_bound_exact",
    "pmf",
    "pmf_direct",
    "pmf_exact",
    "resolve_engine",
    "right_tail",
    "right_tail_exact",
    "sample_successes",
    "start_high",
    "start_low",
    "upper_bound",
    "upper_bound_exact",
]
