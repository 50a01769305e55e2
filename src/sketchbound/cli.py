"""Command-line front end.

Subcommands: bound (one query), tail (one tail value), batch (many
conditions against one sample, with the failure budget split across them),
coverage (empirical failure-rate simulation).  Exit codes: 0 on success,
2 on usage or domain errors, 3 when the requested precision cannot resolve
the computation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from .coverage import coverage_run
from .model import (
    BoundResult,
    DomainError,
    PrecisionContext,
    PrecisionInfeasibleError,
    QueryInstance,
    as_fraction,
    decimal_context,
)
from .solver import left_tail, lower_bound, resolve_engine, right_tail, upper_bound

MAX_COUNT = 10**18
_JSON_INT_MAX = 2**53

ENV_DIGITS = "SKETCHBOUND_DIGITS"


def _count(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value <= MAX_COUNT:
        raise argparse.ArgumentTypeError(f"count out of range [0, 10^18]: {text}")
    return value


def _positive_count(text: str) -> int:
    value = _count(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _delta(text: str) -> Fraction:
    try:
        value = as_fraction(text)
    except DomainError:
        raise argparse.ArgumentTypeError(f"not a probability: {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"delta must lie strictly in (0, 1): {text}")
    return value


def _env_digits() -> int | None:
    raw = os.environ.get(ENV_DIGITS)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{ENV_DIGITS} must be an integer, got {raw!r}") from None


def _digits_or_env(args) -> int | None:
    return args.digits if args.digits is not None else _env_digits()


def _json_int(value: int):
    # exact in any double-based JSON reader, else a decimal string
    return value if abs(value) <= _JSON_INT_MAX else str(value)


def _fraction_str(value: Fraction, digits: int) -> str:
    with localcontext(decimal_context(digits)):
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _tail_str(value, digits: int) -> str:
    if isinstance(value, Fraction):
        return _fraction_str(value, digits)
    return str(value)


def _bound_payload(instance: QueryInstance, result: BoundResult) -> dict:
    digits = result.digits
    return {
        "n": _json_int(instance.n),
        "s": _json_int(instance.s),
        "k": _json_int(instance.k),
        "delta": _fraction_str(result.delta_used, digits),
        "side": result.side,
        "m_hat": _json_int(result.m_hat),
        "engine": str(result.engine),
        "digits": digits,
        "tail_lo": _tail_str(result.tail_at_m_hat_plus_1, digits),
        "tail_hi": _tail_str(result.tail_at_m_hat, digits),
        "iterations": result.iterations,
    }


def _print_bound_text(result: BoundResult) -> None:
    digits = result.digits
    print(f"{result.side} bound: {result.m_hat}")
    print(f"  engine={result.engine} digits={digits} "
          f"delta={_fraction_str(result.delta_used, digits)} iterations={result.iterations}")
    print(f"  tail_hi={_tail_str(result.tail_at_m_hat, digits)} "
          f"tail_lo={_tail_str(result.tail_at_m_hat_plus_1, digits)}")


def _cmd_bound(args) -> int:
    delta = args.delta
    if args.sides == "both" and not args.no_bonferroni:
        # union bound: the two one-sided statements share delta
        delta = delta / 2
    instance = QueryInstance(args.n, args.s, args.k, delta)
    engine = resolve_engine(args.engine, args.n)
    digits = _digits_or_env(args)

    results = []
    if args.sides in ("upper", "both"):
        results.append(upper_bound(instance, engine, digits))
    if args.sides in ("lower", "both"):
        results.append(lower_bound(instance, engine, digits))

    if args.format == "json":
        print(json.dumps([_bound_payload(instance, r) for r in results], indent=2))
    else:
        for r in results:
            _print_bound_text(r)
    return 0


def _cmd_tail(args) -> int:
    n, m, s, k = args.n, args.m, args.s, args.k
    engine = resolve_engine(args.engine, n)
    digits = _digits_or_env(args)
    if digits is None:
        digits = 30
    ctx = PrecisionContext.for_digits(digits)
    fn = left_tail if args.which == "left" else right_tail
    value = fn(n, m, s, k, engine, ctx)
    if args.format == "json":
        payload = {
            "n": _json_int(n), "m": _json_int(m), "s": _json_int(s), "k": _json_int(k),
            "which": args.which,
            "engine": str(engine),
            "digits": digits,
            "value": _tail_str(value, digits),
        }
        if isinstance(value, Fraction):
            payload["exact"] = f"{value.numerator}/{value.denominator}"
        print(json.dumps(payload, indent=2))
    else:
        if isinstance(value, Fraction):
            print(f"{args.which} tail = {value.numerator}/{value.denominator}"
                  f" = {_fraction_str(value, digits)}")
        else:
            print(f"{args.which} tail = {value}")
    return 0


def _parse_batch(lines: list[str]) -> tuple[int, int, Fraction, tuple[tuple[str, int], ...]]:
    """Population, sample size, failure budget, and (label, observed count)
    pairs with unique labels, from the lines of a batch file."""
    header: tuple[int, int, Fraction] | None = None
    conditions: list[tuple[str, int]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 3:
                raise DomainError(f"line {lineno}: header must be 'n s delta'")
            try:
                n, s = int(fields[0]), int(fields[1])
                delta = as_fraction(fields[2])
            except (ValueError, DomainError):
                raise DomainError(f"line {lineno}: header must be 'n s delta'") from None
            if not (1 <= s <= n <= MAX_COUNT) or not 0 < delta < 1:
                raise DomainError(f"line {lineno}: header values out of range")
            header = (n, s, delta)
            continue
        if len(fields) != 2:
            raise DomainError(f"line {lineno}: condition must be 'label k'")
        label = fields[0]
        try:
            k = int(fields[1])
        except ValueError:
            raise DomainError(f"line {lineno}: k must be an integer") from None
        if label in seen:
            raise DomainError(f"line {lineno}: duplicate label {label!r}")
        if not 0 <= k <= header[1]:
            raise DomainError(f"line {lineno}: k={k} outside [0, s={header[1]}]")
        seen.add(label)
        conditions.append((label, k))
    if header is None:
        raise DomainError("batch file has no header line")
    if not conditions:
        raise DomainError("batch file has no conditions")
    return (*header, tuple(conditions))


def _cmd_batch(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read batch file {args.file}: {exc}") from None
    n, s, delta, conditions = _parse_batch(text.splitlines())
    # union bound: the 2j one-sided statements of j conditions share delta
    delta_side = delta / (2 * len(conditions))
    engine = resolve_engine(args.engine, n)
    digits = _digits_or_env(args)

    rows = []
    for label, k in sorted(conditions):
        instance = QueryInstance(n, s, k, delta_side)
        rows.append((label, k, instance, upper_bound(instance, engine, digits),
                     lower_bound(instance, engine, digits)))

    confidence = 1 - delta
    shown_digits = max(row[3].digits for row in rows)
    if args.format == "json":
        payload = {
            "n": _json_int(n),
            "s": _json_int(s),
            "delta": _fraction_str(delta, shown_digits),
            "condition_count": len(conditions),
            "per_side_delta": _fraction_str(delta_side, shown_digits),
            "joint_confidence": _fraction_str(confidence, shown_digits),
            "conditions": [
                {
                    "label": label,
                    "k": _json_int(k),
                    "upper": _bound_payload(instance, up),
                    "lower": _bound_payload(instance, down),
                }
                for label, k, instance, up, down in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"n={n} s={s} delta={_fraction_str(delta, shown_digits)} "
              f"conditions={len(conditions)} "
              f"per_side_delta={_fraction_str(delta_side, shown_digits)}")
        for label, k, _instance, up, down in rows:
            print(f"{label}: k={k} lower={down.m_hat} upper={up.m_hat}")
        print(f"joint: all {2 * len(conditions)} bounds hold simultaneously "
              f"with probability >= {_fraction_str(confidence, shown_digits)}")
    return 0


def _cmd_coverage(args) -> int:
    report = coverage_run(args.n, args.m, args.s, args.delta, args.trials,
                          args.seed, engine=args.engine, digits=_digits_or_env(args))
    if args.format == "json":
        print(json.dumps(asdict(report), indent=2))
    else:
        print(f"trials={report.trials} seed={report.seed}")
        print(f"upper: failures={report.upper_failures} rate={report.empirical_upper_rate}")
        print(f"lower: failures={report.lower_failures} rate={report.empirical_lower_rate}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=("direct", "stirling", "exact", "auto"), default="auto")
    parser.add_argument("--digits", type=int, default=None,
                        help=f"decimal precision (default from the instance; env {ENV_DIGITS})")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchbound",
        description="Sharp PAC bounds on how many of n items satisfy a condition, "
                    "from k hits in a without-replacement sample of s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="bounds for one observed count")
    p_bound.add_argument("--n", type=_positive_count, required=True)
    p_bound.add_argument("--s", type=_positive_count, required=True)
    p_bound.add_argument("--k", type=_count, required=True)
    p_bound.add_argument("--delta", type=_delta, required=True)
    p_bound.add_argument("--sides", choices=("upper", "lower", "both"), default="both")
    p_bound.add_argument("--no-bonferroni", action="store_true",
                         help="with --sides both, use delta per side instead of delta/2")
    _add_common(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_tail = sub.add_parser("tail", help="one tail probability")
    p_tail.add_argument("--n", type=_positive_count, required=True)
    p_tail.add_argument("--m", type=_count, required=True)
    p_tail.add_argument("--s", type=_positive_count, required=True)
    p_tail.add_argument("--k", type=_count, required=True)
    p_tail.add_argument("--which", choices=("left", "right"), required=True)
    _add_common(p_tail)
    p_tail.set_defaults(func=_cmd_tail)

    p_batch = sub.add_parser("batch", help="bounds for many conditions from a file ('-' for stdin)")
    p_batch.add_argument("file")
    _add_common(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_cov = sub.add_parser("coverage", help="empirical bound-failure simulation")
    p_cov.add_argument("--n", type=_positive_count, required=True)
    p_cov.add_argument("--m", type=_count, required=True)
    p_cov.add_argument("--s", type=_positive_count, required=True)
    p_cov.add_argument("--delta", type=_delta, required=True)
    p_cov.add_argument("--trials", type=int, required=True)
    p_cov.add_argument("--seed", type=int, default=0)
    _add_common(p_cov)
    p_cov.set_defaults(func=_cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PrecisionInfeasibleError as exc:
        print(f"sketchbound: precision infeasible: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"sketchbound: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
