"""Spans around the calls into sketchbound's modules, for the traced run.

Every wrapped function is reached by its caller through a module attribute;
`Tracer.patched` swaps each attribute for a recording wrapper and restores
the original afterwards.  Spans are kept in memory and reduced to the
per-layer metrics once the timed phase is over.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index of the enclosing span, -1 at the top
    info: Any

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _enter(self, name: str, info: Any) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0, 0, parent, info))
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index].start = time.perf_counter_ns()
        return index

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str, info: Any = None):
        index = self._enter(name, info)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name: str, fn: Callable, describe: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            index = self._enter(name, describe(*args) if describe else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return wrapper

    @contextmanager
    def patched(self, targets):
        """Wrap (module, attribute, span name, describe) targets while inside."""
        saved = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, describe))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _left_tail_info(n, m, s, k, engine, ctx):
    return str(engine), ctx.digits


def targets(prog) -> list:
    """The attributes through which each layer is reached by its caller."""
    return [
        (prog.solver, "left_tail", "solver.left_tail", _left_tail_info),
        (prog.stirling, "log_pmf", "stirling.log_pmf", None),
        (prog.direct, "pmf_direct", "direct.pmf_direct", None),
        (prog.exact, "left_tail_exact", "exact.left_tail_exact", None),
        (prog.coverage, "sample_successes", "coverage.sample_successes", None),
        (prog.coverage, "upper_bound", "coverage.upper_bound", None),
        (prog.coverage, "lower_bound", "coverage.lower_bound", None),
        (prog.cli, "upper_bound", "cli.upper_bound", None),
        (prog.cli, "lower_bound", "cli.lower_bound", None),
    ]


# name -> unit; every traced run reports all of them, and a layer the
# workload never enters reads 0
LAYER_METRICS = {
    "solver.evals_per_bound": "count",
    "solver.self_s_per_bound": "s",
    "solver.digits": "digits",
    "solver.off_by_one": "count",
    "stirling.eval_s": "s",
    "stirling.anchor_s": "s",
    "stirling.walk_s": "s",
    "stirling.err_over_target": "ratio",
    "direct.eval_s": "s",
    "direct.anchor_s": "s",
    "direct.walk_s": "s",
    "direct.err_over_target": "ratio",
    "exact.eval_s": "s",
    "exact.evals_per_op": "count",
    "coverage.sample_s": "s",
    "coverage.bound_s": "s",
    "coverage.bounds_per_op": "count",
    "cli.self_s": "s",
}

_BOUND_SPANS = {"cli.upper_bound", "cli.lower_bound",
                "coverage.upper_bound", "coverage.lower_bound"}
_ANCHOR_SPANS = {"stirling": "stirling.log_pmf", "direct": "direct.pmf_direct"}


def _children(spans: list[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        children.setdefault(sp.parent, []).append(i)
    return children


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[Span], op_is_bound: bool, off_by_one: int,
                  err_over_target: dict[str, float]) -> dict[str, float]:
    """Reduce the spans of one traced timed phase to the per-layer metrics.

    Times are per call (eval_s, anchor_s, walk_s, sample_s, exact.eval_s)
    or per bound / per operation as the name says, in seconds.
    """
    children = _children(spans)
    ops = [i for i, sp in enumerate(spans) if sp.name == "op"]
    if op_is_bound:
        bounds = ops
    else:
        bounds = [i for i, sp in enumerate(spans) if sp.name in _BOUND_SPANS]

    evals = 0
    self_ns = 0
    digits = []
    for b in bounds:
        tails = [c for c in children.get(b, ()) if spans[c].name == "solver.left_tail"]
        evals += len(tails)
        self_ns += spans[b].ns - sum(spans[c].ns for c in tails)
        if tails and spans[tails[0]].info[0] != "exact":
            digits.append(spans[tails[0]].info[1])

    out = {
        "solver.evals_per_bound": _mean(evals, len(bounds)),
        "solver.self_s_per_bound": _mean(self_ns, len(bounds)) / 1e9,
        "solver.digits": float(statistics.median(digits)) if digits else 0.0,
        "solver.off_by_one": float(off_by_one),
    }
    for engine, anchor_name in _ANCHOR_SPANS.items():
        tails = [i for i, sp in enumerate(spans)
                 if sp.name == "solver.left_tail" and sp.info[0] == engine]
        eval_ns = sum(spans[i].ns for i in tails)
        anchor_ns = sum(spans[c].ns for i in tails for c in children.get(i, ())
                        if spans[c].name == anchor_name)
        out[f"{engine}.eval_s"] = _mean(eval_ns, len(tails)) / 1e9
        out[f"{engine}.anchor_s"] = _mean(anchor_ns, len(tails)) / 1e9
        out[f"{engine}.walk_s"] = _mean(eval_ns - anchor_ns, len(tails)) / 1e9
        out[f"{engine}.err_over_target"] = err_over_target.get(engine, 0.0)

    exact = [sp.ns for sp in spans if sp.name == "exact.left_tail_exact"]
    out["exact.eval_s"] = _mean(sum(exact), len(exact)) / 1e9
    out["exact.evals_per_op"] = _mean(len(exact), len(ops))
    samples = [sp.ns for sp in spans if sp.name == "coverage.sample_successes"]
    out["coverage.sample_s"] = _mean(sum(samples), len(samples)) / 1e9
    cov_bounds = [sp.ns for sp in spans
                  if sp.name in ("coverage.upper_bound", "coverage.lower_bound")]
    out["coverage.bound_s"] = _mean(sum(cov_bounds), len(ops)) / 1e9
    out["coverage.bounds_per_op"] = _mean(len(cov_bounds), len(ops))
    cli_ops = [o for o in ops
               if any(spans[c].name.startswith("cli.") for c in children.get(o, ()))]
    cli_self = sum(spans[o].ns - sum(spans[c].ns for c in children[o]
                                     if spans[c].name.startswith("cli."))
                   for o in cli_ops)
    out["cli.self_s"] = _mean(cli_self, len(cli_ops)) / 1e9
    return out


def op_rows(spans: list[Span]) -> list[dict]:
    """Per-operation layer figures, in the order the operations ran."""
    children = _children(spans)

    def under(i: int, name: str) -> list[int]:
        found = []
        for c in children.get(i, ()):
            if spans[c].name == name:
                found.append(c)
            found.extend(under(c, name))
        return found

    rows = []
    for o, sp in enumerate(spans):
        if sp.name != "op":
            continue
        tails = under(o, "solver.left_tail")
        anchor = sum(spans[a].ns for t in tails for a in children.get(t, ())
                     if spans[a].name in _ANCHOR_SPANS.values())
        eval_ns = sum(spans[t].ns for t in tails)
        rows.append({
            "wall_s": sp.ns / 1e9,
            "evals": len(tails),
            "digits": (spans[tails[0]].info[1]
                       if tails and spans[tails[0]].info[0] != "exact" else None),
            "eval_s": _mean(eval_ns, len(tails)) / 1e9,
            "anchor_s": _mean(anchor, len(tails)) / 1e9,
            "walk_s": _mean(eval_ns - anchor, len(tails)) / 1e9,
        })
    return rows
