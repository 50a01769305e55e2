"""Benchmark for sketchbound: one workload at one seed.

    python3 bench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's own `src/`; the run fails when it is not there.

With --trace 0 the operations are timed with nothing wrapped, and the last
line of standard output is a JSON object with the end-to-end metrics.  With
--trace 1 the same operations run with every layer's public functions
wrapped in spans, and the object holds the per-layer metrics instead.
Either way every operation's output is checked against the mpmath reference
after the timed phase, and the full record (per-operation outputs, check
failures, per-layer rows) goes to bench/out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
MODULES = ("solver", "stirling", "direct", "exact", "coverage", "cli")


def load_program() -> SimpleNamespace:
    """Import sketchbound afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "sketchbound" or m.startswith("sketchbound.")]:
        del sys.modules[name]
    sb = importlib.import_module("sketchbound")
    if Path(sb.__file__).resolve().parent != (SRC / "sketchbound").resolve():
        raise ImportError(f"sketchbound came from {sb.__file__}, not from {SRC}")
    return SimpleNamespace(sb=sb, **{m: importlib.import_module(f"sketchbound.{m}")
                                     for m in MODULES})


def timed_phase(workload, prog, ops, seconds: float, tracer):
    """Whole rounds of the operations until `seconds` have passed.

    Returns (op index, result, error, ns) per operation and the phase's ns.
    """
    records = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        for i, op in enumerate(ops):
            with tracer.span("op") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter_ns()
                try:
                    result, error = workload.run(prog, op), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, error = None, f"{type(exc).__name__}: {exc}"
                ns = time.perf_counter_ns() - t0
            records.append((i, result, error, ns))
        if time.perf_counter_ns() >= deadline:
            return records, time.perf_counter_ns() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sketchbound" / "__init__.py").is_file():
        print(f"bench: no sketchbound package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the CLI reads its default precision from here; the benchmark wants the default
    os.environ.pop("SKETCHBOUND_DIGITS", None)
    workload = WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    # set-up (fresh import, inputs from the seed, one warm-up operation) is
    # repeated and its median reported, so work moved into it shows
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prog = load_program()
        ops = workload.make_ops(random.Random(f"{args.workload}:{args.seed}"), workdir)
        workload.warm_up(prog, workdir)
        setups.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer.patched(tracing.targets(prog)):
            records, phase_ns = timed_phase(workload, prog, ops, args.seconds, tracer)
    else:
        records, phase_ns = timed_phase(workload, prog, ops, args.seconds, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import reference  # mpmath loads only now, after the memory reading

    outputs = [workload.output(r) if e is None else None for _, r, e, _ in records]
    first_round = outputs[:len(ops)]
    verdicts = {}
    failures = []
    failed = 0
    correct = True
    for (i, _, error, _), out in zip(records, outputs):
        if error is not None:
            failed += 1
            failures.append(f"{ops[i].label}: {error}")
            continue
        if i not in verdicts:
            verdicts[i] = workload.check(reference, ops[i], out, bool(args.trace))
        problems = list(verdicts[i].failures)
        if out != first_round[i]:
            problems.append("output differs from the first round's")
        if problems:
            failed += 1
            correct = False
            failures += [f"{ops[i].label}: {p}" for p in problems]

    attempted = len(records)
    digest = hashlib.sha256(json.dumps(first_round, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": attempted // len(ops), "timed_s": phase_ns / 1e9,
        "setup_runs_s": setups, "op_s": [ns / 1e9 for *_, ns in records],
        "outputs_sha256": digest, "failures": failures,
        "ops": [{"label": op.label, **{k: str(v) for k, v in vars(op).items() if k != "label"},
                 "output": out} for op, out in zip(ops, first_round)],
    }

    if args.trace:
        off_by_one = sum(v.off_by_one for v in verdicts.values())
        errs: dict[str, float] = {}
        for v in verdicts.values():
            for engine, ratio in v.err_over_target.items():
                errs[engine] = max(ratio, errs.get(engine, 0.0))
        values = tracing.layer_metrics(tracer.spans, workload.op_is_bound, off_by_one, errs)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        for row, entry in zip(tracing.op_rows(tracer.spans), record["ops"]):
            entry["layers"] = row
            print(f"bench: {entry['label']:<14} {entry.get('side', ''):<5} "
                  f"k={entry.get('k', '-'):<6} delta={entry['delta']:<9} "
                  f"wall={row['wall_s']:.4f}s evals={row['evals']} digits={row['digits']} "
                  f"per_eval={row['eval_s']:.5f}s anchor={row['anchor_s']:.5f}s "
                  f"walk={row['walk_s']:.5f}s", file=sys.stderr)
    else:
        times = [ns for _, _, _, ns in records]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(times) / 1e9, "unit": "s"},
            "ops_per_s": {"value": attempted / (phase_ns / 1e9), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in failures:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
