"""Package surface: the exported names, the runtime imports, the caches."""

import ast
import gc
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import sketchbound
from sketchbound import (
    QueryInstance,
    TailEngine,
    coverage,
    coverage_run,
    direct,
    exact,
    lower_bound,
    model,
    stirling,
    upper_bound,
)

SRC = Path(sketchbound.__file__).parent


def test_exports_are_the_documented_api():
    assert sorted(sketchbound.__all__) == sorted([
        "QueryInstance", "BoundResult", "TailEngine", "PrecisionContext",
        "upper_bound", "lower_bound", "left_tail", "right_tail",
        "coverage_run", "CoverageReport",
        "DomainError", "OracleLimitError", "PrecisionInfeasibleError",
    ])
    for name in sketchbound.__all__:
        assert hasattr(sketchbound, name), name


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_no_module_reads_the_environment():
    # settings come from arguments and flags, never from environment variables
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not {"environ", "environb", "getenv", "getenvb"} & set(names), path.name


def test_no_module_imports_a_private_name_from_another():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "sketchbound":
                continue
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, (path.name, node.module, private)


def test_every_top_level_name_is_exported_or_used_under_src():
    # code that only tests reach belongs in tests/, not in the package
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set(sketchbound.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}:{name}" for name in names
                       if not name.startswith("__") and name not in used]
    assert not unused, unused


def test_module_level_caches_are_bounded():
    """Every module-level cache has a maxsize.

    The largest entries are coverage's CDF tables: one holds a tuple of
    O(sd) integer cuts, about 18k (some 0.76 MB) at n=1e12, m=9e11, s=1e7.
    """
    caches = [model.decimal_context, direct._falling_cached, stirling.log_factorial,
              stirling._ln2pi, coverage._cdf_table, exact._total]
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache


def test_retained_memory_levels_off():
    """A long run of varied solves retains no more memory once warmed up.

    Every engine, n up to 1e12, up to 200 digits and coverage's CDF
    tables, five rounds of 240 solves under tracemalloc: the bounded caches
    fill in the first three, and the memory still held after each later round
    stays within 10% of the most held after those (the caches swap entries
    of varying size, so the level moves by a few percent).
    """
    rng = random.Random(71)
    engines = (TailEngine.DIRECT, TailEngine.STIRLING, TailEngine.EXACT)

    def solves(count: int) -> None:
        for i in range(count):
            engine = engines[i % 3]
            n = rng.randrange(2, 3001) if engine is TailEngine.EXACT else int(10 ** rng.uniform(1, 12))
            s = rng.randrange(1, min(n, 200) + 1)
            inst = QueryInstance(n, s, rng.randrange(s + 1), Fraction(1, rng.choice([2, 20, 100, 10**6])))
            digits = rng.choice([None] * 12 + [40, 100, 200])
            upper_bound(inst, engine, digits)
            lower_bound(inst, engine, digits)
            if i % 10 == 0:
                n = rng.randrange(100, 5000)
                coverage_run(n, rng.randrange(n + 1), rng.randrange(1, 200), 0.05, 20, i,
                             engine=engines[i // 10 % 3])

    tracemalloc.start()
    try:
        held = []
        for _ in range(5):
            solves(120)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(held[3:]) <= 1.1 * max(held[:3]), held
    # the Stirling series' Bernoulli memo grew only with the largest digit count
    assert len(stirling._bernoulli_memo) < 300
