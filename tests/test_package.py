"""Package surface: the exported names, the runtime imports, the caches."""

import ast
import sys
from pathlib import Path

import sketchbound
from sketchbound import direct, model, stirling

SRC = Path(sketchbound.__file__).parent


def test_exports_are_the_documented_api():
    assert sorted(sketchbound.__all__) == sorted([
        "QueryInstance", "BoundResult", "TailEngine", "PrecisionContext",
        "upper_bound", "lower_bound", "left_tail", "right_tail",
        "pmf_exact", "left_tail_exact", "right_tail_exact",
        "upper_bound_exact", "lower_bound_exact",
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


def test_module_level_caches_are_bounded():
    caches = [model.decimal_context, direct._falling_cached, stirling.log_factorial,
              stirling._pi, stirling._ln2pi]
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache
