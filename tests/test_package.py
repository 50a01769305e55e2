"""Package surface: the exported names, the runtime imports, the caches."""

import ast
import sys
from pathlib import Path

import sketchbound
from sketchbound import coverage, direct, exact, model, stirling

SRC = Path(sketchbound.__file__).parent


def test_exports_are_the_documented_api():
    assert sorted(sketchbound.__all__) == sorted([
        "QueryInstance", "BoundResult", "TailEngine", "PrecisionContext",
        "upper_bound", "lower_bound", "left_tail", "right_tail",
        "pmf_exact", "left_tail_exact", "right_tail_exact",
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

    The largest entries are coverage's CDF tables: one holds O(sd) floats,
    about 17k (some 0.5 MB) at n=1e12, m=9e11, s=1e7.
    """
    caches = [model.decimal_context, direct._falling_cached, stirling.log_factorial,
              stirling._ln2pi, coverage._cdf_table, exact._total]
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache
