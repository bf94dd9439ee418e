"""Names that other code depends on: every ``__all__``, the package re-exports,
and every gmtlab name that the benchmark harness under ``bench/`` imports; every
error type, which some ``raise`` in the package must name; the signatures
that a function's domain and cloud, and each kernel's inputs, are read off;
and every private function, which the package itself must name."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import gmtlab

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = [importlib.import_module(f"gmtlab.{m.name}") for m in pkgutil.iter_modules(gmtlab.__path__)]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_every_all_name_resolves(mod):
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_are_declared_public():
    declared = {name for mod in MODULES for name in getattr(mod, "__all__", ())}
    exported = {name for name, obj in vars(gmtlab).items()
                if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert exported and exported <= declared, sorted(exported - declared)


def _bench_imports():
    """(module, attribute) for each gmtlab name a bench script imports or reads
    off an imported gmtlab module, found by parsing the scripts."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {}  # local name -> gmtlab module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gmtlab"):
                found.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                aliases.update((a.asname, a.name) for a in node.names
                               if a.asname and a.name.startswith("gmtlab"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                found.add((aliases[owner.id], node.attr))
            elif (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Attribute)
                  and owner.func.attr == "import_module" and owner.args
                  and isinstance(owner.args[0], ast.Constant)
                  and str(owner.args[0].value).startswith("gmtlab")):
                found.add((owner.args[0].value, node.attr))
    return found


def test_bench_imports_resolve():
    found = _bench_imports()
    assert {("gmtlab.cli", "main"), ("gmtlab.domains", "domain_from_spec"),
            ("gmtlab.domains", "extract_boundary"), ("gmtlab.domains", "load_domain_spec")} <= found
    missing = [(m, a) for m, a in sorted(found) if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def _raised_names():
    """The names of the exceptions that a ``raise`` in ``src/gmtlab`` names."""
    names = set()
    for path in sorted(Path(gmtlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    errors = importlib.import_module("gmtlab.errors")
    types = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert "GmtLabError" in types
    assert sorted(types - {"GmtLabError"} - _raised_names()) == []


# a grid function carries its domain, and through it the domain's cloud: the
# constructors read the cloud off the domain and the procedures read the domain
# off the function, so neither is passed a second time
_NO_CLOUD = ("from_expression", "constant_function", "indicator_function", "restrict_to_domain")
_NO_DOMAIN = ("check_mazya", "check_mazya_l2", "check_bv_bound", "proof_trace", "quotient_search")


def test_domain_and_cloud_are_read_off_the_function():
    params = {name: list(inspect.signature(getattr(gmtlab, name)).parameters) for name in _NO_CLOUD + _NO_DOMAIN}
    assert [name for name in _NO_CLOUD if "cloud" in params[name]] == []
    assert [name for name in _NO_DOMAIN if "domain" in params[name]] == []
    assert params["restrict_to_domain"] == ["u", "domain"]  # the target domain is a second input


# one layer down, each kernel reads what it needs off the object it is given:
# a function's mask, spacing, values, trace and faces, a cloud's points, gaps and
# resolution, the greedy run's cap, and a strict cut as the largest float below t
_KERNELS = {
    "calculus._grad_stencil": ["u"],
    "hausdorff._cell_rds": ["cloud", "order", "bounds", "scale"],
    "hausdorff._fps_centers": ["points", "thresholds"],
    "domains.within_distance": ["source", "t", "h"],
    "domains._squared_cut": ["t", "h", "n"],
    "inequalities._boundary_measure": ["cloud"],
    "inequalities._calibration": ["cloud"],
}


def test_kernels_read_their_inputs():
    params = {}
    for name in _KERNELS:
        mod, attr = name.split(".")
        params[name] = list(inspect.signature(getattr(importlib.import_module(f"gmtlab.{mod}"), attr)).parameters)
    assert params == _KERNELS


def _private_functions_and_names():
    """(module, name) of each private module-level function in ``src/gmtlab``,
    and every name that the package mentions outside a ``def`` line."""
    private, used = [], set()
    for path in sorted(Path(gmtlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        private.extend((path.stem, node.name) for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return private, used


def test_every_private_function_is_used_in_the_package():
    # a helper that only tests still call is dead code: nothing in the package reaches it
    private, used = _private_functions_and_names()
    assert private
    assert [f"{mod}.{name}" for mod, name in private if name not in used] == []
