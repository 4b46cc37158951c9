"""Import layering of ``src/repro``, checked on the AST (function-local
imports count): the solver layer sits below the DFT layer, the grid
package's underscore names stay inside it, private scipy modules are
imported in two named files only, and no module brings its own worker
pool. The examples and benchmarks, which tier-1 never imports, import only
names the package still has, and every module is reached by something
other than the tests."""

import ast
import importlib
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]


def _imports(path):
    """``(module, name)`` pairs: ``import a.b`` -> ``("a.b", None)``,
    ``from a.b import c`` -> ``("a.b", "c")``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            yield from ((node.module, alias.name) for alias in node.names)


def _violations(paths, forbidden):
    return [f"{path.relative_to(ROOT)}: {module} {name or ''}".rstrip()
            for path in paths for module, name in _imports(path)
            if forbidden(module, name)]


def test_solvers_do_not_import_the_dft_layer():
    def forbidden(module, name):
        return (module.startswith("repro.dft")
                or (module == "repro" and name == "dft"))

    assert _violations(sorted((ROOT / "solvers").rglob("*.py")), forbidden) == []


def test_grid_private_names_stay_inside_the_grid_package():
    def forbidden(module, name):
        if not (module == "repro.grid" or module.startswith("repro.grid.")):
            return False
        return any(part.startswith("_") for part in (*module.split("."), name or ""))

    outside = [p for p in sorted(ROOT.rglob("*.py")) if ROOT / "grid" not in p.parents]
    assert outside
    assert _violations(outside, forbidden) == []


def test_nothing_imports_concurrent_futures():
    # One real backend (repro.parallel.spmd, on multiprocessing): a second
    # pool cannot come back unnoticed.
    def forbidden(module, name):
        return module == "concurrent" or module.startswith("concurrent.")

    assert _violations(sorted(ROOT.rglob("*.py")), forbidden) == []


def test_private_scipy_modules_are_imported_in_two_known_places():
    # The bit-pinned kernels (DESIGN.md section 5) call pocketfft and the CSR
    # matvec below scipy's public wrappers. A scipy upgrade that moves either
    # breaks here, in one named place, and the private surface cannot spread.
    allowed = {ROOT / "grid" / "fourier.py", ROOT / "dft" / "pseudopotential.py"}

    def forbidden(module, name):
        if not (module == "scipy" or module.startswith("scipy.")):
            return False
        return any(part.startswith("_") for part in (*module.split("."), name or ""))

    everywhere = sorted(ROOT.rglob("*.py"))
    assert allowed <= set(everywhere)
    assert _violations([p for p in everywhere if p not in allowed], forbidden) == []
    assert len(_violations(sorted(allowed), forbidden)) == 2



def _resolves(module, name):
    """Whether ``from module import name`` succeeds."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_examples_and_benchmarks_import_names_that_exist():
    # Tier-1 never imports these scripts: a deleted name left in one would
    # surface only when someone runs it.
    scripts = sorted(REPO.glob("examples/*.py")) + sorted(REPO.glob("benchmarks/**/*.py"))
    imported = [(path, node.module, alias.name)
                for path in scripts for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "repro"
                for alias in node.names]
    assert len(imported) > 100
    assert [f"{path.relative_to(REPO)}: {module} {name}"
            for path, module, name in imported if not _resolves(module, name)] == []


# ``python -m`` entry points: run, never imported.
ENTRY_POINTS = {"repro.__main__", "repro.verify.__main__", "repro.obs.regress"}
# Modules only the tests reach, each kept for a stated reason.
TEST_ONLY = {
    # The alternative quadrature rules lost the l-convergence study;
    # ROADMAP item 13 plans the module's deletion with its error estimate.
    "repro.core.frequency_grids",
    # Fault injectors the escalation-chain and SPMD worker-death tests
    # plant through the solver stages and ``SpmdScheduler(fault_hook=)``.
    "repro.resilience.faults",
    # Matrix-property checks no library code calls; ROADMAP item 10 lists
    # the module for deletion.
    "repro.utils.validation",
}


def _module_name(path):
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_is_reached_by_more_than_its_tests():
    # A package __init__ re-exporting its own submodule does not count: the
    # names must be imported by a src module, a benchmark or an example.
    # ``from pkg import name`` is followed through pkg's re-exports.
    modules = {_module_name(p): p for p in ROOT.rglob("*.py")}
    packages = {_module_name(p) for p in ROOT.rglob("__init__.py")}
    reexports = {pkg: {name: module for module, name in _imports(modules[pkg])
                       if name and module.startswith(pkg + ".")}
                 for pkg in packages}

    def target(module, name):
        if name and f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if name in reexports.get(module, {}):
            return target(reexports[module][name], None)
        return module

    importers = [(_module_name(p), p) for p in modules.values()]
    importers += [(None, p) for p in (*REPO.glob("examples/*.py"),
                                      *REPO.glob("benchmarks/**/*.py"))]
    reached = {target(module, name)
               for me, path in importers for module, name in _imports(path)
               if not (me in packages and module.startswith(me + "."))}
    assert ENTRY_POINTS | TEST_ONLY <= set(modules)
    unreached = set(modules) - packages - reached - ENTRY_POINTS
    assert unreached == TEST_ONLY
