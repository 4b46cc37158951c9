"""Import layering of ``src/repro``, checked on the AST (function-local
imports count): the solver layer sits below the DFT layer, the grid
package's underscore names stay inside it, private scipy modules are
imported in two named files only, and no module brings its own worker
pool."""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent


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
