"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chordshapes
from chordshapes import diagram, shapes

SRC = Path(__file__).resolve().parent.parent / "src" / "chordshapes"


def test_no_assert_statements():
    # internal checks raise ConsistencyError: python -O strips an assert,
    # and a test that never makes one fire would pass without it
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


PUBLIC = {
    "Arc", "Diagram", "canonical_code", "diagram_from_code", "is_connected",
    "parse_diagram", "plant", "serialize_diagram",
    "BoundaryDecomposition", "LoopProfile", "boundary_components",
    "classify_loops", "component_genera", "genus",
    "Shape", "ShapeClass", "as_shape", "is_shape", "project_shape", "shape_class",
    "eta", "eta_inv", "theta", "theta_inv",
    "IntPolynomial", "PowerSeries", "a_shape_poly", "b_shape_poly", "fiber_gf",
    "kappa", "shape_poly_1bb", "shape_poly_2bb", "w_gf",
    "EnumSpec", "count_fiber", "enumerate_matchings", "enumerate_shapes",
    "BishapeSampler", "SampleStats", "build_table", "sample_stats",
    "BijectionDomainError", "ChordShapesError", "ConsistencyError",
    "DiagramError", "InfeasibleError", "ParseError",
}


def test_public_surface_is_pinned():
    # the public surface is __all__: a name joins or leaves it here, on
    # purpose, and a star import binds exactly these names
    assert len(chordshapes.__all__) == len(PUBLIC) == 47
    assert set(chordshapes.__all__) == PUBLIC
    namespace: dict = {}
    exec("from chordshapes import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_test_helpers_are_not_in_the_package():
    # these serve only the tests, and live in conftest
    for module in (chordshapes, diagram, shapes):
        for name in ("disjoint_union", "strip_plants", "components", "reduce_planted"):
            assert not hasattr(module, name), (module.__name__, name)


# -- lazy loading -----------------------------------------------------------
#
# The package imports a module on the first use of one of its names, and
# the CLI imports bijections, enumeration, sampling and series inside the
# commands that call them; a diagram command then never compiles them.

DEFERRED_BY_CLI = ("bijections", "enumeration", "sampling", "series")


def loaded_after(code: str) -> set[str]:
    """The ``chordshapes`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p
    ))
    report = (
        "import sys; print(*(m for m in sys.modules if m.startswith('chordshapes')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(proc.stdout.split())


def test_package_import_loads_no_module():
    assert loaded_after("import chordshapes") == {"chordshapes"}


def test_one_name_loads_its_home_module():
    assert loaded_after("from chordshapes import w_gf") == {
        "chordshapes", "chordshapes.errors", "chordshapes.series"
    }


def test_cli_import_defers_the_command_modules():
    loaded = loaded_after("import chordshapes.cli")
    assert {"chordshapes.cli", "chordshapes.fatgraph", "chordshapes.shapes"} <= loaded
    assert loaded.isdisjoint(f"chordshapes.{m}" for m in DEFERRED_BY_CLI)


def test_module_name_loads_the_module():
    loaded = loaded_after("import chordshapes; chordshapes.series.w_gf")
    assert "chordshapes.series" in loaded


def defined_at_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_lazy_names_are_the_defining_modules_objects():
    # the home of each name is read off the sources, not off the
    # package's own table: the one module that defines it
    homes = {
        path.stem: defined_at_top_level(path)
        for path in SRC.glob("*.py")
        if path.stem not in ("__init__", "cli")
    }
    for name in chordshapes.__all__:
        (home,) = [m for m, names in homes.items() if name in names]
        module = importlib.import_module(f"chordshapes.{home}")
        assert getattr(chordshapes, name) is vars(module)[name], name


def test_dir_lists_the_public_surface():
    assert set(chordshapes.__all__) <= set(dir(chordshapes))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(
        AttributeError, match=r"^module 'chordshapes' has no attribute 'no_such_name'$"
    ):
        chordshapes.no_such_name


def imported_siblings(node: ast.AST) -> set[str]:
    """The ``chordshapes`` modules a relative import statement names."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return set()
    if node.module is None:
        return {alias.name for alias in node.names}
    return {node.module.split(".")[0]}


def test_sibling_imports_sit_at_module_level():
    # bench/tracing.py times the layers by wrapping, in each module's
    # namespace, the functions it imports from a sibling: an import moved
    # into a function is a call the tracer no longer sees.  Only the
    # commands' own modules, which no traced diagram request calls, are
    # imported inside cli.py's commands
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.stem == "cli":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
                    allowed.update(
                        id(node) for node in ast.walk(fn)
                        if imported_siblings(node)
                        and imported_siblings(node) <= set(DEFERRED_BY_CLI)
                    )
        top = {id(node) for node in tree.body}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if imported_siblings(node) and id(node) not in top | allowed
        ]
    assert found == []
