"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

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
