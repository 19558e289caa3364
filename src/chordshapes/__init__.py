"""chordshapes: genus filtration of chord diagrams over backbones.

Diagrams, fat-graph boundary cycles and genus, shape projection, the
A/B and one-to-two-backbone surgeries, exact shape polynomials and
fiber generating functions, an exhaustive enumeration oracle, and
uniform sampling of shapes of fixed genus.

``__all__`` is the public surface: the names below, and nothing else,
are kept stable.

Importing the package loads none of its modules.  The first use of a
public name, or of a library module's name (``chordshapes.series``),
imports its home module (PEP 562), so a process pays to compile and set
up only the modules it uses; ``from chordshapes import *`` loads them
all and binds the same names as an eager import would.
"""

import importlib

__version__ = "0.1.0"

# each library module and the public names it defines, in __all__ order
_EXPORTS = {
    # diagrams and their text format
    "diagram": (
        "Arc",
        "Diagram",
        "canonical_code",
        "diagram_from_code",
        "is_connected",
        "parse_diagram",
        "plant",
        "serialize_diagram",
    ),
    # fat graph: boundary cycles, genus, loops
    "fatgraph": (
        "BoundaryDecomposition",
        "LoopProfile",
        "boundary_components",
        "classify_loops",
        "component_genera",
        "genus",
    ),
    # shapes
    "shapes": (
        "Shape",
        "ShapeClass",
        "as_shape",
        "is_shape",
        "project_shape",
        "shape_class",
    ),
    # surgeries
    "bijections": ("eta", "eta_inv", "theta", "theta_inv"),
    # shape polynomials and generating functions
    "series": (
        "IntPolynomial",
        "PowerSeries",
        "a_shape_poly",
        "b_shape_poly",
        "fiber_gf",
        "kappa",
        "shape_poly_1bb",
        "shape_poly_2bb",
        "w_gf",
    ),
    # enumeration oracle
    "enumeration": (
        "EnumSpec",
        "count_fiber",
        "enumerate_matchings",
        "enumerate_shapes",
    ),
    # sampling
    "sampling": ("BishapeSampler", "SampleStats", "build_table", "sample_stats"),
    # errors
    "errors": (
        "BijectionDomainError",
        "ChordShapesError",
        "ConsistencyError",
        "DiagramError",
        "InfeasibleError",
        "ParseError",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later uses skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
