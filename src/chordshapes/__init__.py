"""chordshapes: genus filtration of chord diagrams over backbones.

Diagrams, fat-graph boundary cycles and genus, shape projection, the
A/B and one-to-two-backbone surgeries, exact shape polynomials and
fiber generating functions, an exhaustive enumeration oracle, and
uniform sampling of shapes of fixed genus.

``__all__`` is the public surface: the names below, and nothing else,
are kept stable.
"""

from .bijections import eta, eta_inv, theta, theta_inv
from .diagram import (
    Arc,
    Diagram,
    canonical_code,
    diagram_from_code,
    is_connected,
    parse_diagram,
    plant,
    serialize_diagram,
)
from .enumeration import EnumSpec, count_fiber, enumerate_matchings, enumerate_shapes
from .errors import (
    BijectionDomainError,
    ChordShapesError,
    ConsistencyError,
    DiagramError,
    InfeasibleError,
    ParseError,
)
from .fatgraph import (
    BoundaryDecomposition,
    LoopProfile,
    boundary_components,
    classify_loops,
    component_genera,
    genus,
)
from .sampling import (
    BishapeSampler,
    SampleStats,
    build_table,
    sample_stats,
)
from .series import (
    IntPolynomial,
    PowerSeries,
    a_shape_poly,
    b_shape_poly,
    fiber_gf,
    kappa,
    shape_poly_1bb,
    shape_poly_2bb,
    w_gf,
)
from .shapes import (
    Shape,
    ShapeClass,
    as_shape,
    is_shape,
    project_shape,
    shape_class,
)

__version__ = "0.1.0"

__all__ = [
    # diagrams and their text format
    "Arc",
    "Diagram",
    "canonical_code",
    "diagram_from_code",
    "is_connected",
    "parse_diagram",
    "plant",
    "serialize_diagram",
    # fat graph: boundary cycles, genus, loops
    "BoundaryDecomposition",
    "LoopProfile",
    "boundary_components",
    "classify_loops",
    "component_genera",
    "genus",
    # shapes
    "Shape",
    "ShapeClass",
    "as_shape",
    "is_shape",
    "project_shape",
    "shape_class",
    # surgeries
    "eta",
    "eta_inv",
    "theta",
    "theta_inv",
    # shape polynomials and generating functions
    "IntPolynomial",
    "PowerSeries",
    "a_shape_poly",
    "b_shape_poly",
    "fiber_gf",
    "kappa",
    "shape_poly_1bb",
    "shape_poly_2bb",
    "w_gf",
    # enumeration oracle
    "EnumSpec",
    "count_fiber",
    "enumerate_matchings",
    "enumerate_shapes",
    # sampling
    "BishapeSampler",
    "SampleStats",
    "build_table",
    "sample_stats",
    # errors
    "BijectionDomainError",
    "ChordShapesError",
    "ConsistencyError",
    "DiagramError",
    "InfeasibleError",
    "ParseError",
]
