"""chordshapes: genus filtration of chord diagrams over backbones.

Diagrams, fat-graph boundary cycles and genus, shape projection, the
A/B and one-to-two-backbone surgeries, exact shape polynomials and
fiber generating functions, an exhaustive enumeration oracle, and
uniform sampling of shapes of fixed genus.
"""

from .bijections import eta, eta_inv, theta, theta_inv
from .diagram import (
    Arc,
    Diagram,
    canonical_code,
    components,
    diagram_from_code,
    disjoint_union,
    is_connected,
    parse_diagram,
    plant,
    serialize_diagram,
    strip_plants,
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
    ShapeTable,
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
    reduce_planted,
    shape_class,
)

__version__ = "0.1.0"
