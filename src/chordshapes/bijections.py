"""Label surgeries pairing shape families of neighbouring genus.

theta deletes the distinguished arc of a one-backbone A-shape and lands
on the B-shape with one arc less at the same genus; theta_inv inserts it
back.  eta glues the two backbones of a (possibly disconnected) planted
two-backbone shape into one, turns the old rainbows into ordinary arcs,
adds a fresh rainbow and lands on a one-backbone A-shape with one more
arc and genus raised by one; eta_inv cuts it apart again.

All maps are pure relabelings: outputs carry no memory of old labels,
and every output is re-validated against the shape predicate.
"""

from __future__ import annotations

from .diagram import Diagram
from .errors import BijectionDomainError, ConsistencyError
from .shapes import Shape, ShapeClass, as_shape, is_shape, shape_class


def _as_planted_diagram(x: Shape | Diagram) -> Diagram:
    d = x.diagram if isinstance(x, Shape) else x
    if not d.planted:
        d = Diagram(d.backbone_lengths, d.arcs, planted=True)
    return d


def _require_1bb_shape(x: Shape | Diagram, want: ShapeClass) -> Diagram:
    d = _as_planted_diagram(x)
    if d.b != 1 or not is_shape(d):
        raise BijectionDomainError("input is not a proper one-backbone shape")
    if shape_class(as_shape(d)) is not want:
        raise BijectionDomainError(f"input is not a {want.value}-shape")
    return d


def theta(a: Shape | Diagram) -> Shape:
    """A-shape with n+2 arcs -> B-shape with n+1 arcs, same genus.

    Removes the arc joining the successor of vertex 2's partner to the
    last vertex before the right plant, drops its endpoints, relabels.
    """
    d = _require_1bb_shape(a, ShapeClass.A)
    m = d.n_vertices
    pair = d.pairing()
    v = pair[2]
    gone = (v + 1, m - 1)

    def relabel(w: int) -> int:
        return w - (w > v + 1) - (w > m - 1)

    arcs = frozenset(
        (relabel(i), relabel(j)) for i, j in d.arcs if (i, j) != gone
    )
    out = as_shape(Diagram((m - 2,), arcs, planted=True))
    if shape_class(out) is not ShapeClass.B:
        raise ConsistencyError("surgery left the B-shape family")
    return out


def theta_inv(b: Shape | Diagram) -> Shape:
    """B-shape with n+1 arcs -> A-shape with n+2 arcs, same genus.

    Inserts a new arc with one endpoint just after vertex 2's partner
    and the other just before the right plant.
    """
    d = _require_1bb_shape(b, ShapeClass.B)
    m = d.n_vertices
    pair = d.pairing()
    v = pair[2]

    def relabel(w: int) -> int:
        return w + (w > v) + (w > m - 1)

    arcs = {(relabel(i), relabel(j)) for i, j in d.arcs}
    arcs.add((v + 1, m + 1))
    out = as_shape(Diagram((m + 2,), frozenset(arcs), planted=True))
    if shape_class(out) is not ShapeClass.A:
        raise ConsistencyError("surgery left the A-shape family")
    return out


def eta(q: Shape | Diagram) -> Shape:
    """Two-backbone shape of genus g -> one-backbone A-shape of genus g+1.

    Concatenates backbone 1 then backbone 2, keeps the old rainbows as
    ordinary arcs, wraps everything in a new rainbow.  Disconnected
    inputs (pairs of one-backbone shapes laid on two backbones) are part
    of the domain; their formal genus feeds the same bookkeeping.
    """
    d = _as_planted_diagram(q)
    if d.b != 2 or not is_shape(d):
        raise BijectionDomainError(
            "input is not a (possibly disconnected) two-backbone shape"
        )
    big = d.n_vertices
    arcs = {(i + 1, j + 1) for i, j in d.arcs}
    arcs.add((1, big + 2))
    out = as_shape(Diagram((big + 2,), frozenset(arcs), planted=True))
    if shape_class(out) is not ShapeClass.A:
        raise ConsistencyError("surgery left the A-shape family")
    return out


def eta_inv(a: Shape | Diagram) -> Diagram:
    """One-backbone A-shape of genus g+1 -> two-backbone shape of genus g.

    Removes the rainbow, cuts the backbone right after vertex 2's
    partner, and relabels.  The arcs that closed off the two pieces
    become the rainbows of the new backbones.  The result may be
    disconnected; it always satisfies the shape predicate.
    """
    d = _require_1bb_shape(a, ShapeClass.A)
    m = d.n_vertices
    pair = d.pairing()
    v = pair[2]
    arcs = frozenset(
        (i - 1, j - 1) for i, j in d.arcs if (i, j) != (1, m)
    )
    out = Diagram((v - 1, m - 1 - v), arcs, planted=True)
    if not is_shape(out):  # the surgery never leaves the shape family
        raise ConsistencyError("eta_inv produced a non-shape")
    return out
