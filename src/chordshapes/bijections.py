"""Label surgeries pairing shape families of neighbouring genus.

theta deletes the distinguished arc of a one-backbone A-shape and lands
on the B-shape with one arc less at the same genus; theta_inv inserts it
back.  eta glues the two backbones of a (possibly disconnected) planted
two-backbone shape into one, turns the old rainbows into ordinary arcs,
adds a fresh rainbow and lands on a one-backbone A-shape with one more
arc and genus raised by one; eta_inv cuts it apart again.

All maps are pure relabelings: outputs carry no memory of old labels,
and every output is checked once against the shape predicate and, on
one backbone, its A/B class.  Each public map is a private
diagram-level surgery (``_theta``, ``_theta_inv``, ``_eta``,
``_eta_inv``) with an input check on top: it raises
``BijectionDomainError`` outside its domain, on one backbone through
:func:`shapes.shape_class`, which reads an unplanted diagram with its
outermost arc as the rainbow.  The private surgeries skip that input
check only because their caller has validated the input already: the
sampler's forward build hands ``_eta`` the two-backbone shapes of the
enumeration kernel and ``_theta`` the A-shapes that ``_eta`` returned.
"""

from __future__ import annotations

from .diagram import Diagram
from .errors import BijectionDomainError, ConsistencyError
from .fatgraph import genus
from .shapes import (
    Shape,
    ShapeClass,
    _class_of,
    _partner_of_2,
    _planted,
    is_shape,
    shape_class,
)


def _in_family(out: Diagram, want: ShapeClass | None) -> Diagram:
    """``out``, once checked to be a shape and, on one backbone, a shape
    of class ``want``; ``want`` is None for a two-backbone output."""
    if not is_shape(out) or (want is not None and _class_of(out) is not want):
        family = "two-backbone shape" if want is None else f"{want.value}-shape"
        raise ConsistencyError(f"surgery left the {family} family")
    return out


def theta(a: Shape | Diagram) -> Shape:
    """A-shape with n+2 arcs -> B-shape with n+1 arcs, same genus.

    Removes the arc joining the successor of vertex 2's partner to the
    last vertex before the right plant, drops its endpoints, relabels.
    """
    d = _planted(a)
    if shape_class(d) is not ShapeClass.A:
        raise BijectionDomainError("input is not an A-shape")
    out = _theta(d, _partner_of_2(d))
    return Shape(out, genus(out))


def _theta(d: Diagram, v: int) -> Diagram:
    """:func:`theta` on a planted A-shape diagram the caller has
    validated, whose vertex 2 is paired with ``v``; returns the B-shape
    diagram."""
    m = d.n_vertices
    gone = (v + 1, m - 1)

    def relabel(w: int) -> int:
        return w - (w > v + 1) - (w > m - 1)

    arcs = frozenset(
        (relabel(i), relabel(j)) for i, j in d.arcs if (i, j) != gone
    )
    return _in_family(Diagram((m - 2,), arcs, planted=True), ShapeClass.B)


def theta_inv(b: Shape | Diagram) -> Shape:
    """B-shape with n+1 arcs -> A-shape with n+2 arcs, same genus.

    Inserts a new arc with one endpoint just after vertex 2's partner
    and the other just before the right plant.
    """
    d = _planted(b)
    if shape_class(d) is not ShapeClass.B:
        raise BijectionDomainError("input is not a B-shape")
    out = _theta_inv(d)
    return Shape(out, genus(out))


def _theta_inv(d: Diagram) -> Diagram:
    """:func:`theta_inv` on a planted B-shape diagram the caller has
    validated; returns the A-shape diagram."""
    m = d.n_vertices
    v = _partner_of_2(d)

    def relabel(w: int) -> int:
        return w + (w > v) + (w > m - 1)

    arcs = {(relabel(i), relabel(j)) for i, j in d.arcs}
    arcs.add((v + 1, m + 1))
    out = Diagram((m + 2,), frozenset(arcs), planted=True)
    return _in_family(out, ShapeClass.A)


def eta(q: Shape | Diagram) -> Shape:
    """Two-backbone shape of genus g -> one-backbone A-shape of genus g+1.

    Concatenates backbone 1 then backbone 2, keeps the old rainbows as
    ordinary arcs, wraps everything in a new rainbow.  Disconnected
    inputs (pairs of one-backbone shapes laid on two backbones) are part
    of the domain; their formal genus feeds the same bookkeeping.
    """
    d = _planted(q)
    if d.b != 2 or not is_shape(d):
        raise BijectionDomainError(
            "input is not a (possibly disconnected) two-backbone shape"
        )
    out = _eta(d)
    return Shape(out, genus(out))


def _eta(d: Diagram) -> Diagram:
    """:func:`eta` on a planted two-backbone shape diagram the caller has
    validated; returns the A-shape diagram.  Its vertex 2 is paired with
    the first backbone's length plus one, the old left rainbow's end."""
    big = d.n_vertices
    arcs = {(i + 1, j + 1) for i, j in d.arcs}
    arcs.add((1, big + 2))
    return _in_family(Diagram((big + 2,), frozenset(arcs), planted=True), ShapeClass.A)


def eta_inv(a: Shape | Diagram) -> Diagram:
    """One-backbone A-shape of genus g+1 -> two-backbone shape of genus g.

    Removes the rainbow, cuts the backbone right after vertex 2's
    partner, and relabels.  The arcs that closed off the two pieces
    become the rainbows of the new backbones.  The result may be
    disconnected; it always satisfies the shape predicate.
    """
    d = _planted(a)
    if shape_class(d) is not ShapeClass.A:
        raise BijectionDomainError("input is not an A-shape")
    return _eta_inv(d)


def _eta_inv(d: Diagram) -> Diagram:
    """:func:`eta_inv` on a planted A-shape diagram the caller has
    validated."""
    m = d.n_vertices
    v = _partner_of_2(d)
    arcs = frozenset(
        (i - 1, j - 1) for i, j in d.arcs if (i, j) != (1, m)
    )
    return _in_family(Diagram((v - 1, m - 1 - v), arcs, planted=True), None)
