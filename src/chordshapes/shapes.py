"""Shape projection, the shape predicate, and the A/B split.

A shape is a planted diagram without stacks, without 1-arcs inside a
backbone, and without isolated vertices.  Projection plants a diagram
and reduces it to the unique fixpoint of two moves: drop the inner arc
of two stacked arcs, and drop a 1-arc within one backbone or an
unpaired vertex.  :func:`_reduce` reaches that fixpoint in one
left-to-right scan over the paired vertices, so its cost grows with the
arc count, not with the backbone lengths.  :func:`project_shape` hands
it the planted pairing, computed by arithmetic, and builds no planted
copy of its input.  Rainbows may absorb stacks but are never
deleted themselves, so the result keeps one rainbow per backbone and the
same genus as the planted input.

A diagram whose non-rainbow content dies entirely reduces to the
rainbows-only planted diagram.  That degenerate value is reported with
the ``empty_pure_preshape`` flag rather than rejected, even though it is
not a proper shape (its rainbows are 1-arcs).

A shape's canonical code and loop profile are computed the first time
they are read and then kept on the object, so a shape that is handed out
many times, as a sampler's images are, is traced and serialised once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .diagram import Diagram, _planting, canonical_code
from .errors import BijectionDomainError, DiagramError
from .fatgraph import LoopProfile, classify_loops, genus


class ShapeClass(Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class Shape:
    """A planted, fully reduced diagram together with its genus.

    ``n_arcs`` counts all arcs including the rainbows.  Proper shapes
    satisfy :func:`is_shape`; the rainbow-only projection result does
    not and is flagged instead.
    ``code`` and ``loop_profile`` are computed on first read and kept;
    they take no part in equality, hashing or ``repr``.
    """

    diagram: Diagram
    genus: int

    @property
    def b(self) -> int:
        return self.diagram.b

    @property
    def n_arcs(self) -> int:
        return self.diagram.n_arcs

    @property
    def empty_pure_preshape(self) -> bool:
        return self.n_arcs == self.b

    @cached_property
    def code(self) -> str:
        """The canonical code of the diagram."""
        return canonical_code(self.diagram)

    @cached_property
    def loop_profile(self) -> LoopProfile:
        """The :func:`classify_loops` profile of the diagram."""
        return classify_loops(self.diagram)


def is_shape(d: Diagram) -> bool:
    """Strict shape predicate.

    Requires one rainbow per backbone, every vertex paired, no stack of
    two or more parallel arcs, and no arc (i, i+1) within one backbone.
    The last rule excludes rainbow-only backbones: a rainbow over a
    length-2 backbone is itself a 1-arc.
    """
    for s, e in d.bounds:
        if (s, e) not in d.arcs:
            return False
    if not d.is_matching:
        return False
    arcs = d.arcs
    for i, j in arcs:
        if (i + 1, j - 1) in arcs:
            return False
        # every backbone's last vertex is paired with its first by the
        # rainbow, so an arc (i, i+1) never spans two backbones
        if j == i + 1:
            return False
    return True


def as_shape(d: Diagram) -> Shape:
    """Wrap a diagram as a Shape, validating the predicate.

    The rainbow-only projection result is not a proper shape and is
    rejected here; only :func:`project_shape` produces it.
    """
    planted = _planted(d)
    if not is_shape(planted):
        raise DiagramError("diagram does not satisfy the shape predicate")
    return Shape(diagram=planted, genus=genus(planted))


def _planted(x: Shape | Diagram) -> Diagram:
    """The diagram of ``x``, with the outermost arc of every backbone
    read as its rainbow."""
    d = x.diagram if isinstance(x, Shape) else x
    return d if d.planted else Diagram(d.backbone_lengths, d.arcs, planted=True)


# -- projection ----------------------------------------------------------


def _reduce(pair: dict[int, int], bounds: tuple[tuple[int, int], ...]) -> Diagram:
    """Reduce a planted diagram, given by its pairing and its backbone
    bounds, to its shape in one left-to-right scan; the arc over each
    bound is that backbone's rainbow.

    The scan visits the paired vertices in order and keeps the surviving
    ones in prev/next links; an opening vertex is appended.  For a
    closing vertex ``w`` with partner ``u``:

    - if the last survivor ``y`` closes an arc ``(x, y)`` and ``x``
      comes straight after ``u``, drop ``x`` and ``y`` (the inner arc of
      a stack);
    - then, if the last survivor is ``u`` and ``(u, w)`` is not a
      rainbow, drop both (a 1-arc); otherwise append ``w``.

    At the end the survivors are relabelled.  Unpaired vertices are
    never visited, so none survives.

    One pass is enough:

    - Rainbows sit at both ends of every backbone and are never dropped,
      so no adjacency the scan tests crosses a backbone boundary.
    - Dropping an inner arc leaves the outer arc's opening vertex as the
      left neighbour of the gap, so no arc that closed earlier gains a
      new neighbouring arc.  In particular no second stack sits inside
      ``(u, w)`` after the first is dropped: it would have been straight
      inside ``(x, y)`` when ``y`` closed, and been dropped then.
    - The output therefore has no 1-arc, no stack and no unpaired
      vertex.  That is the unique fixpoint of the two moves.
    """
    rainbows = set(bounds)
    # the survivors and the sentinel 0 form a ring: prv[0] is the last
    # survivor; links of dropped vertices go stale and are never read
    prv = {0: 0}
    nxt = {0: 0}
    for w in sorted(pair):
        u = pair[w]
        y = prv[0]
        if u < w:
            x = pair[y]
            if x < y and nxt[u] == x:
                for v in (x, y):
                    nxt[prv[v]] = nxt[v]
                    prv[nxt[v]] = prv[v]
                y = prv[0]
            if y == u and (u, w) not in rainbows:
                nxt[prv[u]] = 0
                prv[0] = prv[u]
                continue
        nxt[y] = w
        prv[w] = y
        nxt[w] = 0
        prv[0] = w

    relabel: dict[int, int] = {}
    v = nxt[0]
    while v:
        relabel[v] = len(relabel) + 1
        v = nxt[v]
    lengths = tuple(relabel[e] - relabel[s] + 1 for s, e in bounds)
    arcs = frozenset(
        (relabel[pair[v]], relabel[v]) for v in relabel if pair[v] < v
    )
    return Diagram(lengths, arcs, planted=True)


def project_shape(d: Diagram) -> Shape:
    """Reduce the planted ``d`` to its shape.

    The scan of :func:`_reduce` runs on the planted pairing and
    bounds that :func:`plant` builds its diagram from, so no planted copy
    of ``d`` is built or validated.  The genus of the result equals the
    genus of the planted input.  A diagram with no surviving arcs yields
    the rainbows-only planted diagram, flagged via
    ``Shape.empty_pure_preshape``.
    """
    if d.planted:
        raise DiagramError("project_shape expects an unplanted diagram")
    reduced = _reduce(*_planting(d))
    return Shape(diagram=reduced, genus=genus(reduced))


# -- A/B classification ----------------------------------------------------


def shape_class(s: Shape | Diagram) -> ShapeClass:
    """Classify a proper one-backbone shape; an unplanted diagram is read
    with its outermost arc as the rainbow.

    This is the domain check of the surgeries on one backbone: anything
    else raises ``BijectionDomainError``.  The rainbow-only diagram is
    outside it, as its rainbow is a 1-arc.

    Let v be the partner of the first vertex after the left plant.  The
    shape is of class A iff v+1 exists, is not the right plant, and is
    paired with the last vertex before the right plant; otherwise B.
    """
    if s.b != 1 or not is_shape(d := _planted(s)):
        raise BijectionDomainError("input is not a proper one-backbone shape")
    return _class_of(d)


def _class_of(d: Diagram) -> ShapeClass:
    """:func:`shape_class` of a diagram that already passed its checks:
    a planted one-backbone diagram that satisfies :func:`is_shape`."""
    v = _partner_of_2(d)
    if (v + 1, d.n_vertices - 1) in d.arcs:
        return ShapeClass.A
    return ShapeClass.B


def _partner_of_2(d: Diagram) -> int:
    """The partner of vertex 2 in a planted one-backbone shape, where
    vertex 1 holds the rainbow, so vertex 2 opens its arc: read off that
    one arc, with no pairing built."""
    return next(j for i, j in d.arcs if i == 2)
