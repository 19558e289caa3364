"""Shape projection, the shape predicate, and the A/B split.

A shape is a planted diagram without stacks, without 1-arcs inside a
backbone, and without isolated vertices.  Projection plants a diagram
and then reduces it to the unique fixpoint of two moves: collapse every
maximal stack to its outermost arc, then delete every 1-arc within one
backbone together with all unpaired vertices.  Rainbows may absorb
stacks during collapse but are never deleted themselves, so the result
keeps one rainbow per backbone and the same genus as the planted input.

A diagram whose non-rainbow content dies entirely reduces to the
rainbows-only planted diagram.  That degenerate value is reported with
the ``empty_pure_preshape`` flag rather than rejected, even though it is
not a proper shape (its rainbows are 1-arcs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .diagram import Arc, Diagram, plant
from .errors import BijectionDomainError, ConsistencyError, DiagramError
from .fatgraph import genus


class ShapeClass(Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class Shape:
    """A planted, fully reduced diagram together with its genus.

    ``n_arcs`` counts all arcs including the rainbows; ``l`` counts the
    non-rainbow arcs.  Proper shapes satisfy :func:`is_shape`; the
    rainbow-only projection result does not and is flagged instead.
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
    def l(self) -> int:
        return self.n_arcs - self.b

    @property
    def empty_pure_preshape(self) -> bool:
        return self.n_arcs == self.b


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
        if (i + 1, j - 1) in arcs and i + 1 < j - 1:
            return False
        if j == i + 1 and d.backbone_of(i) == d.backbone_of(j):
            return False
    return True


def as_shape(d: Diagram) -> Shape:
    """Wrap a diagram as a Shape, validating the predicate.

    The rainbow-only projection result is not a proper shape and is
    rejected here; only :func:`project_shape` produces it.
    """
    planted = d if d.planted else Diagram(d.backbone_lengths, d.arcs, planted=True)
    if not is_shape(planted):
        raise DiagramError("diagram does not satisfy the shape predicate")
    return Shape(diagram=planted, genus=genus(planted))


# -- projection ----------------------------------------------------------


class _Reducer:
    """Mutable state for the collapse/delete fixpoint on a planted diagram.

    Vertices keep their original ids; adjacency is always evaluated on
    the current left-to-right order of the survivors.
    """

    def __init__(self, d: Diagram):
        if not d.planted:
            raise DiagramError("reduction needs a planted diagram")
        self.bbs: list[list[int]] = [
            list(range(s, e + 1)) for s, e in d.bounds
        ]
        self.pair: dict[int, int] = d.pairing()

    def _rainbows(self) -> set[Arc]:
        return {(bb[0], bb[-1]) for bb in self.bbs}

    def _order(self) -> list[int]:
        return [v for bb in self.bbs for v in bb]

    def _current_arcs(self) -> set[Arc]:
        return {(v, w) for v, w in self.pair.items() if v < w}

    def collapse_stacks(self) -> bool:
        """Collapse every maximal stack of length >= 2 to its outermost arc."""
        order = self._order()
        pos = {v: k for k, v in enumerate(order)}
        arcs = self._current_arcs()

        def inner(a: Arc) -> Arc | None:
            pi, pj = pos[a[0]], pos[a[1]]
            if pi + 1 < pj - 1:
                x, y = order[pi + 1], order[pj - 1]
                if self.pair.get(x) == y:
                    return (x, y) if x < y else (y, x)
            return None

        doomed: set[int] = set()
        outer = {a for a in arcs if _outer_of(a, pos, order, self.pair) is None}
        changed = False
        for a in outer:
            nxt = inner(a)
            while nxt is not None:
                doomed.update(nxt)
                changed = True
                nxt = inner(nxt)
        if changed:
            self._drop_vertices(doomed)
        return changed

    def delete_pass(self) -> bool:
        """Delete non-rainbow same-backbone 1-arcs and unpaired vertices."""
        rainbows = self._rainbows()
        doomed: set[int] = set()
        for bb in self.bbs:
            for x, y in zip(bb, bb[1:]):
                if self.pair.get(x) == y and (x, y) not in rainbows:
                    doomed.update((x, y))
        for bb in self.bbs:
            for v in bb:
                if v not in self.pair:
                    doomed.add(v)
        if doomed:
            self._drop_vertices(doomed)
            return True
        return False

    def _drop_vertices(self, doomed: set[int]) -> None:
        for v in doomed:
            w = self.pair.pop(v, None)
            if w is not None:
                del self.pair[w]
                if w not in doomed:  # half-dropped arcs never happen
                    raise ConsistencyError("arc endpoint dropped without partner")
        self.bbs = [[v for v in bb if v not in doomed] for bb in self.bbs]

    def to_diagram(self) -> Diagram:
        order = self._order()
        relabel = {v: k for k, v in enumerate(order, start=1)}
        lengths = tuple(len(bb) for bb in self.bbs)
        arcs = frozenset(
            (relabel[i], relabel[j]) for i, j in self._current_arcs()
        )
        return Diagram(lengths, arcs, planted=True)


def _outer_of(a: Arc, pos, order, pair) -> Arc | None:
    i, j = a
    pi, pj = pos[i], pos[j]
    if pi > 0 and pj + 1 < len(order):
        x, y = order[pi - 1], order[pj + 1]
        if pair.get(x) == y:
            return (x, y) if x < y else (y, x)
    return None


def reduce_planted(d: Diagram, *, delete_first: bool = False) -> Diagram:
    """Iterate collapse and delete on a planted diagram until stable.

    ``delete_first`` swaps the order of the two moves inside each round;
    the fixpoint is the same either way (checked by the confluence
    tests), only the default order is part of the contract.
    """
    red = _Reducer(d)
    while True:
        if delete_first:
            c1 = red.delete_pass()
            c2 = red.collapse_stacks()
        else:
            c1 = red.collapse_stacks()
            c2 = red.delete_pass()
        if not (c1 or c2):
            return red.to_diagram()


def project_shape(d: Diagram) -> Shape:
    """Plant ``d`` and reduce it to its shape.

    The genus of the result equals the genus of the planted input.  A
    diagram with no surviving arcs yields the rainbows-only planted
    diagram, flagged via ``Shape.empty_pure_preshape``.
    """
    if d.planted:
        raise DiagramError("project_shape expects an unplanted diagram")
    reduced = reduce_planted(plant(d))
    return Shape(diagram=reduced, genus=genus(reduced))


# -- A/B classification ----------------------------------------------------


def shape_class(s: Shape | Diagram) -> ShapeClass:
    """Classify a 1-backbone shape with at least one non-rainbow arc.

    Let v be the partner of the first vertex after the left plant.  The
    shape is of class A iff v+1 exists, is not the right plant, and is
    paired with the last vertex before the right plant; otherwise B.
    """
    d = s.diagram if isinstance(s, Shape) else s
    if d.b != 1:
        raise BijectionDomainError("shape class is defined for one backbone only")
    if not d.planted:
        d = Diagram(d.backbone_lengths, d.arcs, planted=True)
    if d.n_arcs < 2:
        raise BijectionDomainError("rainbow-only shape has no class")
    if not is_shape(d):
        raise BijectionDomainError("not a proper one-backbone shape")
    pair = d.pairing()
    m = d.n_vertices
    v = pair[2]
    if v + 1 <= m - 1 and pair.get(v + 1) == m - 1:
        return ShapeClass.A
    return ShapeClass.B
