"""Boundary cycles, genus and loop taxonomy of the collapsed fat graph.

Collapsing each backbone to a single fattened vertex turns a diagram
into a polygonal fat graph whose edges are the arcs.  With one half-edge
per paired vertex, sigma cycles the half-edges of each backbone in left
to right order, alpha swaps the two half-edges of every arc, and the
boundary components are the cycles of phi = sigma o alpha.  Writing r
for the number of boundary cycles and n for the number of arcs, the
Euler relation 2 - 2g - r = b - n defines the genus; applied verbatim
to disconnected diagrams it yields the formal genus, which can be
negative.

Unpaired vertices carry no half-edge: they subdivide a boundary without
changing r or g.  A backbone with no paired vertex at all still bounds
one disk, so it contributes one empty cycle; this keeps the Euler count
integral on degenerate inputs (an odd count raises ConsistencyError).

A trace walks the paired vertices only, so it costs O(n log n) in the
arc count n plus O(b log n) for the backbones, however long the
backbones are.  The trace builds the one ``BoundaryDecomposition``
(cycles, r and genus) that every public function reads, and each public
function still traces phi once: ``genus`` reads its genus,
``boundary_components`` returns it and ``classify_loops`` classifies its
cycles.  A boundary cycle never leaves its connected component, so
``component_genera`` reads the genus of every component off that one
trace: it assigns each cycle to the component of its first vertex and
applies the Euler relation per component, without splitting the
diagram.

``classify_loops`` reads the arcs of every loop off the pairing that
its trace built, so one call pairs the diagram once.  Its crossing test
is one stack scan over a multi-loop's sorted endpoints, O(k log k) for
a loop of k arcs, so a whole classification stays O(n log n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass

from .diagram import Diagram, _backbone_roots, _starts
from .errors import ConsistencyError

Cycle = tuple[int, ...]


@dataclass(frozen=True)
class BoundaryDecomposition:
    """Cycles of the face permutation, with the derived genus data.

    Each cycle lists its arc-sides as the vertices whose half-edges it
    traverses; empty tuples stand for the disk boundaries of arcless
    backbones.  Every arc contributes exactly two arc-sides overall.
    """

    cycles: tuple[Cycle, ...]
    r: int
    genus: int


def _trace(d: Diagram) -> tuple[BoundaryDecomposition, dict[int, int]]:
    """The one ``BoundaryDecomposition`` of ``d``, and the pairing it
    was traced on.

    Its cycles are those of phi = sigma o alpha, then one empty cycle per
    arcless backbone.  sigma steps to the next paired vertex of the same
    backbone (cyclic); each backbone's paired vertices are found by
    bisection in the sorted paired vertices, so unpaired vertices are
    never walked.
    """
    pair = d.pairing()
    paired = sorted(pair)
    nxt: dict[int, int] = {}
    arcless = 0
    for s, e in d.bounds:
        vs = paired[bisect_left(paired, s):bisect_right(paired, e)]
        if not vs:
            arcless += 1
        for a, b in zip(vs, vs[1:] + vs[:1]):
            nxt[a] = b
    cycles: list[Cycle] = []
    seen: set[int] = set()
    for v in paired:
        if v in seen:
            continue
        cyc = []
        x = v
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = nxt[pair[x]]
        cycles.append(tuple(cyc))
    cycles += [()] * arcless
    r = len(cycles)
    dec = BoundaryDecomposition(tuple(cycles), r, _formal_genus(r, d.b, d.n_arcs))
    return dec, pair


def _formal_genus(r: int, b: int, n_arcs: int) -> int:
    num = 2 - r - b + n_arcs
    if num % 2:
        raise ConsistencyError("Euler count must be even")
    return num // 2


def genus(d: Diagram) -> int:
    """Formal genus from 2 - 2g - r = b - n (n = arc count).

    Negative values are possible for disconnected diagrams, e.g. -1 for
    two disjoint planar components on two backbones.
    """
    return _trace(d)[0].genus


def boundary_components(d: Diagram) -> BoundaryDecomposition:
    """Full boundary decomposition and genus, from one trace."""
    return _trace(d)[0]


def component_genera(d: Diagram, dec: BoundaryDecomposition) -> list[int]:
    """Genus of each connected component of ``d``, ordered by each
    component's first backbone, read off ``dec = boundary_components(d)``.

    A boundary cycle never leaves its component, so each component's
    Euler count takes its backbones, its non-empty cycles and half the
    arc-sides on them (every arc has two).  An arcless backbone is a
    component of its own, bounded by one empty cycle: genus 0.
    """
    roots = _backbone_roots(d)
    starts = _starts(d)
    b = [0] * d.b
    r = [0] * d.b
    sides = [0] * d.b
    for k in roots:
        b[k] += 1
    for cyc in dec.cycles:
        if cyc:
            k = roots[bisect_right(starts, cyc[0]) - 1]
            r[k] += 1
            sides[k] += len(cyc)
    # a component with arcs has a non-empty cycle; one without has only
    # its empty cycle
    return [
        _formal_genus(r[k] or 1, b[k], sides[k] // 2)
        for k in range(d.b)
        if roots[k] == k
    ]


@dataclass(frozen=True)
class LoopProfile:
    """Per-boundary-cycle loop classification.

    ``boundary`` is the decomposition that was classified, and ``kinds``
    is aligned with its cycles:
    "plant" for the length-1 boundary along a rainbow, "hairpin" /
    "interior" / "multi" for lengths 1 / 2 / >= 3 otherwise, and
    "empty" for arcless backbones.  ``is_alpha`` marks cycles all of
    whose traversed arcs stay within one backbone; ``is_pseudoknot``
    marks multi-loops traversing at least one crossing pair of arcs.
    """

    boundary: BoundaryDecomposition
    kinds: tuple[str, ...]
    is_alpha: tuple[bool, ...]
    is_pseudoknot: tuple[bool, ...]

    @property
    def plant(self) -> int:
        return self.kinds.count("plant")

    @property
    def hairpin(self) -> int:
        return self.kinds.count("hairpin")

    @property
    def interior(self) -> int:
        return self.kinds.count("interior")

    @property
    def multi(self) -> int:
        return self.kinds.count("multi")

    @property
    def empty(self) -> int:
        return self.kinds.count("empty")

    @property
    def pseudoknot(self) -> int:
        return self.is_pseudoknot.count(True)

    # a plant loop runs along its rainbow and an empty one along no arc,
    # so both are alpha: every non-alpha loop is a beta loop
    @property
    def alpha(self) -> int:
        """Non-plant loops whose arcs all stay within a single backbone."""
        return self.is_alpha.count(True) - self.plant - self.empty

    @property
    def beta(self) -> int:
        """Non-plant loops traversing at least one exterior arc."""
        return self.is_alpha.count(False)


def _has_crossing(arcs: Iterable[tuple[int, int]]) -> bool:
    """True iff two of ``arcs`` cross; arcs are pairs i < j whose
    endpoints are all distinct.

    Arcs cross nowhere iff every closing endpoint closes the arc opened
    most recently among those still open, so one stack scan over the
    sorted endpoints decides it in O(k log k) for k arcs.
    """
    close = dict(arcs)
    open_ends: list[int] = []
    for v in sorted([*close, *close.values()]):
        if v in close:
            open_ends.append(close[v])
        elif open_ends.pop() != v:
            return True
    return False


def classify_loops(d: Diagram) -> LoopProfile:
    """Classify every boundary cycle of ``d``.

    Lengths count arc-sides.  A multi-loop is pseudoknotted iff the arcs
    it traverses contain a crossing pair; a loop is alpha iff every arc
    it traverses has both endpoints on one backbone.
    """
    dec, pair = _trace(d)
    starts = _starts(d)
    exterior: set[int] = set()
    for i, j in d.arcs:
        if bisect_right(starts, i) != bisect_right(starts, j):
            exterior.update((i, j))
    plant_heads = set(starts) if d.planted else set()

    kinds: list[str] = []
    pks: list[bool] = []
    for cyc in dec.cycles:
        pk = False
        if not cyc:
            kinds.append("empty")
        elif len(cyc) == 1:
            kinds.append("plant" if cyc[0] in plant_heads else "hairpin")
        elif len(cyc) == 2:
            kinds.append("interior")
        else:
            kinds.append("multi")
            pk = _has_crossing({(min(v, pair[v]), max(v, pair[v])) for v in cyc})
        pks.append(pk)
    # an empty cycle is disjoint from every set, so it stays alpha
    alphas = tuple(exterior.isdisjoint(cyc) for cyc in dec.cycles)
    return LoopProfile(dec, tuple(kinds), alphas, tuple(pks))
