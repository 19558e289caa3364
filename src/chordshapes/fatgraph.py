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
backbones are.  Each public function traces phi once.  A boundary
cycle never leaves its connected component, so ``component_genera``
reads the genus of every component off that one trace: it assigns each
cycle to the component of its first vertex and applies the Euler
relation per component, without splitting the diagram.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _trace(d: Diagram) -> tuple[list[Cycle], int]:
    """Cycles of phi = sigma o alpha plus empty cycles of arcless backbones.

    sigma steps to the next paired vertex of the same backbone (cyclic);
    each backbone's paired vertices are found by bisection in the sorted
    paired vertices, so unpaired vertices are never walked.
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
    return cycles, len(cycles)


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
    _, r = _trace(d)
    return _formal_genus(r, d.b, d.n_arcs)


def boundary_components(d: Diagram) -> BoundaryDecomposition:
    """Full boundary decomposition and genus, from one trace."""
    cycles, r = _trace(d)
    return BoundaryDecomposition(tuple(cycles), r, _formal_genus(r, d.b, d.n_arcs))


def component_genera(d: Diagram, dec: BoundaryDecomposition) -> list[int]:
    """Genus of each connected component of ``d``, in the order of
    ``components(d)``, read off ``dec = boundary_components(d)``.

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

    def _count(self, kind: str) -> int:
        return sum(1 for k in self.kinds if k == kind)

    @property
    def plant(self) -> int:
        return self._count("plant")

    @property
    def hairpin(self) -> int:
        return self._count("hairpin")

    @property
    def interior(self) -> int:
        return self._count("interior")

    @property
    def multi(self) -> int:
        return self._count("multi")

    @property
    def empty(self) -> int:
        return self._count("empty")

    @property
    def pseudoknot(self) -> int:
        return sum(1 for p in self.is_pseudoknot if p)

    @property
    def alpha(self) -> int:
        """Non-plant loops whose arcs all stay within a single backbone."""
        return sum(
            1
            for k, a in zip(self.kinds, self.is_alpha)
            if a and k not in ("plant", "empty")
        )

    @property
    def beta(self) -> int:
        """Non-plant loops traversing at least one exterior arc."""
        return sum(
            1
            for k, a in zip(self.kinds, self.is_alpha)
            if not a and k not in ("plant", "empty")
        )


def _has_crossing(arcs: list[tuple[int, int]]) -> bool:
    for x in range(len(arcs)):
        i, j = arcs[x]
        for y in range(x + 1, len(arcs)):
            r, s = arcs[y]
            if i < r < j < s or r < i < s < j:
                return True
    return False


def classify_loops(d: Diagram) -> LoopProfile:
    """Classify every boundary cycle of ``d``.

    Lengths count arc-sides.  A multi-loop is pseudoknotted iff the arcs
    it traverses contain a crossing pair; a loop is alpha iff every arc
    it traverses has both endpoints on one backbone.
    """
    dec = boundary_components(d)
    pair = d.pairing()
    starts = _starts(d)
    exterior: set[int] = set()
    for i, j in d.arcs:
        if bisect_right(starts, i) != bisect_right(starts, j):
            exterior.update((i, j))
    plant_heads = set(starts) if d.planted else set()

    kinds: list[str] = []
    alphas: list[bool] = []
    pks: list[bool] = []
    for cyc in dec.cycles:
        if not cyc:
            kinds.append("empty")
            alphas.append(True)
            pks.append(False)
            continue
        if len(cyc) == 1:
            kinds.append("plant" if cyc[0] in plant_heads else "hairpin")
            pks.append(False)
        elif len(cyc) == 2:
            kinds.append("interior")
            pks.append(False)
        else:
            kinds.append("multi")
            arcs = sorted({(min(v, pair[v]), max(v, pair[v])) for v in cyc})
            pks.append(_has_crossing(arcs))
        alphas.append(exterior.isdisjoint(cyc))
    return LoopProfile(dec, tuple(kinds), tuple(alphas), tuple(pks))
