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

Each public function traces phi once.  The genus of each connected
component is ``genus`` applied to ``diagram.components``, which only
callers that need it pay for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram
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


def _sigma_next(d: Diagram) -> dict[int, int]:
    """sigma as "next paired vertex", cyclic within each backbone."""
    paired = set()
    for i, j in d.arcs:
        paired.add(i)
        paired.add(j)
    nxt: dict[int, int] = {}
    for s, e in d.bounds:
        vs = [v for v in range(s, e + 1) if v in paired]
        for a, b in zip(vs, vs[1:] + vs[:1]):
            nxt[a] = b
    return nxt


def _trace(d: Diagram) -> tuple[list[Cycle], int]:
    """Cycles of phi = sigma o alpha plus empty cycles of arcless backbones."""
    nxt = _sigma_next(d)
    pair = d.pairing()
    cycles: list[Cycle] = []
    seen: set[int] = set()
    for v in range(1, d.n_vertices + 1):
        if v not in pair or v in seen:
            continue
        cyc = []
        x = v
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = nxt[pair[x]]
        cycles.append(tuple(cyc))
    for s, e in d.bounds:
        if all(v not in pair for v in range(s, e + 1)):
            cycles.append(())
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
    plant_heads = (
        {s for s, _ in d.bounds} if d.planted else set()
    )

    kinds: list[str] = []
    alphas: list[bool] = []
    pks: list[bool] = []
    for cyc in dec.cycles:
        if not cyc:
            kinds.append("empty")
            alphas.append(True)
            pks.append(False)
            continue
        arcs = sorted({(min(v, pair[v]), max(v, pair[v])) for v in cyc})
        alpha = all(d.backbone_of(i) == d.backbone_of(j) for i, j in arcs)
        if len(cyc) == 1:
            kinds.append("plant" if cyc[0] in plant_heads else "hairpin")
            pks.append(False)
        elif len(cyc) == 2:
            kinds.append("interior")
            pks.append(False)
        else:
            kinds.append("multi")
            pks.append(_has_crossing(arcs))
        alphas.append(alpha)
    return LoopProfile(dec, tuple(kinds), tuple(alphas), tuple(pks))
