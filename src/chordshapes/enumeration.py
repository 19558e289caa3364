"""Independent brute-force oracle: exhaustive, genus-pruned generation.

Matchings are built left to right, always pairing the first unpaired
vertex with every admissible later vertex.  The formal genus of a
partial diagram never exceeds the genus of any completion (each new arc
changes the boundary count by one, so the genus stays or grows by one),
which makes pruning on the partial genus sound.  Which of the two it is
follows from one walk of the boundary cycle through the first unpaired
vertex's gap, so the genus prune is decided before an arc is placed.
Shape mode additionally rejects 1-arcs within a backbone and
parallel-adjacent arc pairs the moment both arcs exist.

The search is deterministic: splits ascending, partners ascending, so
two runs yield identical sequences.  An optional node budget, counted in
placed arcs, turns oversized searches into an explicit failure instead
of a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .diagram import Arc, Diagram, canonical_code
from .errors import ConsistencyError, DiagramError, InfeasibleError
from .shapes import Shape, project_shape

Visit = Callable[[Diagram], None]


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate.

    ``genus_cap`` prunes partial diagrams; ``genus_exact`` additionally
    filters leaves (and tightens pruning from below).  Both prunes are
    decided before an arc is placed.  ``splits`` restricts the
    backbone-length compositions (default: all of them); each split
    holds one positive length per backbone, and applies to the arc count
    n with ``sum(split) == 2 * n``, which must lie in
    ``[arcs_min, arcs_max]``.  ``node_budget`` caps the
    number of arcs the search places (an arc the prunes reject is never
    placed and not counted).
    """

    backbones: int
    arcs_min: int
    arcs_max: int
    genus_cap: int
    genus_exact: Optional[int] = None
    connected_only: bool = False
    splits: Optional[tuple[tuple[int, ...], ...]] = None
    node_budget: Optional[int] = None

    def __post_init__(self):
        if self.backbones not in (1, 2):
            raise DiagramError("enumeration supports 1 or 2 backbones")
        if not (0 < self.arcs_min <= self.arcs_max):
            raise DiagramError("need 0 < arcs_min <= arcs_max")
        if self.genus_cap < 0:
            raise DiagramError("genus cap must be >= 0")
        if self.splits is not None and any(
            len(split) != self.backbones or min(split) < 1
            for split in self.splits
        ):
            raise DiagramError(
                "every split needs one positive length per backbone"
            )
        if self.splits is not None and any(
            sum(split) % 2 or not self.arcs_min <= sum(split) // 2 <= self.arcs_max
            for split in self.splits
        ):
            raise DiagramError("every split must cover 2n vertices for an arc count n")


def _search_split(
    lengths: tuple[int, ...],
    genus_cap: int,
    genus_exact: Optional[int],
    shape_only: bool,
    connected_only: bool,
    preplaced: tuple[Arc, ...],
    emit: Callable[[tuple[Arc, ...]], None],
    budget: Optional[list[int]],
) -> int:
    """Backtracking core for one backbone-length split.  Returns the number
    of matchings emitted.

    The partial diagram is a fat graph with one vertex per backbone, so
    its formal genus is ``gp = (2 - b + d - r) / 2`` for ``d`` arcs and
    ``r`` boundary cycles, an arcless backbone counting as one cycle.  A
    new arc joins two gaps (the positions where ``i`` and ``j`` go in):
    if both lie on the same boundary cycle it splits that cycle (r + 1,
    gp unchanged), otherwise it merges two cycles into one (r - 1,
    gp + 1).  The gap of ``i``, the first unpaired vertex, does not depend
    on the partner, so each call walks the cycle through it once and
    takes every candidate's genus from whether ``j``'s gap is on it.
    This is the exact genus of the diagram with the arc placed, so
    testing ``genus_cap`` and the ``genus_exact`` floor before placing
    the arc prunes the same subtrees as tracing after placing it.  Both
    tests are sound: gp never decreases as arcs are added, and each of
    the ``n_arcs - d`` arcs still to come raises it by at most one.  When
    gp + 1 is pruned, only the partners on the cycle are tried, which
    skips exactly the candidates the test would reject.  The rainbows go
    in through the same rule.
    """
    V = sum(lengths)
    if V % 2:
        return 0
    n_arcs = V // 2
    b = len(lengths)

    bb = [0] * (V + 2)
    v = 1
    for k, l in enumerate(lengths):
        for _ in range(l):
            bb[v] = k
            v += 1

    # pair: partner or 0; nxt/prv: the paired vertices of each backbone
    # as a ring in left-to-right order (the rotation sigma)
    pair = [0] * (V + 2)
    nxt = [0] * (V + 2)
    prv = [0] * (V + 2)
    bstart = [sum(lengths[:k]) + 1 for k in range(b)]
    bend = [sum(lengths[: k + 1]) for k in range(b)]

    ext = 0
    count = 0
    placed: list[Arc] = []

    def ring_pred(x: int) -> int:
        """The paired vertex cyclically before x on its backbone, 0 if none."""
        k = bb[x]
        w = x - 1
        while w >= bstart[k]:
            if pair[w]:
                return w
            w -= 1
        w = bend[k]
        while w > x:
            if pair[w]:
                return w
            w -= 1
        return 0

    def link(x: int, pred: int) -> None:
        """Insert x into its backbone's ring after pred (alone if pred is 0)."""
        if pred:
            s = nxt[pred]
            nxt[pred] = x
            prv[x] = pred
            nxt[x] = s
            prv[s] = x
        else:
            nxt[x] = prv[x] = x

    def unlink(x: int) -> None:
        p, s = prv[x], nxt[x]
        nxt[p] = s
        prv[s] = p

    def face(i: int, c: int) -> set[int] | range:
        """The unpaired vertices whose gaps lie on the boundary cycle
        through the gap of unpaired vertex i, which follows paired vertex
        c (0: i's backbone has no arc, and that backbone is the cycle)."""
        if not c:
            k = bb[i]
            return range(bstart[k], bend[k] + 1)
        on: set[int] = set()
        x = c
        while True:
            s = nxt[x]
            if s > x + 1:
                on.update(range(x + 1, s))
            elif s <= x:
                k = bb[x]
                on.update(range(x + 1, bend[k] + 1))
                on.update(range(bstart[k], s))
            x = pair[s]
            if x == c:
                return on

    def place(i: int, j: int, c: int) -> None:
        """Pair i (whose ring predecessor is c) with j."""
        nonlocal ext
        link(i, c)
        pair[i] = j
        link(j, ring_pred(j))
        pair[j] = i
        if bb[i] != bb[j]:
            ext += 1
        placed.append((i, j))

    gp = 1 - b  # b arcless backbones: r = b, d = 0
    for i, j in preplaced:
        c = ring_pred(i)
        if j not in face(i, c):
            gp += 1
        place(i, j, c)

    def rec(lo: int, gp: int) -> None:
        nonlocal ext, count
        i = lo
        while pair[i]:
            i += 1
        # with (i, j) placed the genus is gp if j's gap is on i's cycle and
        # gp + 1 if not; test both values against the prunes up front
        rest = n_arcs - len(placed) - 1  # arcs still to place after (i, j)
        same_ok = gp <= genus_cap and (
            genus_exact is None or gp + rest >= genus_exact
        )
        other_ok = gp < genus_cap and (
            genus_exact is None or gp + 1 + rest >= genus_exact
        )
        c = ring_pred(i)
        on = face(i, c)
        bb_i = bb[i]
        left_partner = pair[i - 1]
        for j in range(i + 1, V + 1) if other_ok else sorted(on):
            if pair[j] or j <= i:
                continue
            if shape_only:
                if j == i + 1 and bb_i == bb[j]:
                    continue
                if left_partner == j + 1 or pair[i + 1] == j - 1:
                    continue
            if j in on:
                if not same_ok:
                    continue
                g = gp
            else:
                g = gp + 1
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise InfeasibleError("enumeration node budget exceeded")

            place(i, j, c)

            if not rest:
                if (genus_exact is None or g == genus_exact) and (
                    not connected_only or b == 1 or ext > 0
                ):
                    count += 1
                    emit(tuple(placed))
            else:
                rec(i + 1, g)

            # undo
            placed.pop()
            if bb_i != bb[j]:
                ext -= 1
            unlink(j)
            unlink(i)
            pair[i] = 0
            pair[j] = 0

    try:
        rec(1, gp)
    finally:
        # rec refers to itself, a cycle that would keep the arrays and
        # emit's results alive until the next full garbage collection
        del rec
    return count


def _all_splits(b: int, total: int) -> list[tuple[int, ...]]:
    if b == 1:
        return [(total,)]
    return [(k, total - k) for k in range(1, total)]


def enumerate_matchings(spec: EnumSpec, visit: Optional[Visit] = None) -> int:
    """Visit every perfect-matching diagram meeting ``spec`` exactly once,
    in deterministic order; returns how many were visited."""
    budget = [spec.node_budget] if spec.node_budget is not None else None
    total = 0
    for n in range(spec.arcs_min, spec.arcs_max + 1):
        if spec.splits is None:
            splits = _all_splits(spec.backbones, 2 * n)
        else:
            splits = [s for s in spec.splits if sum(s) == 2 * n]
        for lengths in splits:
            if visit is None:
                emit = lambda arcs: None
            else:
                def emit(arcs: tuple[Arc, ...], _lengths=lengths) -> None:
                    visit(Diagram(_lengths, frozenset(arcs)))

            total += _search_split(
                tuple(lengths),
                spec.genus_cap,
                spec.genus_exact,
                False,
                spec.connected_only,
                (),
                emit,
                budget,
            )
    return total


def _shape_arc_range(b: int, g: int) -> tuple[int, int]:
    """Arc-count bounds for shapes of genus g over b backbones."""
    if b == 1:
        return 2 * g + 1, 6 * g - 1
    return 2 * g + 3, 6 * g + 4


def enumerate_shapes(
    b: int,
    g: int,
    *,
    connected: bool = True,
    force: bool = False,
    node_budget: Optional[int] = None,
) -> list[Shape]:
    """All shapes of genus g over b backbones, canonically ordered.

    For b = 2 only connected shapes are returned unless ``connected`` is
    False, in which case the disconnected pairs of one-backbone shapes
    of complementary genus are included as well.  Guaranteed feasible
    for b = 1, g <= 2 and b = 2, g <= 1; larger searches need ``force``.
    """
    if b not in (1, 2):
        raise DiagramError("shapes are tabulated over 1 or 2 backbones")
    if g < 0:
        raise DiagramError("genus must be >= 0")
    if b == 1 and g == 0:
        return []  # no proper one-backbone shape has genus 0
    lo, hi = _shape_arc_range(b, g)
    if hi > 11 and not force:
        raise InfeasibleError(
            f"up to {hi} arcs: exhaustive search needs force=True"
        )

    budget = [node_budget] if node_budget is not None else None
    found: dict[str, Diagram] = {}
    for n in range(lo, hi + 1):
        V = 2 * n
        if b == 1:
            splits = [(V,)]
        else:
            splits = [(k, V - k) for k in range(3, V - 2)]
        for lengths in splits:
            if b == 1:
                preplaced: tuple[Arc, ...] = ((1, V),)
            else:
                preplaced = ((1, lengths[0]), (lengths[0] + 1, V))

            def emit(arcs: tuple[Arc, ...], _lengths=lengths) -> None:
                d = Diagram(_lengths, frozenset(arcs), planted=True)
                code = canonical_code(d)
                if code in found:
                    raise ConsistencyError(f"duplicate shape emitted: {code}")
                found[code] = d

            _search_split(
                tuple(lengths),
                g,
                g,
                True,
                connected,
                preplaced,
                emit,
                budget,
            )

    diagrams = sorted(
        found.values(),
        key=lambda d: (d.n_arcs, d.backbone_lengths, tuple(sorted(d.arcs))),
    )
    return [Shape(diagram=d, genus=g) for d in diagrams]


def count_fiber(
    s: Shape,
    n_arcs: int,
    *,
    force: bool = False,
    node_budget: Optional[int] = None,
) -> int:
    """Number of connected two-backbone matchings with ``n_arcs`` arcs whose
    shape projection equals ``s`` (same genus by construction)."""
    if s.b != 2:
        raise DiagramError("fibers are counted for two-backbone shapes")
    if n_arcs > 8 and not force:
        raise InfeasibleError("fiber counting beyond 8 arcs needs force=True")
    target = canonical_code(s.diagram)
    hits = [0]

    def visit(d: Diagram) -> None:
        if canonical_code(project_shape(d).diagram) == target:
            hits[0] += 1

    enumerate_matchings(
        EnumSpec(
            backbones=2,
            arcs_min=n_arcs,
            arcs_max=n_arcs,
            genus_cap=s.genus,
            genus_exact=s.genus,
            connected_only=True,
            node_budget=node_budget,
        ),
        visit,
    )
    return hits[0]
