"""Independent brute-force oracle: exhaustive, genus-pruned generation.

Matchings are built left to right, always pairing the first unpaired
vertex with every admissible later vertex.  The formal genus of a
partial diagram never exceeds the genus of any completion (each new arc
changes the boundary count by one, so the genus stays or grows by one),
which makes pruning on the partial genus sound.  Shape mode additionally
rejects 1-arcs within a backbone and parallel-adjacent arc pairs the
moment both arcs exist.

The search is deterministic: splits ascending, partners ascending, so
two runs yield identical sequences.  An optional node budget turns
oversized searches into an explicit failure instead of a silent
truncation.
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
    filters leaves (and tightens pruning from below).  ``splits``
    restricts the backbone-length compositions (default: all of them).
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
    of matchings emitted."""
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

    pair = [0] * (V + 2)
    nxt = [0] * (V + 2)
    prv = [0] * (V + 2)
    inring = [False] * (V + 2)
    seen = [0] * (V + 2)
    paired_cnt = [0] * b
    bstart = [sum(lengths[:k]) + 1 for k in range(b)]
    bend = [sum(lengths[: k + 1]) for k in range(b)]

    empties = b
    ext = 0
    stamp = 0
    count = 0
    placed: list[Arc] = []

    def ring_insert(x: int) -> None:
        k = bb[x]
        pred = 0
        w = x - 1
        while w >= bstart[k]:
            if inring[w]:
                pred = w
                break
            w -= 1
        if not pred:
            w = x + 1
            while w <= bend[k]:
                if inring[w]:
                    pred = prv[w]
                    break
                w += 1
        if pred:
            s = nxt[pred]
            nxt[pred] = x
            prv[x] = pred
            nxt[x] = s
            prv[s] = x
        else:
            nxt[x] = prv[x] = x
        inring[x] = True

    def ring_remove(x: int) -> None:
        p, s = prv[x], nxt[x]
        nxt[p] = s
        prv[s] = p
        inring[x] = False

    def place(i: int, j: int) -> None:
        nonlocal empties, ext
        pair[i] = j
        pair[j] = i
        for x in (i, j):
            k = bb[x]
            if paired_cnt[k] == 0:
                empties -= 1
            paired_cnt[k] += 1
        ring_insert(i)
        ring_insert(j)
        if bb[i] != bb[j]:
            ext += 1
        placed.append((i, j))

    # The preplaced arcs are the rainbows: alone they have formal genus 0
    # on one backbone and -1 on two, so they never exceed genus_cap >= 0,
    # and the arrays are local to this call, so they are never undone.
    for i, j in preplaced:
        place(i, j)

    def rec(lo: int) -> None:
        nonlocal empties, ext, stamp, count
        i = lo
        while pair[i]:
            i += 1
        bb_i = bb[i]
        left_partner = pair[i - 1]
        for j in range(i + 1, V + 1):
            if pair[j]:
                continue
            if shape_only:
                if j == i + 1 and bb_i == bb[j]:
                    continue
                if left_partner == j + 1 or pair[i + 1] == j - 1:
                    continue
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise InfeasibleError("enumeration node budget exceeded")

            # place (i, j), maintaining the sigma rings and counters
            bb_j = bb[j]
            pair[i] = j
            pair[j] = i
            if paired_cnt[bb_i] == 0:
                empties -= 1
            paired_cnt[bb_i] += 1
            if paired_cnt[bb_j] == 0:
                empties -= 1
            paired_cnt[bb_j] += 1
            ring_insert(i)
            ring_insert(j)
            external = bb_i != bb_j
            if external:
                ext += 1
            placed.append((i, j))
            d = len(placed)

            # formal genus of the partial diagram, by tracing phi = sigma o alpha
            stamp += 1
            r = empties
            for a, c in placed:
                if seen[a] != stamp:
                    r += 1
                    x = a
                    while seen[x] != stamp:
                        seen[x] = stamp
                        x = nxt[pair[x]]
                if seen[c] != stamp:
                    r += 1
                    x = c
                    while seen[x] != stamp:
                        seen[x] = stamp
                        x = nxt[pair[x]]
            gp = (2 - r - b + d) // 2

            if gp <= genus_cap and (
                genus_exact is None or gp + (n_arcs - d) >= genus_exact
            ):
                if d == n_arcs:
                    if (genus_exact is None or gp == genus_exact) and (
                        not connected_only or b == 1 or ext > 0
                    ):
                        count += 1
                        emit(tuple(placed))
                else:
                    rec(i + 1)

            # undo
            placed.pop()
            if external:
                ext -= 1
            ring_remove(j)
            ring_remove(i)
            paired_cnt[bb_i] -= 1
            if paired_cnt[bb_i] == 0:
                empties += 1
            paired_cnt[bb_j] -= 1
            if paired_cnt[bb_j] == 0:
                empties += 1
            pair[i] = 0
            pair[j] = 0

    rec(1)
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
        splits = spec.splits or _all_splits(spec.backbones, 2 * n)
        for lengths in splits:
            if sum(lengths) != 2 * n:
                raise DiagramError("split does not match the arc count")

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
