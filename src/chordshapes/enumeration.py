"""Independent brute-force oracle: exhaustive, genus-pruned generation.

Matchings are built left to right, always pairing the first unpaired
vertex with every admissible later vertex.  The formal genus of a
partial diagram never exceeds the genus of any completion (each new arc
changes the boundary count by one, so the genus stays or grows by one),
which makes pruning on the partial genus sound.  Which of the two it is
follows from one walk of the boundary cycle through the first unpaired
vertex's gap, so the genus prune is decided before an arc is placed.
The walk needs nothing beyond the pairing alpha and the fixed backbone
order sigma, each vertex's successor on its backbone (the last one
wrapping to the first): the boundary cycles are the cycles of sigma
after alpha, so a walk steps from vertex to successor and jumps across
every arc it meets.  The kernel stores no face: whether two gaps share
a cycle, how many unpaired vertices a cycle holds and the arc sides
between them are all read off walks, so placing an arc and undoing it
set and clear the pairing and nothing else.  The rainbows of shape mode
need no bookkeeping either: each splits its arcless backbone's cycle and
leaves the genus and the count of odd cycles below as they were.  A
complete matching leaves no cycle with an odd count of unpaired
vertices, and only an arc that merges two cycles, raising the genus, can
remove two of them, so a partial diagram with more than twice the
remaining genus budget of odd cycles has no completion; that prune, too,
is decided before the arc is placed.  Shape mode additionally rejects
1-arcs within a backbone and parallel-adjacent arc pairs the moment both
arcs exist.

Shape mode also prunes on a face-side budget, decided before an arc is
placed as well.  A shape has no 1-arc and no stack, so every face but
the b one-sided plant faces has at least 3 sides.  A shape of genus g
with n arcs (rainbows included) has r = n - b + 2 - 2g faces and 2n
sides in all, so its non-plant faces exceed 3 sides by exactly
2n - b - 3(r - b) = hi - n in all, hi being the largest arc count:
6g - 1 on one backbone, 6g + 4 on two.  Cut each face of a partial
diagram at its unpaired vertices into segments.  A segment of q sides
ends up inside one final face, and a final face built from k segments
has sum(q) + k sides, as one side of a new arc follows each segment.
For k = 1 its excess over 3 is q - 2 >= 0; for k >= 2 it is at least
max(0, q - 2) summed over its segments, since a segment with q > 2 pays
the 3 and the others add q + 1 >= 0.  So the sum over closed faces of
max(0, sides - 3) plus the sum over segments of max(0, q - 2) never
exceeds hi - n, and a candidate that would raise it past that has no
completion.  On a complete shape the bound is exact, which the kernel
checks at every leaf it emits.

The budget also looks one arc ahead, since the bound never falls.  A
vertex left alone on its face shares that face with no other unpaired
vertex, so its arc must merge the face with another.  Its one segment
has at least one side, and it is joined across one side of that arc,
and the result again across the other, so the merge raises the bound by
at least 1.  Two lone vertices paired with each other raise it by at
least 1 in all, not 1 each, so the rule asks for 1 more, not 1 per
lone face: a candidate that leaves a vertex alone on its new face is
skipped when it would bring the bound to exactly hi - n.  With the bound at exactly hi - n, a segment of 2 or
more sides must close too: joined to any other segment it raises the
bound by at least 1, and only the arc between its two ends closes it.
Two such segments that meet at a vertex of a face with 3 or more
unpaired vertices have three distinct ends, and the middle one takes a
single arc, so at most one of them closes.  (On a face of 2 vertices
the arc between them closes both of its segments.)  So a candidate
that brings the bound to exactly hi - n is skipped as well when one of
its two new faces holds such a pair next to the segment the new arc
joined; the pairs the arc did not touch are not looked at.

Each node collects its admissible partners face by face: those on the
first unpaired vertex's face from the one walk of that face, and, when a
merge is admissible at all, those on every other face from one walk of
each, a face whose size the parity prune rejects dropped whole.  It then
places them in ascending order.  The search is deterministic: splits
ascending, partners ascending, so two runs yield identical sequences.
Two-backbone shapes are searched on the splits up to the middle only:
those on (c, a) for c > a are the ones on (a, c) with the two backbones
swapped, relabelled and sorted.  An optional node budget, counted in
placed arcs, turns oversized searches into an explicit failure instead
of a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Callable, Optional

from .diagram import Arc, Diagram
from .errors import ConsistencyError, DiagramError, InfeasibleError, _check_size
from .shapes import Shape, project_shape

Visit = Callable[[Diagram], None]

# The search recurses once per arc, and Python allows 1000 nested calls by
# default, so no search takes diagrams of more arcs than this.  The bound
# is fixed: no exhaustive search of that size could finish anyway.
_MAX_ARCS = 500
# Shape families are searched up to this many arcs: (1, 2) and (2, 1)
# reach 11 and 10, and the next ones, (1, 3) and (2, 2), hold 15,214,144
# and 7,577,504 shapes, which no exhaustive search could list.
_MAX_SHAPE_ARCS = 11
# Fibers are counted up to this many arcs, with no override: at genus 0
# and 8 arcs count_fiber projects 131,072 matchings, in about 10 s.
_MAX_FIBER_ARCS = 8


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate.

    ``genus_cap`` prunes partial diagrams; ``genus_exact`` additionally
    filters leaves (and tightens pruning from below).  Both prunes are
    decided before an arc is placed.  ``node_budget`` caps the number of
    arcs the search places (an arc the prunes reject is never placed and
    not counted).
    """

    backbones: int
    arcs_min: int
    arcs_max: int
    genus_cap: int
    genus_exact: Optional[int] = None
    connected_only: bool = False
    node_budget: Optional[int] = None

    def __post_init__(self):
        _check_size(self.backbones, "backbones", minimum=None)
        if self.backbones not in (1, 2):
            raise DiagramError("enumeration supports 1 or 2 backbones")
        _check_size(self.arcs_min, "arcs_min", minimum=None)
        _check_size(self.arcs_max, "arcs_max", minimum=None)
        if not (0 < self.arcs_min <= self.arcs_max):
            raise DiagramError("need 0 < arcs_min <= arcs_max")
        _check_size(self.genus_cap, "genus cap")
        if self.genus_exact is not None:
            _check_size(self.genus_exact, "exact genus", minimum=None)
        if self.node_budget is not None:
            _check_size(self.node_budget, "node budget")


def _odd_steps(odd: int, n_f: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The count of odd faces once an arc leaves a face of ``n_f`` unpaired
    vertices (its own two ends among them): on a split, indexed by the
    parity of p, the vertices between the ends; on a merge, by the parity
    of the other face's size.  These are ``odd - n_f&1 + p&1 +
    (n_f-2-p)&1`` and ``odd - n_f&1 - n_g&1 + (n_f+n_g)&1``."""
    if n_f & 1:
        return (odd, odd), (odd, odd - 2)
    return (odd, odd + 2), (odd, odd)


def _seg_rise(x: int, y: int) -> int:
    """How much the face-side bound grows when segments of x and y arc
    sides become one across a new arc's side: h(x + 1 + y) - h(x) - h(y)
    for h(q) = max(0, q - 2), the most a segment of q sides is sure to add
    to its final face's sides beyond 3."""
    rise = (x if x < 2 else 2) + (y if y < 2 else 2) - 1
    return rise if rise > 0 else 0


@lru_cache(maxsize=None)
def _rise_table(V: int) -> tuple[tuple[int, ...], ...]:
    """``_seg_rise`` of every pair of segment lengths a join can meet on
    ``V`` vertices (a face has at most V sides, a join across a side at
    most V + 1); it is symmetric, so row x holds the joins with a segment
    of x.  Every split of one vertex count shares it; the tables are
    kept for the process, each (V + 2)^2 small ints."""
    return tuple(tuple(_seg_rise(x, y) for y in range(V + 2)) for x in range(V + 2))


def _search_split(
    lengths: tuple[int, ...],
    genus_cap: int,
    genus_exact: Optional[int],
    connected_only: bool,
    emit: Callable[[tuple[Arc, ...]], None],
    budget: Optional[list[int]],
    spare: Optional[int],
) -> int:
    """Backtracking core for one backbone-length split of an even vertex
    total.  Returns the number of matchings emitted.

    The partial diagram is a fat graph with one vertex per backbone, so
    its formal genus is ``gp = (2 - b + d - r) / 2`` for ``d`` arcs and
    ``r`` boundary cycles (faces), an arcless backbone counting as one
    face.  The kernel keeps the diagram in two arrays: ``pair``, each
    vertex's partner or 0 (the pairing alpha, an unpaired vertex fixed),
    and ``succ``, the next vertex on the same backbone, wrapping at its
    end (the backbone order sigma).  ``succ`` is built once per split
    and never changes.  A face is a cycle of ``succ`` after ``pair``:
    ``walk(i)`` starts at ``succ[i]`` and runs until it is back at
    ``i``; at a paired vertex ``y`` it counts one arc side and goes on
    from ``succ[pair[y]]``, and at an unpaired vertex it records the
    vertex and the sides counted so far, then goes on from its ``succ``.
    So it lists the face's other unpaired vertices in cycle order after
    ``i``, in time linear in the face's vertices and sides, and on an
    arcless backbone it lists the backbone with no side.  Every unpaired
    vertex's gap (where it would go in) lies on exactly one face, and the
    kernel stores no face: it reads every face fact off a walk.  A new
    arc joins the gaps of ``i`` and ``j``: if both lie on the same face
    it splits that face in two (r + 1, gp unchanged), with the vertices
    strictly between ``i`` and ``j`` in cycle order on one side and the
    rest on the other; otherwise it merges the two faces into one
    (r - 1, gp + 1).  Each call walks the face of ``i``, the first
    unpaired vertex, once, in cycle order from ``i``: the vertices it
    lists are the split partners, by their position ``p`` on it, and the
    face holds ``len(on) + 1`` unpaired vertices.  Only when a merge is
    admissible are the other faces walked, each once, from one of the
    unpaired vertices off i's face; a face of a size the parity prune
    rejects is dropped whole, and every vertex of the others is a merge
    partner.  The call collects its admissible moves ``(j, genus, odd,
    lb)`` this way, face by face, and places them in ascending order of
    ``j``: a face lists its vertices in cycle order, not vertex order.
    The shape rules refuse at most three partners of ``i``, found once
    per call.  The walks give the exact genus of the diagram with the
    arc placed, so testing ``genus_cap`` and the ``genus_exact`` floor
    before placing the arc prunes the same subtrees as tracing after
    placing it.  Both
    tests are sound: gp never decreases as arcs are added, and each of
    the ``n_arcs - d`` arcs still to come raises it by at most one.

    Parity prune: let ``odd`` count the faces with an odd number of
    unpaired vertices.  A split of a face of size s into p and s - 2 - p
    cannot lower ``odd`` (for odd s exactly one side is odd; for even s
    both sides are even or both odd).  A merge lowers ``odd`` by at
    most 2 (two odd faces into one even face) and raises gp by one.  A
    complete matching has every face empty, so ``odd == 0``; any
    completion therefore needs at least ``odd / 2`` more merges and ends
    at genus at least ``gp + odd / 2``.  A candidate whose placement
    leaves ``odd > 2 * (genus_cap - gp)`` is skipped before it is
    placed; the shape rules only narrow the completions further.  When
    every merge is pruned, no other face is walked, and when only one
    parity of ``p`` is admissible, only the positions of that parity on
    i's face are read.

    Face-side prune (shape mode, ``spare`` = hi - n): ``lb`` is the
    module docstring's lower bound on the final faces' excess over 3
    sides, and a candidate that would make ``lb > spare`` is skipped
    before it is placed.  The walk of i's face also counts the arc sides
    from i's gap to each vertex on it and around the whole face, which
    gives the length of every segment there.  An arc changes only the
    segments at its two ends.  A split joins the segment into j with the
    one out of i across one side of the arc, and the segment out of j
    with the one into i across the other; a join that leaves no vertex
    closes into a face of q + 1 sides, which adds max(0, q - 2) as the
    segment did, so it changes nothing.  A merge joins i's segments with
    j's the same way, read from the walk of j's face.  ``_seg_rise`` is
    each join's rise in ``lb``, read from a table of it that the splits
    of one vertex count share, so a candidate costs O(1).  A split at
    ``p == 1`` or ``p == last - 1`` leaves ``on[0]`` or ``on[last]``
    alone on its new face; the merge that must pair that vertex joins its
    one segment (of at least the new arc's side) twice and raises ``lb``
    by at least 1, so such a split is skipped when it would bring ``lb``
    to exactly ``spare``.  The bound asks for 1, not 1 per lone vertex:
    two lone vertices merged with each other cost at least 1 in all, so
    lone faces do not add up.  A split that would bring ``lb`` to exactly
    ``spare`` is skipped, too, when on a new face of 3 or more vertices
    (``p > 2``, or ``last - p > 2``) the segment it joined and one next
    to it both have 2 or more sides: such a segment raises ``lb``
    whenever it is joined rather than closed by the arc between its
    ends, and of two that share a vertex at most one closes.  At an
    emitted leaf ``lb`` must equal ``spare``; anything else raises
    ``ConsistencyError``.
    With ``spare`` None the search enumerates all matchings: no shape
    rule and no face-side prune.

    Placing an arc sets ``pair`` at both ends and appends it to
    ``placed``, and the undo clears both again, so ``pair`` and
    ``placed`` are the whole mutable search state; ``gp``, ``odd``,
    ``lb`` and ``ext`` (the arcs between backbones) go down the
    recursion as arguments.  Shape mode plants the rainbows first.  A
    rainbow splits its backbone's arcless face and keeps l - 2 of its l
    unpaired vertices inside, which leaves gp and ``odd`` as they were,
    and it closes its one-sided plant face and leaves segments of at
    most one side, so ``lb`` starts at 0: planting is just the ``pair``
    assignments and the rainbows' entries at the head of ``placed``.
    """
    V = sum(lengths)
    n_arcs = V // 2
    b = len(lengths)
    shape = spare is not None

    # bb: the backbone of each vertex; succ: the next vertex on the same
    # backbone, wrapping at its end (sigma); pair: partner or 0
    bb = [0] * (V + 2)
    succ = list(range(1, V + 2))
    pair = [0] * (V + 2)
    placed: list[Arc] = []
    v = 0
    for k, l in enumerate(lengths):
        bb[v + 1 : v + l + 1] = [k] * l
        succ[v + l] = v + 1
        if shape:  # the rainbow over backbone k
            pair[v + 1] = v + l
            pair[v + l] = v + 1
            placed.append((v + 1, v + l))
        v += l
    count = 0

    def walk(i: int) -> tuple[list[int], list[int], int]:
        """The other unpaired vertices on the face through the gap of
        unpaired vertex i, in cycle order starting right after i, the arc
        sides from i's gap to each and the face's side count (0 on an
        arcless backbone)."""
        on: list[int] = []
        at: list[int] = []
        sides = 0
        y = succ[i]
        while y != i:
            x = pair[y]
            if x:
                sides += 1
                y = succ[x]
            else:
                on.append(y)
                at.append(sides)
                y = succ[y]
        return on, at, sides

    if shape:
        rise = _rise_table(V)

    def rec(lo: int, gp: int, odd: int, lb: int, ext: int) -> None:
        nonlocal count
        i = lo
        while pair[i]:
            i += 1
        on, at, sides = walk(i)
        # with (i, j) placed the genus is gp on a split (j on i's face) and
        # gp + 1 on a merge; decide both prunes for both cases up front,
        # the parity of the face sizes left behind being all that varies
        rest = n_arcs - len(placed) - 1  # arcs still to place after (i, j)
        slack = 2 * (genus_cap - gp)
        # gp <= genus_cap holds here: it starts at 1 - b and a merge, the
        # one step that raises it, is tried only while gp < genus_cap
        same_ok = genus_exact is None or gp + rest >= genus_exact
        other_ok = gp < genus_cap and (
            genus_exact is None or gp + 1 + rest >= genus_exact
        )
        split_odd, merge_odd = _odd_steps(odd, len(on) + 1)
        split_ok = (
            same_ok and split_odd[0] <= slack,
            same_ok and split_odd[1] <= slack,
        )
        merge_ok = (
            other_ok and merge_odd[0] <= slack - 2,
            other_ok and merge_odd[1] <= slack - 2,
        )
        if not (split_ok[0] or split_ok[1] or merge_ok[0] or merge_ok[1]):
            return
        # the admissible moves (j, genus, odd faces, lb) with (i, j) placed,
        # collected face by face and placed in ascending order of j
        moves: list[tuple[int, int, int, int]] = []
        refused: tuple[int, ...] = ()
        if shape:
            # the partners the shape rules refuse: i + 1 on i's backbone (a
            # 1-arc), and the ones that would stack (i, j) on the arc out
            # of i - 1 or of i + 1
            refused = (
                i + 1 if bb[i + 1] == bb[i] else 0,
                pair[i - 1] - 1,
                pair[i + 1] + 1,
            )
            last = len(on) - 1
            # the segments that end and start at i (one if i is alone)
            pre_i = sides - at[-1] if on else sides
            post_i = at[0] if on else sides
            rise_pre, rise_post = rise[pre_i], rise[post_i]
        if split_ok[0] or split_ok[1]:
            # the positions p on i's face of the admissible parities
            step = 1 if split_ok[0] and split_ok[1] else 2
            for p in range(0 if split_ok[0] else 1, len(on), step):
                j = on[p]
                if j in refused:
                    continue
                e = lb
                if shape:
                    # the side i..j joins the segment into j with the one
                    # out of i, and j..i the one out of j with the one into
                    # i; a side with no other vertex closes its segment
                    if p:
                        e += rise_post[at[p] - at[p - 1]]
                    if p < last:
                        e += rise_pre[at[p + 1] - at[p]]
                    # at p == 1 or p == last - 1 a vertex is left alone on
                    # its new face, and the merge that must pair it adds 1
                    if e + (p == 1 or p == last - 1) > spare:
                        continue
                    # with the budget spent, a new face of 3 or more vertices
                    # must not have its joined segment and one next to it
                    # both of 2 or more sides
                    if e == spare and (
                        p > 2
                        and at[p] - at[p - 1] + post_i
                        and (at[1] - at[0] > 1 or at[p - 1] - at[p - 2] > 1)
                        or last - p > 2
                        and at[p + 1] - at[p] + pre_i
                        and (at[p + 2] - at[p + 1] > 1 or at[last] - at[last - 1] > 1)
                    ):
                        continue
                moves.append((j, gp, split_odd[p & 1], e))
        if (merge_ok[0] or merge_ok[1]) and len(on) + 1 < V - 2 * len(placed):
            # the unpaired vertices off i's face (V - 2 len(placed) are
            # unpaired in all); each other face is walked once, from
            # whichever of its vertices the set yields
            others = set(range(i + 1, V + 1)).difference(on, *placed)
            while others:
                u = others.pop()
                on_u, at_u, sides_u = walk(u)
                others.difference_update(on_u)
                n_g = len(on_u) + 1
                if not merge_ok[n_g & 1]:
                    continue
                g, o = gp + 1, merge_odd[n_g & 1]
                face = (u, *on_u)
                if not shape:
                    moves += [(j, g, o, lb) for j in face]
                    continue
                # the side i..j joins the segment into i with the one out
                # of j, and j..i the one into j with the one out of i; a
                # face with one vertex has one segment, so it goes whole
                # between the other face's two (or closes)
                if not on_u:
                    if u not in refused:
                        e = lb + rise_pre[sides_u]
                        if on:
                            e += rise[pre_i + 1 + sides_u][post_i]
                        if e <= spare:
                            moves.append((u, g, o, e))
                    continue
                # the segment that starts at each vertex of the face, and
                # so the one that ends there
                post = [*map(sub, at_u, [0, *at_u]), sides_u - at_u[-1]]
                for j, pre_j, post_j in zip(face, [post[-1], *post], post):
                    if j in refused:
                        continue
                    if on:
                        e = lb + rise_pre[post_j] + rise_post[pre_j]
                    else:
                        e = lb + rise_pre[pre_j] + rise[pre_j + 1 + sides][post_j]
                    if e <= spare:
                        moves.append((j, g, o, e))
        # a face lists its vertices in cycle order, not in vertex order
        moves.sort()
        bb_i = bb[i]
        for j, g, o, e in moves:
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise InfeasibleError(
                        f"enumeration node budget of {budget[1]} placed arcs exceeded"
                    )

            x = ext + (bb_i != bb[j])
            pair[i] = j
            pair[j] = i
            placed.append((i, j))

            if not rest:
                if (genus_exact is None or g == genus_exact) and (
                    not connected_only or b == 1 or x > 0
                ):
                    if shape and e != spare:
                        raise ConsistencyError(
                            f"face sides exceed 3 by {e} in all, "
                            f"not the {spare} the Euler count gives"
                        )
                    count += 1
                    emit(tuple(placed))
            else:
                rec(i + 1, g, o, e, x)

            placed.pop()
            pair[i] = 0
            pair[j] = 0

    try:
        # b arcless backbones: r = b, d = 0, and the rainbows keep that
        rec(1, 1 - b, sum(l & 1 for l in lengths), 0, 0)
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
    in deterministic order; returns how many were visited.  More than 500
    arcs is refused up front with ``InfeasibleError``."""
    if spec.arcs_max > _MAX_ARCS:
        raise InfeasibleError(
            f"{spec.arcs_max} arcs: the search takes at most {_MAX_ARCS}"
        )
    # arcs the search may still place, and the budget it started with
    budget = [spec.node_budget] * 2 if spec.node_budget is not None else None
    total = 0
    for n in range(spec.arcs_min, spec.arcs_max + 1):
        for lengths in _all_splits(spec.backbones, 2 * n):
            if visit is None:
                emit = lambda arcs: None
            else:
                def emit(arcs: tuple[Arc, ...], _lengths=lengths) -> None:
                    visit(Diagram(_lengths, frozenset(arcs)))

            total += _search_split(
                lengths,
                spec.genus_cap,
                spec.genus_exact,
                spec.connected_only,
                emit,
                budget,
                None,
            )
    return total


def _shape_arc_range(b: int, g: int) -> tuple[int, int]:
    """Arc-count bounds for shapes of genus g over b backbones."""
    if b == 1:
        return 2 * g + 1, 6 * g - 1
    return 2 * g + 3, 6 * g + 4


def _swap_backbones(arcs: tuple[Arc, ...], a: int, c: int) -> tuple[Arc, ...]:
    """The arcs of a diagram on backbones of lengths (a, c), relabelled
    onto (c, a) by swapping the two backbones, sorted: a vertex v <= a
    becomes v + c and one v > a becomes v - a."""
    swapped = []
    for i, j in arcs:
        if j <= a:  # on the first backbone
            swapped.append((i + c, j + c))
        elif i > a:  # on the second
            swapped.append((i - a, j - a))
        else:  # between them: j's end now comes first
            swapped.append((j - a, i + c))
    swapped.sort()
    return tuple(swapped)


def enumerate_shapes(
    b: int,
    g: int,
    *,
    connected: bool = True,
    node_budget: Optional[int] = None,
) -> list[Shape]:
    """All shapes of genus g over b backbones, canonically ordered.

    For b = 2 only connected shapes are returned unless ``connected`` is
    False, in which case the disconnected pairs of one-backbone shapes
    of complementary genus are included as well.  Only b = 1, g <= 2
    and b = 2, g <= 1 are searched; larger families are refused up front
    with ``InfeasibleError``.

    For b = 2 only the splits (a, c) with a <= c are searched, and the
    shapes on (c, a) are those on (a, c) with the backbones swapped, so
    ``node_budget`` counts only the arcs placed in the searched splits.
    """
    _check_size(b, "backbones", minimum=None)
    if b not in (1, 2):
        raise DiagramError("shapes are tabulated over 1 or 2 backbones")
    _check_size(g, "genus")
    if node_budget is not None:
        _check_size(node_budget, "node budget")
    return _enumerate_shapes(b, g, connected, node_budget)


def _enumerate_shapes(
    b: int, g: int, connected: bool, node_budget: Optional[int]
) -> list[Shape]:
    """:func:`enumerate_shapes` on arguments the caller has checked."""
    if b == 1 and g == 0:
        return []  # no proper one-backbone shape has genus 0
    lo, hi = _shape_arc_range(b, g)
    if hi > _MAX_SHAPE_ARCS:
        raise InfeasibleError(
            f"up to {hi} arcs: shapes are enumerated up to {_MAX_SHAPE_ARCS} "
            f"arcs (b = 1, g <= 2 and b = 2, g <= 1)"
        )

    budget = [node_budget] * 2 if node_budget is not None else None
    shapes: list[Shape] = []
    last: tuple = ()

    def keep(n: int, lengths: tuple[int, ...], arcs: tuple[Arc, ...]) -> None:
        # each shape must come after the one before it in canonical order
        nonlocal last
        key = (n, lengths, arcs)
        if key <= last:
            raise ConsistencyError(f"shape emitted out of canonical order: {key}")
        last = key
        d = Diagram(lengths, frozenset(arcs), planted=True)
        shapes.append(Shape(diagram=d, genus=g))

    for n in range(lo, hi + 1):
        V = 2 * n
        # splits and partners ascend, so a searched split's shapes come in
        # canonical order; each mirrored split is sorted before it is kept
        splits = [(V,)] if b == 1 else [(k, V - k) for k in range(3, n + 1)]
        found: dict[tuple[int, ...], list[tuple[Arc, ...]]] = {}
        for lengths in splits:

            def emit(arcs: tuple[Arc, ...], _lengths=lengths) -> None:
                arcs = tuple(sorted(arcs))
                found[_lengths].append(arcs)
                keep(n, _lengths, arcs)

            found[lengths] = []
            _search_split(lengths, g, g, connected, emit, budget, hi - n)
        if b == 2:
            for c in range(n + 1, V - 2):
                a = V - c
                mirror = sorted(_swap_backbones(arcs, a, c) for arcs in found[a, c])
                for arcs in mirror:
                    keep(n, (c, a), arcs)
    return shapes


def count_fiber(s: Shape, n_arcs: int) -> int:
    """Number of connected two-backbone matchings with ``n_arcs`` arcs whose
    shape projection equals ``s`` (same genus by construction).  More than
    8 arcs is refused up front with ``InfeasibleError``."""
    if s.b != 2:
        raise DiagramError("fibers are counted for two-backbone shapes")
    if n_arcs > _MAX_FIBER_ARCS:
        raise InfeasibleError(
            f"{n_arcs} arcs: fibers are counted up to {_MAX_FIBER_ARCS} arcs"
        )
    hits = [0]

    def visit(d: Diagram) -> None:
        if project_shape(d).diagram == s.diagram:
            hits[0] += 1

    enumerate_matchings(
        EnumSpec(
            backbones=2,
            arcs_min=n_arcs,
            arcs_max=n_arcs,
            genus_cap=s.genus,
            genus_exact=s.genus,
            connected_only=True,
        ),
        visit,
    )
    return hits[0]
