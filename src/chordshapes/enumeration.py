"""Independent brute-force oracle: exhaustive, genus-pruned generation.

Matchings are built left to right, always pairing the first unpaired
vertex with every admissible later vertex.  A partial diagram is a fat
graph with one vertex per backbone; its boundary cycles (faces) are the
cycles of the backbone order sigma (each vertex's successor on its
backbone, the last one wrapping to the first) after the pairing alpha,
an arcless backbone counting as one face.  Every unpaired vertex's gap
(where an arc would go in) lies on exactly one face.  A new arc joins
two gaps: if both lie on the same face it splits that face in two,
keeping the formal genus, and otherwise it merges the two faces into
one, raising the genus by one.  The kernel stores no face: it reads
every face fact off a walk of sigma after alpha (see ``_search_split``),
so every prune below is decided before an arc is placed.

Genus prune.  A search keeps the matchings whose genus lies in a
closed window, ``genus_min`` to ``genus_max``.  The formal genus of a
partial diagram never falls as arcs are added, and each arc still to
come raises it by at most one.  So a candidate that would take the
genus past ``genus_max``, or leave too few arcs to reach ``genus_min``,
has no admissible completion.  Testing both before the arc is placed
prunes the same subtrees as tracing the genus after placing it, and no
leaf is tested again: at a leaf no arc is left to come, so the floor
prune has kept its genus at least ``genus_min`` and the cap prune at
most ``genus_max``.

Parity prune.  Let ``odd`` count the faces with an odd number of
unpaired vertices.  A split of a face of s unpaired vertices into p and
s - 2 - p cannot lower it: for odd s exactly one side is odd, and for
even s both sides are even or both odd.  A merge lowers it by at most
2, two odd faces into one even face, and raises the genus by one.  A
complete matching leaves every face empty, so ``odd == 0``, and any
completion needs at least ``odd / 2`` more merges.  A candidate that
would leave ``odd`` above twice the remaining genus budget is therefore
skipped.  When every merge is pruned no other face is walked, and when
only one parity of p is admissible only those positions are read.

Shape rules.  A shape has no 1-arc within a backbone and no stack (two
parallel adjacent arcs), so every face but its b plant faces has at
least 3 sides.  Shape mode refuses a split (i, j), i the first unpaired
vertex, that closes a face of fewer: one that closes the segment out of
i, or the one from j back to i, with a side of the new arc.  As every
arc placed so far, rainbows included, pairs i + 1 leftwards or not at
all, this refuses exactly the 1-arcs, which close the 0-sided segment
out of i (j = i + 1), and the stacks, which close a 1-sided segment into
i across the arc out of i - 1.  A 1-sided segment out of i would cross
the arc out of i + 1 back to i, so it ends at no partner.  A stack whose
inner arc comes later is refused when that arc is placed.  Both refused
partners lie on i's own face, so no merge makes a 1-arc or a stack.  The
rainbows are planted first.  Each splits its arcless backbone's face and
keeps all but its own two vertices inside, so the genus and ``odd`` stay
as they were.

Face-side budget.  A shape of genus g with n arcs (rainbows included)
has r = n - b + 2 - 2g faces, b of them one-sided plant faces, and 2n
sides in all, so its other faces exceed 3 sides by exactly
2n - b - 3(r - b) = hi - n in all, hi being the largest arc count:
6g - 1 on one backbone, 6g + 4 on two.  Cut each face of a partial
diagram at its unpaired vertices into segments.  A segment of q sides
ends up inside one final face, and a final face built from k segments
has sum(q) + k sides, as one side of a new arc follows each segment.
For k = 1 its excess over 3 is q - 2 >= 0; for k >= 2 it is at least
max(0, q - 2) summed over its segments, since a segment with q > 2 pays
the 3 and the others add q + 1 >= 0.  So the bound ``lb``, the sum over
closed faces of max(0, sides - 3) plus the sum over segments of
max(0, q - 2), never exceeds hi - n, and a candidate that would raise
it past that has no completion.  An arc changes only the segments at
its two ends.  A split of i's face at j joins the segment into j with
the one out of i across one side of the arc, and the segment out of j
with the one into i across the other; a merge joins i's segments with
j's the same way.  A join that leaves no vertex closes into a face of
q + 1 sides, which adds max(0, q - 2) as the segment did, so it changes
nothing.  Each join's rise in ``lb`` is read from a table that the
splits of one vertex count share, so a candidate costs O(1).  The
rainbows close their plant faces and leave segments of at most one
side, so ``lb`` starts at 0.  On a complete shape the bound is exact,
and every emitted leaf whose ``lb`` differs raises ``ConsistencyError``.

Look-ahead.  The bound never falls, so the budget also looks one arc
ahead.  A vertex left alone on its face shares that face with no other
unpaired vertex, so its arc must merge the face with another.  Its one
segment has at least one side, and it is joined across one side of that
arc, and the result again across the other, so the merge raises the
bound by at least 1.  Two lone vertices paired with each other raise it
by at least 1 in all, not 1 each, so the rule asks for 1 more, not 1
per lone face: a candidate that leaves a vertex alone on its new face
is skipped when it would bring the bound to exactly hi - n.  With the
bound at exactly hi - n, a segment of 2 or more sides must close too:
joined to any other segment it raises the bound by at least 1, and only
the arc between its two ends closes it.  Two such segments that meet at
a vertex of a face with 3 or more unpaired vertices have three distinct
ends, and the middle one takes a single arc, so at most one of them
closes.  (On a face of 2 vertices the arc between them closes both of
its segments.)  So a candidate that brings the bound to exactly hi - n
is skipped as well when one of its two new faces holds such a pair next
to the segment the new arc joined; the pairs the arc did not touch are
not looked at.

Each node collects its admissible partners face by face: those on the
first unpaired vertex's face from the one walk of that face, and, when a
merge is admissible at all, those on every other face from one walk of
each, a face whose size the parity prune rejects dropped whole.  It then
places them in ascending order.  The search is deterministic: splits
ascending, partners ascending, so two runs yield identical sequences.
A leaf reads its arcs off the pairing in ascending order, so each
split's matchings come in canonical order, arcs and all.  Two-backbone
shapes are searched on the splits up to the middle only: those on
(c, a) for c > a are the ones on (a, c) with the two backbones swapped,
relabelled and sorted.  An optional node budget, counted in placed
arcs, turns oversized searches into an explicit failure instead of a
silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

    The search keeps the diagrams whose genus lies in a closed window:
    1 - b (the lowest formal genus) to ``genus_cap``, or, with
    ``genus_exact``, that genus alone (none if the cap is below it).
    ``genus_exact`` filters no leaf: the window's two prunes are decided
    before an arc is placed.  ``node_budget`` caps the number of arcs
    the search places (an arc the prunes reject is never placed and not
    counted).
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
    genus_min: int,
    genus_max: int,
    connected_only: bool,
    emit: Callable[[tuple[Arc, ...]], None],
    budget: Optional[list[int]],
    spare: Optional[int],
) -> None:
    """Backtracking core for one backbone-length split of an even vertex
    total: emits the matchings of genus ``genus_min`` to ``genus_max``.
    The prunes and why they are sound are in the module docstring; this
    is the state they read.

    State.  ``pair`` holds each vertex's partner or 0 (the pairing alpha,
    an unpaired vertex fixed) and ``succ`` the next vertex on the same
    backbone, wrapping at its end (the backbone order sigma).  ``succ``
    is built once per split and never changes.  The formal genus ``gp =
    (2 - b + d - r) / 2`` for ``d`` arcs and ``r`` faces, the count
    ``odd`` of odd faces, the face-side bound ``lb`` and ``rest``, the
    arcs still to place after the one a call places, go down the
    recursion as arguments.  A two-backbone leaf is connected iff some
    vertex of the first backbone is paired past its end, ``lengths[0]``.

    Walk.  A face is a cycle of ``succ`` after ``pair``.  ``walk(i)``
    starts at ``succ[i]`` and runs until it is back at ``i``.  At a
    paired vertex ``y`` it counts one arc side of the current segment and
    goes on from ``succ[pair[y]]``.  At an unpaired vertex it records the
    vertex and the segment's sides, starts a new segment and goes on from
    its ``succ``.  It returns ``(on, seg)``: ``on`` lists the face's other
    unpaired vertices in cycle order after ``i``, ``seg[k]`` is the number
    of arc sides in the segment that ends at ``on[k]``, and ``seg[-1]`` is
    the segment back to ``i``.  A lone vertex gets ``on == []`` and one
    segment, the whole face (no side on an arcless backbone).  A walk
    takes time linear in the face's vertices and sides.  Each call walks
    the face of ``i``, the first unpaired vertex, once: the vertices in
    ``on`` are the split partners, by their position ``p``, and the face
    holds ``len(on) + 1`` unpaired vertices.  Only when a merge is
    admissible are the other faces walked, each once, from its lowest
    unpaired vertex.  Every segment a candidate joins is read from
    ``seg`` or the other face's ``seg_u`` by index.

    Place and undo.  Placing an arc sets ``pair`` at both ends, and the
    undo clears both again, so ``pair`` is the whole mutable search
    state.  Shape mode plants the rainbows first: each is just its two
    ``pair`` entries.  A leaf reads its arcs off ``pair`` in ascending
    order, the rainbows among them, so every emitted tuple is in
    canonical order.  With ``spare`` (hi - n) None the search enumerates
    all matchings: no shape rule and no face-side prune.
    """
    V = sum(lengths)
    n_arcs = V // 2
    b = len(lengths)
    shape = spare is not None

    # succ: the next vertex on the same backbone, wrapping at its end
    # (sigma); pair: partner or 0
    succ = list(range(1, V + 2))
    pair = [0] * (V + 2)
    v = 0
    for l in lengths:
        succ[v + l] = v + 1
        if shape:  # the rainbow over this backbone
            pair[v + 1] = v + l
            pair[v + l] = v + 1
        v += l
    end = lengths[0]  # the last vertex of the first backbone

    def walk(i: int) -> tuple[list[int], list[int]]:
        """The other unpaired vertices on the face through the gap of
        unpaired vertex i, in cycle order starting right after i, and the
        arc sides of the segment that ends at each, the last one back at
        i; a lone vertex has one segment, the whole face (no side on an
        arcless backbone)."""
        on: list[int] = []
        seg: list[int] = []
        q = 0
        y = succ[i]
        while y != i:
            x = pair[y]
            if x:
                q += 1
                y = succ[x]
            else:
                on.append(y)
                seg.append(q)
                q = 0
                y = succ[y]
        seg.append(q)
        return on, seg

    if shape:
        rise = _rise_table(V)

    def rec(lo: int, gp: int, odd: int, lb: int, rest: int) -> None:
        i = lo
        while pair[i]:
            i += 1
        on, seg = walk(i)
        # with (i, j) placed the genus is gp on a split (j on i's face) and
        # gp + 1 on a merge; decide both prunes for both cases up front,
        # the parity of the face sizes left behind being all that varies
        slack = 2 * (genus_max - gp)
        # gp <= genus_max holds here: it starts at 1 - b, a merge, the one
        # step that raises it, is tried only while gp < genus_max, and a
        # window that ends below 1 - b leaves the root slack < 0 and no
        # merge, so the root places nothing
        same_ok = gp + rest >= genus_min
        other_ok = gp < genus_max and gp + 1 + rest >= genus_min
        split_odd, merge_odd = _odd_steps(odd, len(on) + 1)
        split_ok = (
            same_ok and split_odd[0] <= slack,
            same_ok and split_odd[1] <= slack,
        )
        merge_ok = (
            other_ok and merge_odd[0] <= slack - 2,
            other_ok and merge_odd[1] <= slack - 2,
        )
        # the admissible moves (j, genus, odd faces, lb) with (i, j) placed,
        # collected face by face and placed in ascending order of j
        moves: list[tuple[int, int, int, int]] = []
        if shape:
            last = len(on) - 1
            # the segments that end and start at i (one if i is alone)
            pre_i, post_i = seg[-1], seg[0]
            rise_pre, rise_post = rise[pre_i], rise[post_i]
        if split_ok[0] or split_ok[1]:
            # the positions p on i's face of the admissible parities
            step = 1 if split_ok[0] and split_ok[1] else 2
            for p in range(0 if split_ok[0] else 1, len(on), step):
                e = lb
                if shape:
                    # the face rule: at p == 0 the side i..j closes the
                    # segment out of i (no side: a 1-arc), at p == last
                    # the side j..i the one into i (one side: a stack)
                    if p == 0 and post_i < 2 or p == last and pre_i < 2:
                        continue
                    # the side i..j joins the segment into j with the one
                    # out of i, and j..i the one out of j with the one into
                    # i; a side with no other vertex closes its segment
                    if p:
                        e += rise_post[seg[p]]
                    if p < last:
                        e += rise_pre[seg[p + 1]]
                    # at p == 1 or p == last - 1 a vertex is left alone on
                    # its new face, and the merge that must pair it adds 1
                    if e + (p == 1 or p == last - 1) > spare:
                        continue
                    # with the budget spent, a new face of 3 or more vertices
                    # must not have its joined segment and one next to it
                    # both of 2 or more sides
                    if e == spare and (
                        p > 2
                        and seg[p] + post_i
                        and (seg[1] > 1 or seg[p - 1] > 1)
                        or last - p > 2
                        and seg[p + 1] + pre_i
                        and (seg[p + 2] > 1 or seg[last] > 1)
                    ):
                        continue
                moves.append((on[p], gp, split_odd[p & 1], e))
        if (merge_ok[0] or merge_ok[1]) and len(on) < 2 * rest + 1:
            # some unpaired vertex is off i's face (2 rest + 2 are unpaired
            # in all); each other face is walked once, from its lowest
            # unpaired vertex
            seen = set(on)
            for u in range(i + 1, V + 1):
                if pair[u] or u in seen:
                    continue
                on_u, seg_u = walk(u)
                seen.update(on_u)
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
                    e = lb + rise_pre[seg_u[0]]
                    if on:
                        e += rise[pre_i + 1 + seg_u[0]][post_i]
                    if e <= spare:
                        moves.append((u, g, o, e))
                    continue
                # the segments that end and start at each vertex of the face
                for j, pre_j, post_j in zip(face, [seg_u[-1], *seg_u], seg_u):
                    if on:
                        e = lb + rise_pre[post_j] + rise_post[pre_j]
                    else:
                        e = lb + rise_pre[pre_j] + rise[pre_j + 1 + pre_i][post_j]
                    if e <= spare:
                        moves.append((j, g, o, e))
        # a face lists its vertices in cycle order, not in vertex order
        moves.sort()
        for j, g, o, e in moves:
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise InfeasibleError(
                        f"enumeration node budget of {budget[1]} placed arcs exceeded"
                    )

            pair[i] = j
            pair[j] = i

            if not rest:
                if not connected_only or b == 1 or max(pair[1 : end + 1]) > end:
                    if shape and e != spare:
                        raise ConsistencyError(
                            f"face sides exceed 3 by {e} in all, "
                            f"not the {spare} the Euler count gives"
                        )
                    # ascending, the rainbows in place: canonical order
                    emit(tuple((v, w) for v, w in enumerate(pair) if v < w))
            else:
                rec(i + 1, g, o, e, rest - 1)

            pair[i] = 0
            pair[j] = 0

    try:
        # b arcless backbones: r = b, d = 0, and the rainbows keep that;
        # the arcs left after the first are all but it and the rainbows
        rest = n_arcs - (b if shape else 0) - 1
        rec(1, 1 - b, sum(l & 1 for l in lengths), 0, rest)
    finally:
        # rec refers to itself, a cycle that would keep the arrays and
        # emit's results alive until the next full garbage collection
        del rec


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
    # the genus window: from the lowest formal genus, or the exact genus
    if spec.genus_exact is None:
        window = (1 - spec.backbones, spec.genus_cap)
    else:
        window = (spec.genus_exact, min(spec.genus_cap, spec.genus_exact))
    if window[0] > window[1]:
        # an exact genus above the cap: the floor prune alone would let
        # each split run until too few arcs are left
        return 0
    total = 0
    for n in range(spec.arcs_min, spec.arcs_max + 1):
        V = 2 * n
        splits = [(V,)] if spec.backbones == 1 else [(k, V - k) for k in range(1, V)]
        for lengths in splits:

            def emit(arcs: tuple[Arc, ...], _lengths=lengths) -> None:
                nonlocal total
                total += 1
                if visit is not None:
                    visit(Diagram(_lengths, frozenset(arcs)))

            _search_split(lengths, *window, spec.connected_only, emit, budget, None)
    return total


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
    # the arc counts of the shapes of genus g over b backbones (none for
    # b = 1, g = 0: no proper one-backbone shape has genus 0)
    lo, hi = (2 * g + 1, 6 * g - 1) if b == 1 else (2 * g + 3, 6 * g + 4)
    if hi > _MAX_SHAPE_ARCS:
        raise InfeasibleError(
            f"up to {hi} arcs: shapes are enumerated up to {_MAX_SHAPE_ARCS} "
            f"arcs (b = 1, g <= 2 and b = 2, g <= 1)"
        )

    budget = [node_budget] * 2 if node_budget is not None else None
    # the shapes of each split, the splits in ascending order of arc count
    # and then of lengths: splits and partners ascend, so a searched
    # split's shapes come in canonical order, and each mirrored split is
    # sorted
    found: dict[tuple[int, ...], list[tuple[Arc, ...]]] = {}
    for n in range(lo, hi + 1):
        V = 2 * n
        splits = [(V,)] if b == 1 else [(k, V - k) for k in range(3, n + 1)]
        for lengths in splits:
            leaves = found[lengths] = []
            _search_split(lengths, g, g, connected, leaves.append, budget, hi - n)
        if b == 2:
            for c in range(n + 1, V - 2):
                a = V - c
                mirror = (_swap_backbones(arcs, a, c) for arcs in found[a, c])
                found[c, a] = sorted(mirror)
    shapes: list[Shape] = []
    last: tuple = ()
    for lengths, leaves in found.items():
        for arcs in leaves:
            # each shape must come after the one before it in canonical order
            key = (len(arcs), lengths, arcs)
            if key <= last:
                raise ConsistencyError(f"shape emitted out of canonical order: {key}")
            last = key
            d = Diagram(lengths, frozenset(arcs), planted=True)
            shapes.append(Shape(diagram=d, genus=g))
    return shapes


def count_fiber(s: Shape, n_arcs: int) -> int:
    """Number of connected two-backbone matchings with ``n_arcs`` arcs whose
    shape projection equals ``s`` (same genus by construction).  More than
    8 arcs is refused up front with ``InfeasibleError``."""
    if s.b != 2:
        raise DiagramError("fibers are counted for two-backbone shapes")
    _check_size(n_arcs, "arc count", minimum=1)
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
