"""Chord diagrams over one or more backbones.

A diagram places its vertices 1..n left to right on ``b`` horizontal
backbones and draws every arc (i, j), i < j, in the upper half-plane.
Vertex indices are global: backbone k occupies the contiguous block that
follows backbone k-1.  Arcs form a partial fixed-point-free involution,
so every vertex is paired at most once.

Planting adds one outermost "rainbow" arc per backbone (two fresh
vertices joined over the whole backbone).  Rainbows are ordinary
vertices and arcs here, which keeps the later surgeries pure relabeling.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .errors import DiagramError, ParseError

Arc = tuple[int, int]

_ARC_RE = re.compile(r"^(\d+)-(\d+)$")
_TOKEN_RE = re.compile(r"\S+")


def _decimal(n: int) -> str:
    """``str(n)`` for an error message, which must not itself fail on a
    number past the interpreter's integer-digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit number>"


class IntervalKind(Enum):
    """Kind of a length-1 interval [i, i+1] between consecutive vertices."""

    GAP = "gap"        # i is the last vertex of a backbone
    P = "P"            # strictly inside a stack, between two of its arcs
    SIGMA = "sigma"    # everything else


@dataclass(frozen=True)
class Diagram:
    """A labeled chord diagram over ``b`` backbones.

    ``backbone_lengths`` lists the number of vertices per backbone (all
    positive); ``arcs`` is a set of pairs (i, j) with i < j over the
    global vertex range 1..n.  ``planted`` records that the outermost
    pair of vertices of every backbone is a rainbow added by
    :func:`plant`; it is never serialized.
    """

    backbone_lengths: tuple[int, ...]
    arcs: frozenset[Arc]
    planted: bool = False
    bounds: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        lengths = tuple(int(x) for x in self.backbone_lengths)
        arcs = frozenset((int(i), int(j)) for i, j in self.arcs)
        object.__setattr__(self, "backbone_lengths", lengths)
        object.__setattr__(self, "arcs", arcs)

        if not lengths:
            raise DiagramError("a diagram needs at least one backbone")
        if any(l < 1 for l in lengths):
            raise DiagramError("backbone lengths must be positive")

        n = sum(lengths)
        bounds = []
        start = 1
        for l in lengths:
            bounds.append((start, start + l - 1))
            start += l
        object.__setattr__(self, "bounds", tuple(bounds))

        seen: set[int] = set()
        for i, j in arcs:
            if not (1 <= i < j <= n):
                raise DiagramError(
                    f"arc ({_decimal(i)},{_decimal(j)}) out of range"
                    f" 1..{_decimal(n)} or not i<j"
                )
            if i in seen or j in seen:
                raise DiagramError(
                    f"arc ({_decimal(i)},{_decimal(j)}) reuses an already"
                    " paired vertex"
                )
            seen.add(i)
            seen.add(j)

        if self.planted:
            for s, e in bounds:
                if s == e:
                    raise DiagramError("a length-1 backbone cannot carry a rainbow")
                if (s, e) not in arcs:
                    raise DiagramError(
                        f"planted diagram is missing the rainbow ({s},{e})"
                    )

    # -- basic accessors -------------------------------------------------

    @property
    def b(self) -> int:
        return len(self.backbone_lengths)

    @property
    def n_vertices(self) -> int:
        return self.bounds[-1][1]

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def is_matching(self) -> bool:
        return 2 * len(self.arcs) == self.n_vertices

    def backbone_of(self, v: int) -> int:
        """0-based index of the backbone containing vertex v."""
        if not 1 <= v <= self.n_vertices:
            raise DiagramError(f"vertex {_decimal(v)} out of range")
        return bisect_right(self.bounds, v, key=itemgetter(0)) - 1

    def pairing(self) -> dict[int, int]:
        """Partner map containing both directions of every arc."""
        p: dict[int, int] = {}
        for i, j in self.arcs:
            p[i] = j
            p[j] = i
        return p

    @property
    def rainbow_arcs(self) -> tuple[Arc, ...]:
        """The per-backbone rainbows of a planted diagram."""
        if not self.planted:
            raise DiagramError("diagram is not planted")
        return tuple((s, e) for s, e in self.bounds)


# -- text format ---------------------------------------------------------


def _number(digits: str, line: int, column: int) -> int:
    """``int(digits)``, with the interpreter's digit limit as a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number of {len(digits)} digits is too long", line, column
        ) from None


def parse_diagram(text: str) -> Diagram:
    """Parse the two-line diagram format.

    Line 1 holds the backbone lengths, line 2 the arcs as ``i-j`` tokens
    (1-based global indices).  ``#`` starts a comment, a blank or absent
    arc line means no arcs, and ``|`` may replace the newline so that a
    whole diagram fits on one line.
    """
    lines = text.replace("|", "\n").split("\n")
    significant: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0]
        if stripped.strip():
            significant.append((lineno, stripped))

    if not significant:
        raise ParseError("no backbone-length line", 1, 1)
    if len(significant) > 2:
        lineno, _ = significant[2]
        raise ParseError("unexpected extra line", lineno, 1)

    lineno, lengths_line = significant[0]
    lengths: list[int] = []
    for m in _TOKEN_RE.finditer(lengths_line):
        tok = m.group(0)
        length = _number(tok, lineno, m.start() + 1) if tok.isdecimal() else 0
        if length < 1:
            raise ParseError(
                f"backbone length {tok!r} is not a positive integer",
                lineno,
                m.start() + 1,
            )
        lengths.append(length)
    n = sum(lengths)

    arcs: set[Arc] = set()
    used: dict[int, int] = {}
    if len(significant) == 2:
        lineno, arc_line = significant[1]
        for m in _TOKEN_RE.finditer(arc_line):
            tok, col = m.group(0), m.start() + 1
            am = _ARC_RE.match(tok)
            if am is None:
                raise ParseError(f"malformed arc token {tok!r}", lineno, col)
            i = _number(am.group(1), lineno, col)
            j = _number(am.group(2), lineno, col)
            if i == j:
                raise ParseError(f"self-pairing {tok!r}", lineno, col)
            if i > j:
                i, j = j, i
            if not (1 <= i and j <= n):
                raise ParseError(
                    f"arc endpoint out of range 1..{_decimal(n)} in {tok!r}",
                    lineno,
                    col,
                )
            for v in (i, j):
                if v in used:
                    raise ParseError(
                        f"vertex {v} already paired (arc token {tok!r})", lineno, col
                    )
                used[v] = lineno
            arcs.add((i, j))

    return Diagram(tuple(lengths), frozenset(arcs))


def serialize_diagram(d: Diagram) -> str:
    """Two-line text form; inverse of :func:`parse_diagram` on valid diagrams."""
    lengths = " ".join(str(l) for l in d.backbone_lengths)
    arcs = " ".join(f"{i}-{j}" for i, j in sorted(d.arcs))
    return f"{lengths}\n{arcs}\n"


def canonical_code(d: Diagram) -> str:
    """Stable one-line key: equal diagrams get equal codes, distinct get distinct."""
    lengths = " ".join(str(l) for l in d.backbone_lengths)
    arcs = " ".join(f"{i}-{j}" for i, j in sorted(d.arcs))
    return f"{lengths}|{arcs}"


def diagram_from_code(code: str, *, planted: bool = False) -> Diagram:
    """Rebuild a diagram from its :func:`canonical_code`."""
    d = parse_diagram(code)
    if planted:
        d = Diagram(d.backbone_lengths, d.arcs, planted=True)
    return d


# -- planting ------------------------------------------------------------


def plant(d: Diagram) -> Diagram:
    """Add one rainbow per backbone.

    Every backbone gains a fresh leftmost and rightmost vertex joined by
    an arc; all existing arcs are relabeled accordingly.
    """
    if d.planted:
        raise DiagramError("diagram is already planted")
    # vertex v of backbone k (0-based) shifts by 2k + 1, and k + 1 is
    # the number of backbone starts up to v
    starts = [s for s, _ in d.bounds]
    new_lengths = tuple(l + 2 for l in d.backbone_lengths)
    new_arcs = {
        (i + 2 * bisect_right(starts, i) - 1, j + 2 * bisect_right(starts, j) - 1)
        for i, j in d.arcs
    }
    start = 1
    for l in new_lengths:
        new_arcs.add((start, start + l - 1))
        start += l
    return Diagram(new_lengths, frozenset(new_arcs), planted=True)


def strip_plants(d: Diagram) -> Diagram:
    """Remove the rainbows and their endpoints; inverse of :func:`plant`."""
    if not d.planted:
        raise DiagramError("diagram is not planted")
    if any(e - s + 1 < 3 for s, e in d.bounds):
        raise DiagramError(
            "cannot strip a rainbow-only backbone (nothing underneath)"
        )
    rainbows = set(d.rainbow_arcs)
    starts = [s for s, _ in d.bounds]
    new_lengths = tuple(l - 2 for l in d.backbone_lengths)
    new_arcs = {
        (i - 2 * bisect_right(starts, i) + 1, j - 2 * bisect_right(starts, j) + 1)
        for i, j in d.arcs
        if (i, j) not in rainbows
    }
    return Diagram(new_lengths, frozenset(new_arcs), planted=False)


# -- connectivity --------------------------------------------------------


def _backbone_roots(d: Diagram) -> list[int]:
    """Union-find roots per backbone under arc adjacency.

    Backbone edges already connect everything within one backbone, so
    connectivity is a relation on backbones joined by exterior arcs.
    """
    parent = list(range(d.b))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in d.arcs:
        a, b = d.backbone_of(i), d.backbone_of(j)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(k) for k in range(d.b)]


def is_connected(d: Diagram) -> bool:
    """True iff the graph of backbone edges plus arcs is connected."""
    roots = _backbone_roots(d)
    return len(set(roots)) == 1


def components(d: Diagram) -> list[Diagram]:
    """Split into connected components, preserving backbone order and
    relative vertex order within each component."""
    roots = _backbone_roots(d)
    starts = [s for s, _ in d.bounds]
    groups: dict[int, list[int]] = {}
    for k, r in enumerate(roots):
        groups.setdefault(r, []).append(k)
    # vertex v of backbone k moves to v + shift[k] inside its component
    shift = [0] * d.b
    for ks in groups.values():
        offset = 1
        for k in ks:
            shift[k] = offset - starts[k]
            offset += d.backbone_lengths[k]
    arcs: dict[int, set[Arc]] = {r: set() for r in groups}
    for i, j in d.arcs:
        ki, kj = bisect_right(starts, i) - 1, bisect_right(starts, j) - 1
        arcs[roots[ki]].add((i + shift[ki], j + shift[kj]))
    return [
        Diagram(
            tuple(d.backbone_lengths[k] for k in ks),
            frozenset(arcs[r]),
            planted=d.planted,
        )
        for r, ks in groups.items()
    ]


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    """Lay ``b`` after ``a`` on fresh backbones (no arcs between them)."""
    off = a.n_vertices
    arcs = set(a.arcs) | {(i + off, j + off) for i, j in b.arcs}
    return Diagram(
        a.backbone_lengths + b.backbone_lengths,
        frozenset(arcs),
        planted=a.planted and b.planted,
    )


# -- stacks and intervals ------------------------------------------------


def maximal_stacks(d: Diagram) -> list[list[Arc]]:
    """Maximal runs of parallel arcs (i,j),(i+1,j-1),... in the purely
    linear sense, regardless of backbone membership.  Single arcs count
    as stacks of length 1.  Listed outermost arc first, sorted by head.
    """
    arcset = d.arcs
    stacks = []
    for i, j in sorted(arcset):
        if (i - 1, j + 1) in arcset:
            continue  # not the outermost arc of its run
        run = []
        t = 0
        while (i + t, j - t) in arcset and i + t < j - t:
            run.append((i + t, j - t))
            t += 1
        stacks.append(run)
    return stacks


def interval_kinds(d: Diagram) -> list[IntervalKind]:
    """Classify the n-1 intervals [i, i+1]; gap takes precedence over P."""
    gaps = {e for _, e in d.bounds[:-1]}
    p_left: set[int] = set()
    for run in maximal_stacks(d):
        k = len(run)
        i0, j0 = run[0]
        for l in range(k - 1):
            p_left.add(i0 + l)
            p_left.add(j0 - l - 1)
    kinds = []
    for x in range(1, d.n_vertices):
        if x in gaps:
            kinds.append(IntervalKind.GAP)
        elif x in p_left:
            kinds.append(IntervalKind.P)
        else:
            kinds.append(IntervalKind.SIGMA)
    return kinds
