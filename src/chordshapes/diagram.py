"""Chord diagrams over one or more backbones.

A diagram places its vertices 1..n left to right on ``b`` horizontal
backbones and draws every arc (i, j), i < j, in the upper half-plane.
Vertex indices are global: backbone k occupies the contiguous block that
follows backbone k-1.  Arcs form a partial fixed-point-free involution,
so every vertex is paired at most once.

Planting adds one outermost "rainbow" arc per backbone (two fresh
vertices joined over the whole backbone).  Rainbows are ordinary
vertices and arcs here, which keeps the later surgeries pure relabeling.
The planted labels are computed in one place, :func:`_planting`, which
:func:`plant` and shape projection share.

Text is parsed by :func:`parse_diagram` and :func:`diagram_from_code`
through one parser.  A well-formed arc line is read in whole-line passes
and validated once, by the :class:`Diagram` constructor; a token-by-token
loop runs only on a line those passes refuse, to locate the error.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import DiagramError, ParseError

Arc = tuple[int, int]

_TOKEN_RE = re.compile(r"\S+")
# a whole arc line of well-formed ``i-j`` tokens
_ARC_LINE_RE = re.compile(r"\s*(?:\d+-\d+(?!\S)\s*)*")


def _decimal(n: int) -> str:
    """``str(n)`` for an error message, which must not itself fail on a
    number past the interpreter's integer-digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit number>"


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
        # a tuple or frozenset is taken as it is, not copied; every length
        # and endpoint must be an int (a float is refused, not truncated)
        try:
            lengths = tuple(self.backbone_lengths)
            arcs = frozenset(self.arcs)
        except TypeError:  # not iterable, or an arc that is not hashable
            raise DiagramError("lengths and arcs must be collections") from None
        object.__setattr__(self, "backbone_lengths", lengths)
        object.__setattr__(self, "arcs", arcs)

        if not lengths:
            raise DiagramError("a diagram needs at least one backbone")
        bounds = []
        start = 1
        for l in lengths:
            if type(l) is not int:
                raise DiagramError("backbone lengths must be integers")
            if l < 1:
                raise DiagramError("backbone lengths must be positive")
            bounds.append((start, start + l - 1))
            start += l
        n = start - 1
        object.__setattr__(self, "bounds", tuple(bounds))

        seen: set[int] = set()
        for arc in arcs:
            try:
                i, j = arc
            except (TypeError, ValueError):
                raise DiagramError("every arc must be a pair of vertices") from None
            if type(i) is not int or type(j) is not int:
                raise DiagramError("arc endpoints must be integers")
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

    def pairing(self) -> dict[int, int]:
        """Partner map containing both directions of every arc."""
        p: dict[int, int] = {}
        for i, j in self.arcs:
            p[i] = j
            p[j] = i
        return p


def _starts(d: Diagram) -> list[int]:
    """First vertex of each backbone, ascending.

    ``bisect_right(_starts(d), v)`` counts the backbone starts up to
    vertex v, which is one more than v's 0-based backbone index: one
    plain bisect per vertex, and no range check, so v must be a vertex
    of ``d``.  This is the package's one vertex-to-backbone lookup.
    """
    return [s for s, _ in d.bounds]


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
    whole diagram fits on one line.  A ``|`` ends one part of a line, and
    its comment; an error's column counts from the start of the line,
    across any ``|``.

    A well-formed arc line is read in a few whole-line passes and checked
    once, by the :class:`Diagram` constructor.  Only a line that those
    passes refuse is read token by token, to name the first bad token's
    line and column in the :class:`ParseError`.
    """
    return _parse(text)


def _parse(text: str, planted: bool = False, first_line: int = 1) -> Diagram:
    """The diagram of :func:`parse_diagram`'s format, built with the
    given ``planted`` flag; an error numbers the text's first line
    ``first_line``."""
    # the parts of the lines, split at each "|", that hold more than a
    # comment: (line, column before the part, text without its comment)
    significant: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=first_line):
        col = 0
        for part in raw.split("|"):
            stripped = part.split("#", 1)[0]
            if stripped.strip():
                significant.append((lineno, col, stripped))
            col += len(part) + 1

    if not significant:
        raise ParseError("no backbone-length line", first_line, 1)
    if len(significant) > 2:
        lineno, col, _ = significant[2]
        raise ParseError("unexpected extra line", lineno, col + 1)

    lineno, col, lengths_line = significant[0]
    lengths: list[int] = []
    for m in _TOKEN_RE.finditer(lengths_line):
        tok, column = m.group(0), col + m.start() + 1
        length = _number(tok, lineno, column) if tok.isdecimal() else 0
        if length < 1:
            raise ParseError(
                f"backbone length {tok!r} is not a positive integer",
                lineno,
                column,
            )
        lengths.append(length)
    n = sum(lengths)

    arcs: set[Arc] = set()
    used: set[int] = set()
    if len(significant) == 2:
        lineno, col, arc_line = significant[1]
        # \d and \s are the classes of str.isdecimal and str.split, so a
        # line that matches holds only tokens that the loop below reads;
        # a repeated arc shrinks the set, and the constructor refuses a
        # range, self-pairing or reuse error
        if _ARC_LINE_RE.fullmatch(arc_line):
            try:
                numbers = list(map(int, arc_line.replace("-", " ").split()))
                it = iter(numbers)
                fast = frozenset(
                    (i, j) if i < j else (j, i) for i, j in zip(it, it)
                )
                if 2 * len(fast) == len(numbers):
                    return Diagram(tuple(lengths), fast, planted)
            except (ValueError, DiagramError):  # ValueError: the digit limit
                pass
        # the line was refused: find the first bad token, or rebuild the
        # arcs for the constructor to refuse a planted diagram's rainbows
        for m in _TOKEN_RE.finditer(arc_line):
            tok, column = m.group(0), col + m.start() + 1
            # str.isdecimal accepts exactly the Unicode decimal digits
            # that int() reads, and rejects the empty string
            a, dash, b = tok.partition("-")
            if not (dash and a.isdecimal() and b.isdecimal()):
                raise ParseError(f"malformed arc token {tok!r}", lineno, column)
            i, j = _number(a, lineno, column), _number(b, lineno, column)
            if i == j:
                raise ParseError(f"self-pairing {tok!r}", lineno, column)
            if i > j:
                i, j = j, i
            if not (1 <= i and j <= n):
                raise ParseError(
                    f"arc endpoint out of range 1..{_decimal(n)} in {tok!r}",
                    lineno,
                    column,
                )
            if i in used or j in used:
                raise ParseError(
                    f"vertex {i if i in used else j} already paired"
                    f" (arc token {tok!r})",
                    lineno,
                    column,
                )
            used.add(i)
            used.add(j)
            arcs.add((i, j))

    return Diagram(tuple(lengths), frozenset(arcs), planted)


def serialize_diagram(d: Diagram) -> str:
    """Two-line text form; inverse of :func:`parse_diagram` on valid diagrams.

    It is the :func:`canonical_code` with its one ``|`` as the newline.
    """
    return canonical_code(d).replace("|", "\n") + "\n"


def canonical_code(d: Diagram) -> str:
    """Stable one-line key: equal diagrams get equal codes, distinct get distinct."""
    lengths = " ".join(str(l) for l in d.backbone_lengths)
    arcs = " ".join(f"{i}-{j}" for i, j in sorted(d.arcs))
    return f"{lengths}|{arcs}"


def diagram_from_code(code: str, *, planted: bool = False) -> Diagram:
    """Rebuild a diagram from its :func:`canonical_code`."""
    return _parse(code, planted)


# -- planting ------------------------------------------------------------


def plant(d: Diagram) -> Diagram:
    """Add one rainbow per backbone.

    Every backbone gains a fresh leftmost and rightmost vertex joined by
    an arc; all existing arcs are relabeled accordingly.
    """
    if d.planted:
        raise DiagramError("diagram is already planted")
    pair, _ = _planting(d)
    return Diagram(
        tuple(l + 2 for l in d.backbone_lengths),
        frozenset((i, j) for i, j in pair.items() if i < j),
        planted=True,
    )


def _planting(d: Diagram) -> tuple[dict[int, int], tuple[tuple[int, int], ...]]:
    """The pairing, both directions of every arc, and the backbone bounds
    of ``d`` planted, with no planted diagram built: vertex v of backbone
    k (0-based) moves to v + 2k + 1, and backbone k's rainbow joins the
    two fresh vertices around it."""
    starts = _starts(d)
    pair: dict[int, int] = {}
    for i, j in d.arcs:
        i += 2 * bisect_right(starts, i) - 1
        j += 2 * bisect_right(starts, j) - 1
        pair[i] = j
        pair[j] = i
    bounds = tuple((s + 2 * k, e + 2 * k + 2) for k, (s, e) in enumerate(d.bounds))
    for s, e in bounds:
        pair[s] = e
        pair[e] = s
    return pair, bounds


# -- connectivity --------------------------------------------------------


def _backbone_roots(d: Diagram) -> list[int]:
    """Union-find roots per backbone under arc adjacency.

    Backbone edges already connect everything within one backbone, so
    connectivity is a relation on backbones joined by exterior arcs.
    """
    parent = list(range(d.b))
    starts = _starts(d)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in d.arcs:
        ki, kj = bisect_right(starts, i) - 1, bisect_right(starts, j) - 1
        if ki != kj:
            ra, rb = find(ki), find(kj)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return [find(k) for k in range(d.b)]


def is_connected(d: Diagram) -> bool:
    """True iff the graph of backbone edges plus arcs is connected."""
    roots = _backbone_roots(d)
    return len(set(roots)) == 1
