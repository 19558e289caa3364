from __future__ import annotations

import pytest
from hypothesis import strategies as st

from chordshapes import (
    Diagram,
    DiagramError,
    EnumSpec,
    build_table,
    enumerate_matchings,
    enumerate_shapes,
)
from chordshapes.shapes import _reduce


@pytest.fixture(scope="session")
def shape_sets():
    """Lazy per-(b, genus) complete shape lists, enumerated once per session."""
    memo = {}

    def get(b: int, g: int):
        if (b, g) not in memo:
            memo[(b, g)] = enumerate_shapes(b, g, connected=(b == 2))
        return memo[(b, g)]

    return get


@pytest.fixture(scope="session")
def make_table():
    """The sampler's table, ``build_table(b, g)``, built once per session.
    Only b = 1 is built; the two-backbone shapes come from ``shape_sets``."""
    memo = {}

    def mk(b: int, g: int):
        if (b, g) not in memo:
            memo[(b, g)] = build_table(b, g)
        return memo[(b, g)]

    return mk


def all_matchings(b: int, n_arcs: int) -> list[Diagram]:
    """Every perfect matching with n_arcs arcs over b backbones (all splits)."""
    out: list[Diagram] = []
    enumerate_matchings(
        EnumSpec(backbones=b, arcs_min=n_arcs, arcs_max=n_arcs, genus_cap=10 ** 6),
        out.append,
    )
    return out


def backbone_index(d: Diagram) -> dict[int, int]:
    """Each vertex's 0-based backbone, from the cumulative backbone
    lengths: a lookup independent of the package's own."""
    index: dict[int, int] = {}
    start = 1
    for k, l in enumerate(d.backbone_lengths):
        for v in range(start, start + l):
            index[v] = k
        start += l
    return index


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    """Lay ``b`` after ``a`` on fresh backbones (no arcs between them)."""
    off = a.n_vertices
    arcs = set(a.arcs) | {(i + off, j + off) for i, j in b.arcs}
    return Diagram(
        a.backbone_lengths + b.backbone_lengths,
        frozenset(arcs),
        planted=a.planted and b.planted,
    )


def strip_plants(d: Diagram) -> Diagram:
    """Remove the rainbows and their endpoints; inverse of ``plant``.
    Vertex v of backbone k (0-based) moves back to v - 2k - 1."""
    if not d.planted:
        raise DiagramError("diagram is not planted")
    if any(l < 3 for l in d.backbone_lengths):
        raise DiagramError(
            "cannot strip a rainbow-only backbone (nothing underneath)"
        )
    k = backbone_index(d)
    rainbows = set(d.bounds)
    return Diagram(
        tuple(l - 2 for l in d.backbone_lengths),
        frozenset(
            (i - 2 * k[i] - 1, j - 2 * k[j] - 1)
            for i, j in d.arcs
            if (i, j) not in rainbows
        ),
    )


def components(d: Diagram) -> list[Diagram]:
    """The connected components, ordered by each one's first backbone,
    with the backbone order and the vertex order kept within each: a
    search over the backbones that arcs join, apart from the package's
    own connectivity code."""
    k = backbone_index(d)
    joined: list[set[int]] = [set() for _ in d.backbone_lengths]
    for i, j in d.arcs:
        joined[k[i]].add(k[j])
        joined[k[j]].add(k[i])
    label = [-1] * d.b
    groups: list[list[int]] = []
    for root in range(d.b):
        if label[root] < 0:
            label[root] = len(groups)
            members, todo = [root], [root]
            while todo:
                for y in joined[todo.pop()]:
                    if label[y] < 0:
                        label[y] = label[root]
                        members.append(y)
                        todo.append(y)
            groups.append(sorted(members))
    # vertex v of backbone x moves to v + shift[x] inside its component
    starts = [s for s, _ in d.bounds]
    shift = [0] * d.b
    for xs in groups:
        offset = 1
        for x in xs:
            shift[x] = offset - starts[x]
            offset += d.backbone_lengths[x]
    arcs: list[set] = [set() for _ in groups]
    for i, j in d.arcs:
        arcs[label[k[i]]].add((i + shift[k[i]], j + shift[k[j]]))
    return [
        Diagram(
            tuple(d.backbone_lengths[x] for x in xs),
            frozenset(a),
            planted=d.planted,
        )
        for xs, a in zip(groups, arcs)
    ]


def reduce_planted(d: Diagram) -> Diagram:
    """The shape of the planted ``d``: the scan that projection runs, on
    the pairing and bounds of a diagram that is already planted."""
    if not d.planted:
        raise DiagramError("reduction needs a planted diagram")
    return _reduce(d.pairing(), d.bounds)


@st.composite
def diagram_strategy(draw, max_backbones=3, max_vertices=12, require_arcs=False):
    """Random diagrams: arbitrary backbone splits, partial pairings,
    isolated vertices allowed."""
    b = draw(st.integers(1, max_backbones))
    lengths = tuple(
        draw(st.integers(1, max(1, max_vertices // b))) for _ in range(b)
    )
    n = sum(lengths)
    perm = draw(st.permutations(list(range(1, n + 1))))
    max_arcs = n // 2
    lo = 1 if (require_arcs and max_arcs) else 0
    k = draw(st.integers(lo, max_arcs))
    arcs = set()
    for t in range(k):
        i, j = perm[2 * t], perm[2 * t + 1]
        arcs.add((min(i, j), max(i, j)))
    return Diagram(lengths, frozenset(arcs))


@st.composite
def matching_strategy(draw, max_backbones=2, max_arcs=5):
    """Random perfect matchings (every vertex paired)."""
    b = draw(st.integers(1, max_backbones))
    k = draw(st.integers(1, max_arcs))
    n = 2 * k
    if b == 1:
        lengths = (n,)
    else:
        cut = draw(st.integers(1, n - 1))
        lengths = (cut, n - cut)
    perm = draw(st.permutations(list(range(1, n + 1))))
    arcs = set()
    for t in range(k):
        i, j = perm[2 * t], perm[2 * t + 1]
        arcs.add((min(i, j), max(i, j)))
    return Diagram(lengths, frozenset(arcs))


# arbitrary short text, and short text over the diagram format's alphabet
fuzz_text = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="0123456789 -|#\r\n\t", max_size=40),
)
