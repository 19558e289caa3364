from __future__ import annotations

import pytest
from hypothesis import strategies as st

from chordshapes import (
    Diagram,
    EnumSpec,
    build_table,
    enumerate_matchings,
    enumerate_shapes,
)


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
