"""Seeded inputs for the ``project`` workload, and an independent genus.

Nothing here imports ``chordshapes``: the inputs and the genus used to
check the program's answers are computed from first principles, so a
defect in the program cannot hide behind its own helpers.

A diagram is ``(lengths, arcs)`` with global 1-based vertex labels, the
same convention as the library's two-line text format.
"""

from __future__ import annotations

import random

Arc = tuple[int, int]


def genus_of(lengths: tuple[int, ...], arcs) -> int:
    """Formal genus from 2 - 2g - r = b - n, tracing phi = sigma o alpha.

    sigma steps to the next paired vertex of the same backbone (cyclic),
    alpha swaps the ends of an arc, and an arcless backbone bounds one
    empty face.
    """
    pair: dict[int, int] = {}
    for i, j in arcs:
        pair[i] = j
        pair[j] = i
    nxt: dict[int, int] = {}
    r = 0
    start = 1
    for length in lengths:
        paired = [v for v in range(start, start + length) if v in pair]
        if not paired:
            r += 1
        for a, c in zip(paired, paired[1:] + paired[:1]):
            nxt[a] = c
        start += length
    seen: set[int] = set()
    for v in pair:
        if v not in seen:
            r += 1
            x = v
            while x not in seen:
                seen.add(x)
                x = nxt[pair[x]]
    num = 2 - r - len(lengths) + len(pair) // 2
    if num % 2:
        raise ValueError("odd Euler count")
    return num // 2


def to_text(lengths: tuple[int, ...], arcs) -> str:
    """The library's two-line diagram format."""
    return (
        " ".join(map(str, lengths))
        + "\n"
        + " ".join(f"{i}-{j}" for i, j in sorted(arcs))
        + "\n"
    )


def _fold(rng: random.Random, a: int, b: int, arcs: list[Arc]) -> None:
    """Random nested secondary structure (stacked helices) on [a, b]."""
    i = a
    while i <= b - 8:
        if rng.random() < 0.5:
            j = rng.randint(i + 8, min(b, i + 60))
            stem = rng.randint(2, min(7, (j - i - 3) // 2))
            for k in range(stem):
                arcs.append((i + k, j - k))
            _fold(rng, i + stem, j - stem, arcs)
            i = j + 1
        else:
            i += 1


def _add_stem(
    rng: random.Random, free: list[int], bb: list[int], arcs: list[Arc], exterior: bool
) -> bool:
    """Pair two free vertices (on different backbones if ``exterior``),
    then extend inward to a helix of up to 4 stacked arcs."""
    for _ in range(50):
        i, j = sorted(rng.sample(free, 2))
        if (bb[i] != bb[j]) != exterior or (not exterior and j - i < 4):
            continue
        avail = set(free)
        stem = []
        for k in range(rng.randint(1, 4)):
            x, y = i + k, j - k
            if x not in avail or y not in avail or bb[x] != bb[i] or bb[y] != bb[j]:
                break
            if y - x < 4:
                break
            stem.append((x, y))
        for x, y in stem:
            free.remove(x)
            free.remove(y)
        arcs.extend(stem)
        return True
    return False


def rna_diagram(rng: random.Random) -> tuple[tuple[int, int], tuple[Arc, ...], int]:
    """An RNA-like two-backbone diagram of genus 1-7.

    Each backbone gets 100-300 vertices folded into stacked helices.
    One to three exterior helices join the backbones, and crossing
    helices are added one at a time until the drawn target genus is
    reached (a new arc raises the genus by at most one).  Returns the
    lengths, the arcs and the genus.
    """
    target = rng.randint(1, 7)
    while True:
        lengths = (rng.randint(100, 300), rng.randint(100, 300))
        n = sum(lengths)
        bb = [0] * (n + 1)
        for v in range(lengths[0] + 1, n + 1):
            bb[v] = 1
        arcs: list[Arc] = []
        _fold(rng, 1, lengths[0], arcs)
        _fold(rng, lengths[0] + 1, n, arcs)
        used = {v for a in arcs for v in a}
        free = [v for v in range(1, n + 1) if v not in used]
        for _ in range(rng.randint(1, 3)):
            _add_stem(rng, free, bb, arcs, exterior=True)
        g = genus_of(lengths, arcs)
        while g < target and len(free) > 20:
            if not _add_stem(rng, free, bb, arcs, exterior=False):
                break
            g = genus_of(lengths, arcs)
        if g == target:
            return lengths, tuple(arcs), g
