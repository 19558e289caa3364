"""Uniform sampling of shapes of fixed genus, plus sample statistics.

Two-backbone sampling at genus g draws a uniform index into the
complete, canonically ordered table of one-backbone shapes of genus
g+1 and returns the two-backbone image of that entry, rejecting it when
the image is disconnected.  The table is built forward through the
surgeries: the enumeration kernel lists Q'_g, the two-backbone shapes of
genus g with the disconnected pairs included, and each q gives the
A-entry eta(q) and the B-entry theta(eta(q)).  The image of both is q,
or None when q is disconnected.  Every connected two-backbone shape of
genus g is the image of exactly two entries, and rejection does not
depend on which connected shape would be produced, so the output is
exactly uniform; the chi-square checks in the test suite are regression
guards, not the correctness argument.

A sampler can only return the finite set of its images (at genus 1, the
3696 table entries have 3664 connected images, which hold each of the
1832 shapes twice), and a long run draws each of them many times.  The
two entries of one q share q's ``Shape`` object, which computes its
loop profile and code once, on first read (``Shape.loop_profile``,
``Shape.code``).  :meth:`SampleStats.record` counts a draw against its
image and does nothing else; the sample count, the histograms and the
alpha/beta sums are folded from those counts when they are read, in
time linear in the number of distinct images, not of draws.

Set-up checks each diagram once: each entry as the surgery that makes
it returns it, each q for connectivity, and no diagram for its genus (an
entry has genus g+1 by the bijection, an image the genus the kernel
searched).  At genus 1 that is 1848 q, 3696 entries and 3696 shape
checks.

Randomness comes from one ``random.Random(seed)`` per sampler, with
unbiased integer draws (rejection sampling below the largest multiple
is built into ``randrange``).  Parallel experiments should use
independent seeds; their statistics combine by plain sums.

A sampler given the table of another genus, and an arc filter that no
connected shape of the genus meets, raise ``DiagramError`` up front
instead of sampling the wrong family or rejecting forever.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .bijections import _eta, _theta
from .diagram import is_connected
from .enumeration import _enumerate_shapes
from .errors import ConsistencyError, DiagramError, _check_size
from .series import shape_poly_1bb
from .shapes import Shape


@dataclass(frozen=True)
class ShapeTable:
    """The one-backbone shapes of one genus in canonical order, and the
    two-backbone image of each: the connected shape the entry maps to,
    one object shared by its two entries, or None.

    :func:`build_table` checks each entry once, as the surgery that
    makes it returns it; the table checks nothing again.
    """

    genus: int
    shapes: tuple[Shape, ...]
    images: tuple[Optional[Shape], ...]

    def __len__(self) -> int:
        return len(self.shapes)


def build_table(b: int, g: int, cache_dir=None) -> ShapeTable:
    """The table of one-backbone shapes of genus g >= 1 and their images,
    built forward from Q'_(g-1) as the module docstring says; only
    ``b = 1`` is built.  The entries, sorted by (arc count, sorted arcs),
    must rise strictly and number ``shape_poly_1bb(g)(1)``, or the build
    raises ``ConsistencyError``.

    ``cache_dir`` is accepted and not used.  It is kept only because the
    benchmark harness (``bench/worker.py``) passes it, and ROADMAP item 4
    deletes it.
    """
    _check_size(b, "backbones", minimum=None)
    if b != 1:
        raise DiagramError("the sampler's table holds one-backbone shapes")
    _check_size(g, "genus", minimum=1)
    keyed = []
    for q in _enumerate_shapes(2, g - 1, False, None):
        d = q.diagram
        image = q if is_connected(d) else None
        a = _eta(d)
        for entry in (a, _theta(a)):
            keyed.append(((entry.n_arcs, sorted(entry.arcs)), Shape(entry, g), image))
    keyed.sort(key=lambda e: e[0])
    for (key, _, _), (after, _, _) in zip(keyed, keyed[1:]):
        if key >= after:
            raise ConsistencyError(f"the genus-{g} table holds {key} twice")
    expected = shape_poly_1bb(g)(1)
    if len(keyed) != expected:
        raise ConsistencyError(
            f"{len(keyed)} entries in the genus-{g} table, the shape "
            f"polynomial predicts {expected}"
        )
    return ShapeTable(
        g, tuple(s for _, s, _ in keyed), tuple(image for _, _, image in keyed)
    )


class BishapeSampler:
    """Uniform generator of connected two-backbone shapes of fixed genus.

    The image of each one-backbone table entry comes with the table, so
    a draw is an unbiased index draw plus a rejection test.
    ``attempts`` and ``connected_hits`` expose the acceptance
    measurement; ``filter_rejects`` counts the connected draws that
    ``arc_filter`` turned away, so ``connected_hits`` is the number of
    draws returned plus ``filter_rejects``.

    ``table`` defaults to ``build_table(1, genus + 1)``.  The two entries
    that map to the same shape share one image object, and a draw
    returns that object every time it lands on it, so an image's loop
    profile and code are computed once per shape, on first read, not
    once per draw.
    """

    def __init__(
        self,
        genus: int,
        *,
        seed: Optional[int] = None,
        table: Optional[ShapeTable] = None,
        arc_filter: Optional[int] = None,
    ):
        _check_size(genus, "genus")
        if arc_filter is not None:
            _check_size(arc_filter, "arc filter", minimum=None)
        self.genus = genus
        self.rng = random.Random(seed)
        self.arc_filter = arc_filter
        self.table = table if table is not None else build_table(1, genus + 1)
        if self.table.genus != genus + 1:
            raise DiagramError(
                f"a genus-{genus} sampler reads the one-backbone genus-"
                f"{genus + 1} table, not the genus-{self.table.genus} one"
            )
        self.attempts = 0
        self.connected_hits = 0
        self.filter_rejects = 0
        self._images = self.table.images
        if arc_filter is not None and not any(
            s is not None and s.n_arcs == arc_filter for s in self._images
        ):
            raise DiagramError(
                f"no connected genus-{genus} two-backbone shape has "
                f"{arc_filter} arcs"
            )

    def draw(self) -> Shape:
        while True:
            self.attempts += 1
            image = self._images[self.rng.randrange(len(self._images))]
            if image is None:
                continue  # disconnected image: reject, genus-independent
            self.connected_hits += 1
            if self.arc_filter is not None and image.n_arcs != self.arc_filter:
                self.filter_rejects += 1
                continue
            return image


_STATS_FIELDS = (
    "genus",
    "n_samples",
    "attempts",
    "connected_hits",
    "arc_hist",
    "loop_length_hist",
    "alpha_sum",
    "alpha_sq_sum",
    "beta_sum",
    "beta_sq_sum",
)


@dataclass
class SampleStats:
    """Accumulated statistics of a sampling run.

    :meth:`record` only counts how often each image was drawn.
    ``n_samples``, ``arc_hist``, ``loop_length_hist`` and the alpha/beta
    sums are read-only: each read folds them from those counts, in time
    linear in the number of distinct images drawn (at most 1832 at genus
    1), not in the number of draws; only the loop statistics classify an
    image's loops, on their first read.  The counts are keyed by the
    image's ``id``, and each entry holds its image, so that ``id`` is
    never reused while the count lives; equal images held in distinct
    objects fold into the same bins.  Runs on independent seeds combine
    by adding these values.
    """

    genus: int
    attempts: int = 0
    connected_hits: int = 0
    # id(image) -> [image, draws]
    _tally: dict[int, list] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def record(self, s: Shape) -> None:
        entry = self._tally.get(id(s))
        if entry is None:
            self._tally[id(s)] = [s, 1]
        else:
            entry[1] += 1

    @property
    def n_samples(self) -> int:
        return sum(n for _, n in self._tally.values())

    @property
    def arc_hist(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for s, n in self._tally.values():
            hist[s.n_arcs] = hist.get(s.n_arcs, 0) + n
        return hist

    @property
    def loop_length_hist(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for s, n in self._tally.values():
            profile = s.loop_profile
            for kind, cyc in zip(profile.kinds, profile.boundary.cycles):
                if kind not in ("plant", "empty"):
                    hist[len(cyc)] = hist.get(len(cyc), 0) + n
        return hist

    @property
    def alpha_sum(self) -> int:
        return sum(s.loop_profile.alpha * n for s, n in self._tally.values())

    @property
    def alpha_sq_sum(self) -> int:
        return sum(s.loop_profile.alpha**2 * n for s, n in self._tally.values())

    @property
    def beta_sum(self) -> int:
        return sum(s.loop_profile.beta * n for s, n in self._tally.values())

    @property
    def beta_sq_sum(self) -> int:
        return sum(s.loop_profile.beta**2 * n for s, n in self._tally.values())

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in _STATS_FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        values = ", ".join(
            f"{name}={value!r}" for name, value in zip(_STATS_FIELDS, self._fields())
        )
        return f"SampleStats({values})"

    @property
    def acceptance_fraction(self) -> float:
        return self.connected_hits / self.attempts if self.attempts else 0.0

    @property
    def alpha_mean(self) -> float:
        return self.alpha_sum / self.n_samples if self.n_samples else 0.0

    @property
    def alpha_var(self) -> float:
        if not self.n_samples:
            return 0.0
        m = self.alpha_mean
        return self.alpha_sq_sum / self.n_samples - m * m

    @property
    def beta_mean(self) -> float:
        return self.beta_sum / self.n_samples if self.n_samples else 0.0

    @property
    def beta_var(self) -> float:
        if not self.n_samples:
            return 0.0
        m = self.beta_mean
        return self.beta_sq_sum / self.n_samples - m * m

    def to_csv(self) -> str:
        rows = [
            ("samples", "", self.n_samples),
            ("attempts", "", self.attempts),
            ("connected_hits", "", self.connected_hits),
            ("acceptance_fraction", "", f"{self.acceptance_fraction:.8f}"),
            ("alpha_loops", "mean", f"{self.alpha_mean:.8f}"),
            ("alpha_loops", "variance", f"{self.alpha_var:.8f}"),
            ("beta_loops", "mean", f"{self.beta_mean:.8f}"),
            ("beta_loops", "variance", f"{self.beta_var:.8f}"),
        ]
        arc_hist, loop_length_hist = self.arc_hist, self.loop_length_hist
        for arcs in sorted(arc_hist):
            rows.append(("arc_count", str(arcs), arc_hist[arcs]))
        for l in sorted(loop_length_hist):
            rows.append(("loop_length", str(l), loop_length_hist[l]))
        return "\n".join(f"{a},{b},{c}" for a, b, c in rows) + "\n"


def sample_stats(
    g: int,
    n: int,
    *,
    seed: Optional[int] = None,
    arc_filter: Optional[int] = None,
    on_sample=None,
) -> SampleStats:
    """Draw ``n`` connected two-backbone shapes of genus ``g`` and report
    loop statistics, arc-count and loop-length histograms and the
    acceptance fraction of the rejection step."""
    _check_size(n, "sample count")
    sampler = BishapeSampler(g, seed=seed, arc_filter=arc_filter)
    stats = SampleStats(genus=g)
    for _ in range(n):
        s = sampler.draw()
        stats.record(s)
        if on_sample is not None:
            on_sample(s)
    stats.attempts = sampler.attempts
    stats.connected_hits = sampler.connected_hits
    return stats
