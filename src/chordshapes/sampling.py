"""Uniform sampling of shapes of fixed genus, plus sample statistics.

Two-backbone sampling at genus g draws a uniform index into the
complete, canonically ordered table of one-backbone shapes of genus
g+1 (the tables are finite, enumerated once and cached on disk), pulls
that shape back through the surgeries (A-shapes directly, B-shapes
through the A/B pairing first) and rejects disconnected results.  Every
connected two-backbone shape of genus g is hit by exactly two of the
one-backbone draws, and rejection does not depend on which connected
shape would be produced, so the output is exactly uniform; the
chi-square checks in the test suite are regression guards, not the
correctness argument.

A sampler can only return the finite set of its precomputed images
(at genus 1, the 3696 table entries pull back to 3664 connected images,
which hold each of the 1832 shapes twice), and a long run draws each of
them many times.  The sampler keeps one ``Shape`` object per distinct
image, and an image's loop summary and canonical code are computed once,
on first read, and kept on it (``Shape.loop_summary``, ``Shape.code``).
:meth:`SampleStats.record` counts a draw against its image's loop
summary and does nothing else; the sample count, the histograms and
the alpha/beta sums are folded from those counts when they are read,
in time linear in the number of distinct images, not of draws.

Set-up checks each diagram once.  A table reload builds one planted
diagram per entry, checks it once against the shape predicate and
traces its fat graph once for the genus check.  The pullback of an
entry reads its A/B class without checking the entry again, and the
surgeries it runs (theta_inv for a B-entry, then eta_inv) check their
own output once each.  Each distinct connected image is traced once for
its genus.  At genus 1 that is 3696 + 1832 traces and 3696 + 3696 +
1848 shape checks in all.

Randomness comes from one ``random.Random(seed)`` per sampler, with
unbiased integer draws (rejection sampling below the largest multiple
is built into ``randrange``).  Parallel experiments should use
independent seeds; their statistics combine by plain sums.

Table caches are written to a unique temporary file in the cache
directory and renamed into place, so concurrent builds never see a
partial file.  A reload that cannot be decoded, or whose digest,
cardinality or shapes disagree with the requested table, raises
``TableCacheError``.  So does a ``ShapeTable`` built with a non-shape
or a shape of another (b, genus), and a shape list of the wrong
cardinality handed to :func:`table_from_shapes`.  A sampler given the
table of another (b, genus), and an arc filter that no connected shape
of the genus meets, raise ``DiagramError`` up front instead of sampling
the wrong family or rejecting forever.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .bijections import _eta_inv, _theta_inv
from .diagram import Diagram, diagram_from_code, is_connected
from .enumeration import enumerate_shapes
from .errors import DiagramError, TableCacheError, _check_size
from .fatgraph import genus
from .series import shape_poly_1bb, shape_poly_2bb
from .shapes import Shape, ShapeClass, _class_of, is_shape

CACHE_ENV = "CHORDSHAPES_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "chordshapes"


def _expected_count(b: int, g: int) -> int:
    if b == 1:
        return shape_poly_1bb(g)(1)
    return shape_poly_2bb(g)(1)


def _digest(codes: list[str]) -> str:
    return hashlib.sha256("\n".join(codes).encode()).hexdigest()


@dataclass(frozen=True)
class ShapeTable:
    """The complete, canonically ordered list of shapes of one (b, genus).

    Construction checks once that every entry is a shape of
    ``backbones`` backbones and genus ``genus``: the sampler's pullback
    relies on it and checks no entry again.
    """

    backbones: int
    genus: int
    shapes: tuple[Shape, ...]
    digest: str

    def __post_init__(self):
        b, g = self.backbones, self.genus
        if not all(is_shape(s.diagram) for s in self.shapes):
            raise TableCacheError(f"the b={b}, g={g} table holds a non-shape")
        if any(s.b != b or s.genus != g for s in self.shapes):
            raise TableCacheError(
                f"the b={b}, g={g} table holds a shape outside b={b}, g={g}"
            )

    def __len__(self) -> int:
        return len(self.shapes)


def table_from_shapes(b: int, g: int, shapes) -> ShapeTable:
    """Assemble a table from an already enumerated, canonically ordered
    shape list, verifying the cardinality against the shape polynomial."""
    shapes = tuple(shapes)
    if len(shapes) != _expected_count(b, g):
        raise TableCacheError(
            f"{len(shapes)} shapes for b={b}, g={g}, polynomial predicts "
            f"{_expected_count(b, g)}"
        )
    return ShapeTable(b, g, shapes, _digest([s.code for s in shapes]))


def build_table(
    b: int,
    g: int,
    cache_dir: Optional[Path | str] = None,
) -> ShapeTable:
    """Load the shape table from the cache, enumerating and caching it on a
    miss.  Reloads verify both the digest and the cardinality against the
    shape polynomial at z = 1."""
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = cache / f"shapes_{b}bb_g{g}.json"

    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:  # undecodable bytes or truncated JSON
            raise TableCacheError(f"{path} is not a JSON table: {exc}") from exc
        codes = payload.get("codes") if isinstance(payload, dict) else None
        if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
            raise TableCacheError(f"{path} holds no list of shape codes")
        if payload.get("digest") != _digest(codes):
            raise TableCacheError(f"digest mismatch in {path}")
        if len(codes) != _expected_count(b, g):
            raise TableCacheError(
                f"{path} holds {len(codes)} shapes, expected "
                f"{_expected_count(b, g)}"
            )
        try:
            diagrams = [diagram_from_code(c, planted=True) for c in codes]
        except DiagramError as exc:
            raise TableCacheError(f"{path} holds a non-shape: {exc}") from exc
        shapes = tuple(Shape(d, genus(d)) for d in diagrams)
        try:
            return ShapeTable(b, g, shapes, payload["digest"])
        except TableCacheError as exc:
            raise TableCacheError(f"{path}: {exc}") from exc

    # made before the build, so an unusable directory fails at once
    cache.mkdir(parents=True, exist_ok=True)
    table = table_from_shapes(b, g, enumerate_shapes(b, g, connected=(b == 2)))
    codes = [s.code for s in table.shapes]
    text = json.dumps(
        {
            "backbones": b,
            "genus": g,
            "digest": table.digest,
            "source": "enumerated",
            "codes": codes,
        }
    )
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=cache)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return table


class BishapeSampler:
    """Uniform generator of connected two-backbone shapes of fixed genus.

    The pullback of each one-backbone table entry is precomputed, so a
    draw is an unbiased index draw plus a rejection test.  ``attempts``
    and ``connected_hits`` expose the acceptance measurement;
    ``filter_rejects`` counts the connected draws that ``arc_filter``
    turned away, so ``connected_hits`` is the number of draws returned
    plus ``filter_rejects``.

    Set-up costs, per table entry, one A/B class read, one or two
    surgeries with one output check each and a connectivity test, and
    one genus trace per distinct connected image.  The two entries that
    pull back to the same shape share one image object, and a draw
    returns that object every time it lands on it, so an image's loop
    summary and code are computed once per shape, on first read, not
    once per draw.
    """

    def __init__(
        self,
        genus: int,
        *,
        seed: Optional[int] = None,
        table: Optional[ShapeTable] = None,
        cache_dir: Optional[Path | str] = None,
        arc_filter: Optional[int] = None,
    ):
        _check_size(
            genus,
            "genus",
            message=f"cannot sample shapes of genus {genus}: the genus must be >= 0",
        )
        if arc_filter is not None:
            _check_size(arc_filter, "arc filter", minimum=None)
        self.genus = genus
        self.rng = random.Random(seed)
        self.arc_filter = arc_filter
        self.table = table if table is not None else build_table(1, genus + 1, cache_dir)
        if (self.table.backbones, self.table.genus) != (1, genus + 1):
            raise DiagramError(
                f"a genus-{genus} sampler pulls back the one-backbone genus-"
                f"{genus + 1} table, not the b={self.table.backbones}, "
                f"g={self.table.genus} one"
            )
        self.attempts = 0
        self.connected_hits = 0
        self.filter_rejects = 0
        self._images = _pullbacks(self.table.shapes)
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
                continue  # disconnected pullback: reject, genus-independent
            self.connected_hits += 1
            if self.arc_filter is not None and image.n_arcs != self.arc_filter:
                self.filter_rejects += 1
                continue
            return image


def _pullbacks(shapes) -> list[Optional[Shape]]:
    """The pullback of every table entry, in table order: one ``Shape``
    object per distinct connected image, which two entries share, and
    None for a disconnected one."""
    interned: dict[Diagram, Shape] = {}
    images: list[Optional[Shape]] = []
    for s in shapes:
        q = _pullback(s.diagram)
        if q is None:
            images.append(None)
            continue
        image = interned.get(q)
        if image is None:
            image = interned[q] = Shape(q, genus(q))
        images.append(image)
    return images


def _pullback(d: Diagram) -> Optional[Diagram]:
    """Map the diagram of a one-backbone shape of genus g+1 to its
    connected two-backbone preimage of genus g, or None when the preimage
    is disconnected.  ``d`` is a table entry, checked to be a shape when
    its table was built, so only the surgeries' output checks run here."""
    if _class_of(d) is ShapeClass.B:
        d = _theta_inv(d)
    q = _eta_inv(d)
    return q if is_connected(q) else None


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

    :meth:`record` only counts how often each loop summary was drawn.
    ``n_samples``, ``arc_hist``, ``loop_length_hist`` and the alpha/beta
    sums are read-only: each read folds them from those counts, in time
    linear in the number of distinct images drawn (at most 1832 at genus
    1), not in the number of draws.  The counts are keyed by the
    summary object's ``id``, and each entry holds its summary, so that
    ``id`` is never reused while the count lives; equal summaries held
    in distinct objects fold into the same bins.  Runs on independent
    seeds combine by adding these values.
    """

    genus: int
    attempts: int = 0
    connected_hits: int = 0
    # id(summary) -> [summary, draws]
    _tally: dict[int, list] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def record(self, s: Shape) -> None:
        summary = s.loop_summary
        entry = self._tally.get(id(summary))
        if entry is None:
            self._tally[id(summary)] = [summary, 1]
        else:
            entry[1] += 1

    @property
    def n_samples(self) -> int:
        return sum(n for _, n in self._tally.values())

    @property
    def arc_hist(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for summary, n in self._tally.values():
            hist[summary.arcs] = hist.get(summary.arcs, 0) + n
        return hist

    @property
    def loop_length_hist(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for summary, n in self._tally.values():
            for l in summary.loop_lengths:
                hist[l] = hist.get(l, 0) + n
        return hist

    @property
    def alpha_sum(self) -> int:
        return sum(summary.alpha * n for summary, n in self._tally.values())

    @property
    def alpha_sq_sum(self) -> int:
        return sum(summary.alpha**2 * n for summary, n in self._tally.values())

    @property
    def beta_sum(self) -> int:
        return sum(summary.beta * n for summary, n in self._tally.values())

    @property
    def beta_sq_sum(self) -> int:
        return sum(summary.beta**2 * n for summary, n in self._tally.values())

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
        for arcs in sorted(self.arc_hist):
            rows.append(("arc_count", str(arcs), self.arc_hist[arcs]))
        for l in sorted(self.loop_length_hist):
            rows.append(("loop_length", str(l), self.loop_length_hist[l]))
        return "\n".join(f"{a},{b},{c}" for a, b, c in rows) + "\n"


def sample_stats(
    g: int,
    n: int,
    *,
    seed: Optional[int] = None,
    arc_filter: Optional[int] = None,
    table: Optional[ShapeTable] = None,
    cache_dir: Optional[Path | str] = None,
    on_sample=None,
) -> SampleStats:
    """Draw ``n`` connected two-backbone shapes of genus ``g`` and report
    loop statistics, arc-count and loop-length histograms and the
    acceptance fraction of the rejection step."""
    _check_size(n, "sample count")
    sampler = BishapeSampler(
        g, seed=seed, table=table, cache_dir=cache_dir, arc_filter=arc_filter
    )
    stats = SampleStats(genus=g)
    for _ in range(n):
        s = sampler.draw()
        stats.record(s)
        if on_sample is not None:
            on_sample(s)
    stats.attempts = sampler.attempts
    stats.connected_hits = sampler.connected_hits
    return stats
