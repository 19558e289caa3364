"""Uniform sampling of shapes of fixed genus, plus sample statistics.

One-backbone sampling draws a uniform index into the complete,
canonically ordered table of shapes of the requested genus; the tables
are finite, enumerated once and cached on disk.  Two-backbone sampling
draws a one-backbone shape of genus g+1 uniformly, pulls it back through
the surgeries (A-shapes directly, B-shapes through the A/B pairing
first) and rejects disconnected results.  Every connected two-backbone
shape of genus g is hit by exactly two of the one-backbone draws, and
rejection does not depend on which connected shape would be produced,
so the output is exactly uniform; the chi-square checks in the test
suite are regression guards, not the correctness argument.

Randomness comes from ``random.Random``: seedable, with unbiased
integer draws (rejection sampling below the largest multiple is built
into ``randrange``).  Parallel experiments should use independent
seeds; all statistics merge by plain sums.

Table caches are written to a unique temporary file in the cache
directory and renamed into place, so concurrent builds never see a
partial file.  A reload that cannot be decoded, or whose digest,
cardinality or shapes disagree with the requested table, raises
``TableCacheError``.  An arc filter that no connected shape of the
genus meets raises ``DiagramError`` up front instead of rejecting
forever.
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

from .bijections import eta_inv, theta_inv
from .diagram import canonical_code, diagram_from_code, is_connected
from .enumeration import enumerate_shapes
from .errors import DiagramError, TableCacheError
from .fatgraph import classify_loops
from .series import shape_poly_1bb, shape_poly_2bb
from .shapes import Shape, ShapeClass, as_shape, shape_class

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
    """The complete, canonically ordered list of shapes of one (b, genus)."""

    backbones: int
    genus: int
    shapes: tuple[Shape, ...]
    digest: str

    def __len__(self) -> int:
        return len(self.shapes)

    def index_of(self) -> dict[str, int]:
        """Canonical code -> position, for histogramming draws."""
        return {
            canonical_code(s.diagram): k for k, s in enumerate(self.shapes)
        }


def table_from_shapes(b: int, g: int, shapes) -> ShapeTable:
    """Assemble a table from an already enumerated, canonically ordered
    shape list, verifying the cardinality against the shape polynomial."""
    shapes = tuple(shapes)
    if len(shapes) != _expected_count(b, g):
        raise TableCacheError(
            f"{len(shapes)} shapes for b={b}, g={g}, polynomial predicts "
            f"{_expected_count(b, g)}"
        )
    codes = [canonical_code(s.diagram) for s in shapes]
    return ShapeTable(b, g, shapes, _digest(codes))


def build_table(
    b: int,
    g: int,
    cache_dir: Optional[Path | str] = None,
    *,
    force_rebuild: bool = False,
) -> ShapeTable:
    """Load the shape table from the cache, enumerating and caching it on a
    miss.  Reloads verify both the digest and the cardinality against the
    shape polynomial at z = 1."""
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = cache / f"shapes_{b}bb_g{g}.json"

    if path.exists() and not force_rebuild:
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
            shapes = tuple(
                as_shape(diagram_from_code(c, planted=True)) for c in codes
            )
        except DiagramError as exc:
            raise TableCacheError(f"{path} holds a non-shape: {exc}") from exc
        if any(s.b != b or s.genus != g for s in shapes):
            raise TableCacheError(f"{path} holds a shape outside b={b}, g={g}")
        return ShapeTable(b, g, shapes, payload["digest"])

    table = table_from_shapes(b, g, enumerate_shapes(b, g, connected=(b == 2)))
    codes = [canonical_code(s.diagram) for s in table.shapes]
    cache.mkdir(parents=True, exist_ok=True)
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


def uniform_shape_1bb(
    g: int,
    rng: random.Random,
    table: Optional[ShapeTable] = None,
    cache_dir: Optional[Path | str] = None,
) -> Shape:
    """One uniform draw from the complete table of one-backbone shapes."""
    if table is None:
        table = build_table(1, g, cache_dir)
    return table.shapes[rng.randrange(len(table))]


class BishapeSampler:
    """Uniform generator of connected two-backbone shapes of fixed genus.

    The pullback of each one-backbone table entry is precomputed, so a
    draw is an unbiased index draw plus a rejection test.  ``attempts``
    and ``connected_hits`` expose the acceptance measurement.
    """

    def __init__(
        self,
        genus: int,
        rng: Optional[random.Random] = None,
        *,
        seed: Optional[int] = None,
        table: Optional[ShapeTable] = None,
        cache_dir: Optional[Path | str] = None,
        arc_filter: Optional[int] = None,
    ):
        if rng is None:
            rng = random.Random(seed)
        self.genus = genus
        self.rng = rng
        self.arc_filter = arc_filter
        self.table = table if table is not None else build_table(1, genus + 1, cache_dir)
        self.attempts = 0
        self.connected_hits = 0
        self._images: list[Optional[Shape]] = [
            _pullback(s) for s in self.table.shapes
        ]
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
                continue
            return image

    @property
    def acceptance_fraction(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.connected_hits / self.attempts


def _pullback(s1: Shape) -> Optional[Shape]:
    """Map a one-backbone shape of genus g+1 to its connected two-backbone
    preimage of genus g, or None when the preimage is disconnected."""
    if shape_class(s1) is ShapeClass.A:
        q = eta_inv(s1)
    else:
        q = eta_inv(theta_inv(s1))
    if not is_connected(q):
        return None
    return as_shape(q)


@dataclass
class SampleStats:
    """Accumulated statistics of a sampling run; merges by summation."""

    genus: int
    n_samples: int = 0
    attempts: int = 0
    connected_hits: int = 0
    arc_hist: dict[int, int] = field(default_factory=dict)
    loop_length_hist: dict[int, int] = field(default_factory=dict)
    alpha_sum: int = 0
    alpha_sq_sum: int = 0
    beta_sum: int = 0
    beta_sq_sum: int = 0

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

    def record(self, s: Shape) -> None:
        self.n_samples += 1
        self.arc_hist[s.n_arcs] = self.arc_hist.get(s.n_arcs, 0) + 1
        profile = classify_loops(s.diagram)
        for kind, cyc in zip(profile.kinds, profile.boundary.cycles):
            if kind not in ("plant", "empty"):
                l = len(cyc)
                self.loop_length_hist[l] = self.loop_length_hist.get(l, 0) + 1
        a, b = profile.alpha, profile.beta
        self.alpha_sum += a
        self.alpha_sq_sum += a * a
        self.beta_sum += b
        self.beta_sq_sum += b * b

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
    rng: random.Random,
    *,
    arc_filter: Optional[int] = None,
    table: Optional[ShapeTable] = None,
    cache_dir: Optional[Path | str] = None,
    on_sample=None,
) -> SampleStats:
    """Draw ``n`` connected two-backbone shapes of genus ``g`` and report
    loop statistics, arc-count and loop-length histograms and the
    acceptance fraction of the rejection step."""
    sampler = BishapeSampler(
        g, rng, table=table, cache_dir=cache_dir, arc_filter=arc_filter
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
