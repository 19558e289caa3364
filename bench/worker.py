"""Child process of the benchmark: one workload, one mode.

    python3 bench/worker.py prepare
    python3 bench/worker.py setup  <workload> <seed>
    python3 bench/worker.py timed  <workload> <seed> <seconds>
    python3 bench/worker.py traced <workload> <seed> <seconds>

``setup`` stops once the program is ready for its first request and
reports the CLOCK_MONOTONIC reading at that moment, so the parent can
time set-up from before the process was started.  ``timed`` then runs
fixed-size passes until the next one would overrun ``seconds``.
``traced`` runs untraced passes for half of ``seconds``, installs the
tracer, repeats the set-up and exactly one pass under it, and reports
per-layer metrics.  Every mode prints one JSON object as its last line.

Outputs are checked between passes, never inside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
RESULTS = BENCH / "results"
ENUM_CODES = CACHE / "enumerate_2bb_g1.txt"
PINS = json.loads((BENCH / "pins.json").read_text())
DEFAULT_SEED = PINS["default_seed"]

sys.path.insert(0, str(ROOT / "src"))

from hostclock import KERNELS, HostClock, calibrate_once  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Named pass/fail results; each failure is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# -- workloads --------------------------------------------------------------
#
# Each workload has: setup() (program-side, counted in setup_s), inputs()
# (benchmark-side generation, not counted), run_pass(now) -> (items,
# latencies, outputs) with only program calls between the clock reads,
# check_pass(outputs, checks), reference(checks) for the seed-independent
# and default-seed pinned checks, and counts().  KERNEL names the
# calibration kernel (see hostclock) and ELASTICITY is the measured
# log-log slope of the workload's time against that kernel's time, on a
# 2-vCPU Xeon VM: 0.4-0.6 for enumerate, 0.7-1.0 for sample and project
# against the interpreter kernel, 0.9-1.0 for series against the
# big-integer kernel.


class Enumerate:
    """enumerate_shapes(2, 1): the enumeration kernel, nothing else."""

    KERNEL, ELASTICITY = "interpreter", 0.5

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the inputs are fixed; the seed changes nothing

    def setup(self) -> None:
        from chordshapes import enumeration, series

        self.enumeration, self.series = enumeration, series
        self.emitted = 0

    def inputs(self) -> None:
        pass

    def run_pass(self, now):
        t0 = now()
        shapes = self.enumeration.enumerate_shapes(2, 1)
        t1 = now()
        self.emitted += len(shapes)
        return len(shapes), [t1 - t0], shapes

    def check_pass(self, shapes, checks: Checks) -> None:
        from chordshapes.diagram import canonical_code

        checks(len(shapes) == 1832, f"enumerate: {len(shapes)} shapes, not 1832")
        profile: dict[int, int] = {}
        for s in shapes:
            profile[s.n_arcs] = profile.get(s.n_arcs, 0) + 1
        poly = self.series.shape_poly_2bb(1)
        want = {k: c for k, c in enumerate(poly.coeffs) if c}
        checks(profile == want, "enumerate: arc-count profile != shape_poly_2bb(1)")
        digest = sha256("\n".join(canonical_code(s.diagram) for s in shapes))
        checks(digest == PINS["enumerate_sha256"], "enumerate: code digest changed")

    def reference(self, checks: Checks) -> None:
        pass

    def counts(self) -> dict:
        return {"shapes_emitted": self.emitted}


class Sample:
    """Warm table load, sampler set-up, then draw + SampleStats.record."""

    KERNEL, ELASTICITY = "interpreter", 0.8
    PASS = 10_000
    REFERENCE_DRAWS = 2_000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from chordshapes import sampling

        self.sampling = sampling
        self.table = sampling.build_table(1, 2, CACHE)
        self.sampler = sampling.BishapeSampler(1, seed=self.seed, table=self.table)
        self.stats = sampling.SampleStats(genus=1)
        self.draws = 0

    def inputs(self) -> None:
        self.known: dict[int, bool] = {}

    def run_pass(self, now):
        draw, record = self.sampler.draw, self.stats.record
        latencies, drawn = [], []
        for _ in range(self.PASS):
            t0 = now()
            try:
                s = draw()
                record(s)
            except Exception:
                s = None  # fails its check
            t1 = now()
            latencies.append(t1 - t0)
            drawn.append(s)
        self.draws += self.PASS
        return self.PASS, latencies, drawn

    def _reference_codes(self) -> set[str]:
        if not hasattr(self, "_codes"):
            text = ENUM_CODES.read_text() if ENUM_CODES.exists() else ""
            ok = sha256(text) == PINS["enumerate_sha256"]
            self._codes = set(text.split("\n")) if ok else set()
        return self._codes

    def check_pass(self, drawn, checks: Checks) -> None:
        from chordshapes.diagram import canonical_code

        codes = self._reference_codes()
        for s in drawn:
            ok = self.known.get(id(s))
            if ok is None:
                ok = (
                    s is not None
                    and s.genus == 1
                    and canonical_code(s.diagram) in codes
                )
                self.known[id(s)] = ok
            checks(ok, "sample: a draw is not a connected genus-1 shape")
        checks(
            self.stats.n_samples == self.draws
            and sum(self.stats.arc_hist.values()) == self.draws,
            "sample: SampleStats totals disagree with the draw count",
        )

    def reference(self, checks: Checks) -> None:
        from chordshapes.diagram import canonical_code

        checks(bool(self._reference_codes()), "sample: enumerate reference missing")
        sampler = self.sampling.BishapeSampler(1, seed=DEFAULT_SEED, table=self.table)
        stream = [canonical_code(sampler.draw().diagram) for _ in range(self.REFERENCE_DRAWS)]
        pin = PINS["sample"]
        checks(sha256("\n".join(stream)) == pin["stream_sha256"], "sample: stream digest changed")
        checks(sampler.attempts == pin["attempts"], f"sample: {sampler.attempts} attempts")

    def counts(self) -> dict:
        return {
            "draws": self.draws,
            "attempts": self.sampler.attempts,
            "connected_hits": self.sampler.connected_hits,
        }


class Project:
    """In-process `cli.main` batch requests on large RNA-like diagrams."""

    KERNEL, ELASTICITY = "interpreter", 0.8
    PASS = 1000
    POOL = 600
    PLAN = 1500
    COMMANDS = ("genus", "loops", "shape")
    REFERENCE_REQUESTS = 30

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from chordshapes import cli

        self.cli = cli
        self.requests = 0
        self.diagrams = 0

    @classmethod
    def plan(cls, seed: int, n_requests: int):
        """Requests as (command, text, [(lengths, arcs, genus), ...])."""
        from gen import rna_diagram, to_text

        rng = random.Random(seed)
        pool: list = []
        out = []
        cursor = 0
        for k in range(n_requests):
            batch = []
            for _ in range(rng.randint(1, 3)):
                if cursor == len(pool) and len(pool) < cls.POOL:
                    pool.append(rna_diagram(rng))
                batch.append(pool[cursor])
                cursor = (cursor + 1) % cls.POOL
            text = "\n".join(to_text(lengths, arcs) for lengths, arcs, _ in batch)
            out.append((cls.COMMANDS[k % 3], text, batch))
        return out

    def inputs(self) -> None:
        self.work = self.plan(self.seed, self.PLAN)
        self.next = 0

    def call(self, command: str, text: str, now=time.perf_counter):
        """One request: main() on ``text`` as stdin, stdout captured."""
        stdin, stdout = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        try:
            t0 = now()
            try:
                rc = self.cli.main([command])
            except Exception as exc:
                rc = repr(exc)
            t1 = now()
            return rc, sys.stdout.getvalue(), t1 - t0
        finally:
            sys.stdin, sys.stdout = stdin, stdout

    def run_pass(self, now):
        latencies, outputs = [], []
        items = 0
        for _ in range(self.PASS):
            command, text, batch = self.work[self.next % self.PLAN]
            self.next += 1
            rc, out, dt = self.call(command, text, now)
            latencies.append(dt)
            outputs.append((command, batch, rc, out))
            items += len(batch)
        self.requests += self.PASS
        self.diagrams += items
        return items, latencies, outputs

    def check_pass(self, outputs, checks: Checks) -> None:
        for command, batch, rc, out in outputs:
            checks(rc == 0 and check_output(command, batch, out),
                   f"project: {command} exit {rc!r} or wrong output")

    def reference(self, checks: Checks) -> None:
        out = []
        for command, text, batch in self.plan(DEFAULT_SEED, self.REFERENCE_REQUESTS):
            rc, stdout, _ = self.call(command, text)
            checks(rc == 0 and check_output(command, batch, stdout),
                   f"project: reference {command} failed")
            out.append(stdout)
        checks(sha256("".join(out)) == PINS["project_stdout_sha256"],
               "project: stdout digest changed")

    def counts(self) -> dict:
        return {"requests": self.requests, "diagrams": self.diagrams}


def check_output(command: str, batch, out: str) -> bool:
    """Genus of every answer equals the independently computed genus of
    its input; projected shapes are shapes of that genus."""
    from chordshapes.diagram import diagram_from_code
    from chordshapes.shapes import is_shape
    from gen import genus_of

    lines = out.splitlines()
    if command == "shape":
        if len(lines) != 2 * len(batch):
            return False
        for k, (_, _, g) in enumerate(batch):
            meta = json.loads(lines[2 * k + 1])
            d = diagram_from_code(lines[2 * k], planted=True)
            if meta["genus"] != g or genus_of(d.backbone_lengths, d.arcs) != g:
                return False
            if not (is_shape(d) or meta["empty_pure_preshape"]):
                return False
        return True
    if len(lines) != len(batch):
        return False
    for line, (lengths, arcs, g) in zip(lines, batch):
        rec = json.loads(line)
        if rec["genus"] != g:
            return False
        if sorted(v for c in rec["cycles"] for v in c) != sorted(v for a in arcs for v in a):
            return False
        if command == "loops" and sum(rec["loops"][k] for k in
                                      ("hairpin", "interior", "multi")) != rec["r"]:
            return False
    return True


class Series:
    """w_gf(g, 400) for g = 0, 1, 2: big-integer series arithmetic only."""

    KERNEL, ELASTICITY = "bigint", 1.0
    ORDER = 400

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the inputs are fixed; the seed changes nothing

    def setup(self) -> None:
        from chordshapes import series

        self.series = series
        self.coefficients = 0

    def inputs(self) -> None:
        self.first: dict[int, tuple] = {}

    def run_pass(self, now):
        latencies, outputs = [], []
        for g in (0, 1, 2):
            t0 = now()
            w = self.series.w_gf(g, self.ORDER)
            t1 = now()
            latencies.append(t1 - t0)
            outputs.append((g, w))
        self.coefficients += 3 * (self.ORDER + 1)
        return 3 * (self.ORDER + 1), latencies, outputs

    def check_pass(self, outputs, checks: Checks) -> None:
        for g, w in outputs:
            digest = sha256(",".join(map(str, w.coeffs)))
            checks(digest == PINS["series_sha256"][str(g)], f"series: w_gf({g}) digest changed")
            self.first.setdefault(g, w.coeffs[:8])

    def reference(self, checks: Checks) -> None:
        """Low coefficients against a brute-force count of connected
        two-backbone matchings (m - 2 arcs for [z^m], as in C6)."""
        from chordshapes.enumeration import EnumSpec, enumerate_matchings

        for g, ms in ((0, range(3, 8)), (1, range(5, 8))):
            for m in ms:
                spec = EnumSpec(backbones=2, arcs_min=m - 2, arcs_max=m - 2,
                                genus_cap=g, genus_exact=g, connected_only=True)
                checks(enumerate_matchings(spec) == self.first[g][m],
                       f"series: [z^{m}]w_{g} != brute force")

    def counts(self) -> dict:
        return {"coefficients": self.coefficients}


WORKLOADS = {"enumerate": Enumerate, "sample": Sample, "project": Project, "series": Series}


# -- modes ----------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def passes(w, clock: HostClock, seconds: float, checks: Checks) -> dict:
    """Fixed-size passes until the next one would end after ``seconds``.

    Times are in reference seconds: each pass, and each request in it,
    is scaled by the host-speed factor measured during that pass.  The
    latency percentiles are taken per pass, then the median over passes.
    """
    walls, raw_walls, rates, p50, p99, raw_p50, raw_p99 = [], [], [], [], [], [], []
    requests = 0
    start = clock.now()
    while True:
        t0 = clock.now()
        items, lat, outputs = w.run_pass(clock.now)
        t1 = clock.now()
        f = clock.factor(t0, t1)
        raw_walls.append(t1 - t0)
        walls.append((t1 - t0) * f)
        rates.append(items / walls[-1])
        requests += len(lat)
        raw_p50.append(percentile(lat, 50))
        raw_p99.append(percentile(lat, 99))
        p50.append(raw_p50[-1] * f)
        p99.append(raw_p99[-1] * f)
        w.check_pass(outputs, checks)
        del outputs
        if clock.now() - start + statistics.median(raw_walls) > seconds:
            break
    return {
        "passes": len(walls),
        "requests": requests,
        "wall_s": statistics.median(walls),
        "throughput_per_s": statistics.median(rates),
        "latency_p50_ms": 1e3 * statistics.median(p50),
        "latency_p99_ms": 1e3 * statistics.median(p99),
        "pass_walls_s": walls,
        "raw": {
            "pass_walls_s": raw_walls,
            "latency_p50_ms": 1e3 * statistics.median(raw_p50),
            "latency_p99_ms": 1e3 * statistics.median(raw_p99),
        },
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def prepare() -> dict:
    """Build the (1, 2) table cache and the enumerate reference list."""
    from chordshapes import enumeration, sampling
    from chordshapes.diagram import canonical_code

    CACHE.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    sampling.build_table(1, 2, CACHE)
    t1 = time.perf_counter()
    if not ENUM_CODES.exists():
        codes = [canonical_code(s.diagram) for s in enumeration.enumerate_shapes(2, 1)]
        tmp = ENUM_CODES.with_suffix(".tmp")
        tmp.write_text("\n".join(codes))
        tmp.replace(ENUM_CODES)
    return {"table_s": t1 - t0, "enumerate_s": time.perf_counter() - t1}


def traced_run(w, clock: HostClock, seconds: float, checks: Checks, name: str) -> dict:
    """Untraced passes, then the set-up and one pass under the tracer."""
    import chordshapes
    from tracing import Tracer, layer_metrics

    untraced = passes(w, clock, seconds / 2, checks)
    w.reference(checks)
    tracer = Tracer(clock.now)
    tracer.install(chordshapes)
    w.setup()
    w.inputs()
    t0 = clock.now()
    _, _, outputs = w.run_pass(clock.now)
    t1 = clock.now()
    traced_wall = (t1 - t0) * clock.factor(t0, t1)
    summary = tracer.summary()
    w.check_pass(outputs, checks)
    metrics = layer_metrics(summary)
    counts = w.counts()
    metrics.update(trace_metrics(counts, summary))
    metrics["trace.overhead_frac"] = traced_wall / untraced["wall_s"] - 1
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{name}.spans.jsonl"
    tracer.write(spans)
    return {
        "per_layer": metrics,
        "counts": counts,
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
        "span_summary": summary,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced_wall,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "prepare":
        print(json.dumps(prepare()))
        return 0
    name, seed = argv[1], int(argv[2])
    w = WORKLOADS[name](seed)
    w.setup()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    ref_s = PINS["calibration_ref_s"]
    factor = (ref_s / calibrate_once(KERNELS[w.KERNEL])) ** w.ELASTICITY
    if mode == "setup":
        print(json.dumps({"ready": ready, "factor": factor}))
        return 0
    seconds = float(argv[3])
    checks = Checks()
    clock = HostClock(ref_s, w.KERNEL, w.ELASTICITY)
    w.inputs()
    if mode == "timed":
        with clock:
            result = passes(w, clock, seconds, checks)
        w.reference(checks)
        result.update(
            ready=ready,
            factor=factor,
            peak_rss_mib=peak_rss_mib(),
            counts=w.counts(),
        )
    else:
        with clock:
            result = traced_run(w, clock, seconds, checks, f"{name}-seed{seed}")
    result["ticks"] = len(clock.samples)
    result["tick_median_s"] = statistics.median(dt for _, dt in clock.samples)
    result.update(attempted=checks.attempted, failed=checks.failed, failures=checks.failures)
    print(json.dumps(result))
    return 0


def trace_metrics(counts: dict, summary: dict) -> dict:
    """Ratios over the exact work counts of the traced pass."""
    attempts = counts.get("attempts", 0)
    enum = summary.get("enumeration.enumerate_shapes")
    return {
        "sampling.attempts": attempts,
        "sampling.acceptance": counts["connected_hits"] / attempts if attempts else 0.0,
        "enumeration.shapes_per_s": counts["shapes_emitted"] / enum["total_s"] if enum else 0.0,
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
