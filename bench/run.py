"""chordshapes benchmark runner.

    python3 bench/run.py --workload {enumerate,sample,project,series}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in child
processes (``bench/worker.py``), one at a time.  The first run in a
checkout builds the genus-2 one-backbone table cache and the
enumerate reference list under ``bench/.cache``; later runs reuse them
(the library verifies the table's digest and cardinality on each load).

With ``--trace 0`` the set-up is timed from process start in several
fresh children and reported as the median; one more child runs the
timed passes.  With ``--trace 1`` one child reports the per-layer
metrics of a traced pass.  Every metric is printed by name and unit,
the full record goes to ``bench/results/``, and the last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
WORKLOADS = ("enumerate", "sample", "project", "series")
SETUP_CHILDREN = 5  # setup_s is the median over this many fresh processes


def declared() -> dict:
    """Metric name -> unit for each mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def child(args: list[str], timeout: float) -> dict:
    """Run the worker; return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def ensure_cache() -> dict | None:
    """Build the cached inputs once per checkout, outside any timed run."""
    if (BENCH / ".cache" / "enumerate_2bb_g1.txt").exists() and (
        BENCH / ".cache" / "shapes_1bb_g2.json"
    ).exists():
        return None
    return child(["prepare"], timeout=900)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "chordshapes" / "__init__.py").is_file():
        sys.stderr.write("bench: no src/chordshapes here; run from a source checkout\n")
        return 2

    units = declared()
    prepared = ensure_cache()
    w, seed = args.workload, str(args.seed)
    record = {
        "workload": w,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "prepared": prepared,
    }
    if args.trace:
        out = child(["traced", w, seed, str(args.seconds)], timeout=170)
        values = out.pop("per_layer")
    else:
        raw, setups = [], []
        for k in range(SETUP_CHILDREN):
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            if k < SETUP_CHILDREN - 1:
                out = child(["setup", w, seed], timeout=60)
            else:
                out = child(["timed", w, seed, str(args.seconds)], timeout=150)
            raw.append(out.pop("ready") - start)
            setups.append(raw[-1] * out.pop("factor"))
        out["setup_s_samples"] = setups
        out["raw"]["setup_s_samples"] = raw
        values = {"setup_s": statistics.median(setups), **out}
    metrics = {k: (values[k], unit) for k, unit in units[args.trace].items()}
    record.update(out)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{w}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{w:9} {name:34} {value:>16.6g} {unit}")
    print(f"{w:9} {'checks failed/attempted':34} {out['failed']:>9}/{out['attempted']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
