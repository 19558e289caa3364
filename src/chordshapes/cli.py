"""Command-line interface.

Every subcommand is a thin adapter over the library modules; no
combinatorial logic lives here.  Diagrams are read from a file or stdin
in the two-line text format (``|`` may replace the newline); inputs may
contain several diagrams separated by blank lines and are then processed
in order ("batch mode").  Exact integers are emitted as decimal strings.

Exit codes: 0 ok, 2 usage, 3 bad input, 4 infeasible bound, 5 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path
from typing import Optional

from .bijections import eta, eta_inv, theta, theta_inv
from .diagram import (
    Diagram,
    canonical_code,
    components,
    parse_diagram,
    serialize_diagram,
)
from .enumeration import EnumSpec, count_fiber, enumerate_matchings, enumerate_shapes
from .errors import (
    ChordShapesError,
    ConsistencyError,
    DiagramError,
    InfeasibleError,
)
from .fatgraph import boundary_components, classify_loops, genus
from .sampling import sample_stats
from .series import fiber_gf, shape_poly_1bb, shape_poly_2bb, w_gf
from .shapes import Shape, as_shape, project_shape, shape_class

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_INCONSISTENT = 5


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


_BLANK_LINE = re.compile(r"\n[^\S\n]*\n")


def _read_diagrams(path: str) -> list[Diagram]:
    """Parse one diagram per paragraph; paragraphs are separated by lines
    holding only whitespace, so CRLF input and indented blanks work."""
    text = _read_text(path)
    paragraphs = [p for p in _BLANK_LINE.split(text) if p.strip()]
    if not paragraphs:
        raise DiagramError("no diagram in input")
    return [parse_diagram(p) for p in paragraphs]


def _coeffs_json(p) -> dict[str, str]:
    return {str(k): str(c) for k, c in enumerate(p.coeffs) if c}


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_genus(args) -> int:
    for d in _read_diagrams(args.input):
        dec = boundary_components(d)
        _emit(
            {
                "genus": dec.genus,
                "r": dec.r,
                "cycles": [list(c) for c in dec.cycles],
                "component_genera": [genus(c) for c in components(d)],
            }
        )
    return EXIT_OK


def _cmd_loops(args) -> int:
    for d in _read_diagrams(args.input):
        if args.planted:
            d = Diagram(d.backbone_lengths, d.arcs, planted=True)
        prof = classify_loops(d)
        dec = prof.boundary
        _emit(
            {
                "genus": dec.genus,
                "r": dec.r,
                "cycles": [list(c) for c in dec.cycles],
                "loops": {
                    "hairpin": prof.hairpin,
                    "interior": prof.interior,
                    "multi": prof.multi,
                    "pseudoknot": prof.pseudoknot,
                    "plant": prof.plant,
                    "alpha": prof.alpha,
                    "beta": prof.beta,
                },
            }
        )
    return EXIT_OK


def _cmd_shape(args) -> int:
    for d in _read_diagrams(args.input):
        s = project_shape(d)
        print(canonical_code(s.diagram))
        meta = {
            "genus": s.genus,
            "arcs": s.n_arcs,
            "empty_pure_preshape": s.empty_pure_preshape,
        }
        if s.b == 1 and not s.empty_pure_preshape:
            meta["class"] = shape_class(s).value
        _emit(meta)
    return EXIT_OK


def _cmd_bij(args) -> int:
    mapping = {
        "theta": theta,
        "theta-inv": theta_inv,
        "eta": eta,
        "eta-inv": eta_inv,
    }
    fn = mapping[args.direction]
    blocks = []
    for d in _read_diagrams(args.input):
        out = fn(as_shape(d))
        diagram = out.diagram if isinstance(out, Shape) else out
        blocks.append(serialize_diagram(diagram))
    sys.stdout.write("\n".join(blocks))  # blank line between batch outputs
    return EXIT_OK


def _cmd_poly(args) -> int:
    if args.backbones == 1:
        p = shape_poly_1bb(args.genus)
    else:
        p = shape_poly_2bb(args.genus)
    _emit(_coeffs_json(p))
    return EXIT_OK


def _cmd_series(args) -> int:
    if args.kind == "fiber":
        if args.l is None:
            raise DiagramError("series fiber needs --l")
        s = fiber_gf(args.l, args.order)
    else:
        s = w_gf(args.genus, args.order)
    _emit(_coeffs_json(s))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.matchings:
        if args.arcs is None:
            raise DiagramError("enumerate --matchings needs --arcs")
        diagrams: list[Diagram] = []
        visit = diagrams.append if args.list else None
        spec = EnumSpec(
            backbones=args.backbones,
            arcs_min=args.arcs,
            arcs_max=args.arcs,
            genus_cap=args.genus,
            genus_exact=args.genus,
            connected_only=args.connected,
            node_budget=args.node_budget,
        )
        count = enumerate_matchings(spec, visit)
        for d in diagrams:
            print(canonical_code(d))
        _emit({"count": str(count)})
        return EXIT_OK

    shapes = enumerate_shapes(
        args.backbones,
        args.genus,
        connected=args.connected,
        force=args.force,
        node_budget=args.node_budget,
    )
    if args.profile:
        profile: dict[int, int] = {}
        for s in shapes:
            profile[s.n_arcs] = profile.get(s.n_arcs, 0) + 1
        _emit({str(k): str(v) for k, v in sorted(profile.items())})
    else:
        for s in shapes:
            print(canonical_code(s.diagram))
        _emit({"count": str(len(shapes))})
    return EXIT_OK


def _cmd_sample(args) -> int:
    def show(s: Shape) -> None:
        print(canonical_code(s.diagram))

    stats = sample_stats(
        args.genus,
        args.count,
        random.Random(args.seed),
        arc_filter=args.arcs,
        cache_dir=args.cache_dir,
        on_sample=None if args.stats_only else show,
    )
    if args.format == "json":
        _emit(
            {
                "samples": stats.n_samples,
                "attempts": stats.attempts,
                "acceptance_fraction": stats.acceptance_fraction,
                "arc_hist": {str(k): v for k, v in sorted(stats.arc_hist.items())},
                "alpha_mean": stats.alpha_mean,
                "beta_mean": stats.beta_mean,
            }
        )
    else:
        sys.stdout.write(stats.to_csv())
    return EXIT_OK


def _cmd_fiber(args) -> int:
    diagrams = _read_diagrams(args.input)
    for d in diagrams:
        s = as_shape(d)
        n = count_fiber(s, args.arcs, force=args.force)
        _emit({"arcs": args.arcs, "count": str(n)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordshapes",
        description="Genus, shapes, shape polynomials and uniform sampling "
        "of chord diagrams over backbones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument(
            "-i", "--input", default="-", help="diagram file, or - for stdin"
        )

    p = sub.add_parser("genus", help="boundary cycles and genus of a diagram")
    add_input(p)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("loops", help="loop taxonomy of a diagram")
    add_input(p)
    p.add_argument(
        "--planted",
        action="store_true",
        help="treat the outermost arc of each backbone as a rainbow",
    )
    p.set_defaults(func=_cmd_loops)

    p = sub.add_parser("shape", help="project a diagram to its shape")
    add_input(p)
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("bij", help="apply a shape surgery")
    add_input(p)
    p.add_argument(
        "direction", choices=["theta", "theta-inv", "eta", "eta-inv"]
    )
    p.set_defaults(func=_cmd_bij)

    p = sub.add_parser("poly", help="exact shape polynomial")
    p.add_argument("--backbones", type=int, choices=[1, 2], required=True)
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("series", help="fiber or matching generating function")
    p.add_argument("kind", choices=["fiber", "w"])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--l", type=int, default=None, help="non-rainbow arcs (fiber)")
    p.add_argument("--genus", type=int, default=0)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("enumerate", help="exhaustive shape/matching search")
    p.add_argument("--backbones", type=int, choices=[1, 2], required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--matchings", action="store_true")
    p.add_argument("--arcs", type=int, default=None)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--profile", action="store_true")
    p.add_argument("--list", action="store_true")
    p.add_argument("--force", action="store_true")
    p.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help="fail (exit 4) once the search has placed this many arcs",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="uniform two-backbone shapes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--arcs", type=int, default=None, help="arc-count filter")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stats-only", action="store_true")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fiber", help="brute-force fiber count of a shape")
    add_input(p)
    p.add_argument("--arcs", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_fiber)

    return parser


def _error_record(kind: str, exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": str(exc)}}) + "\n"
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        _error_record("infeasible", exc)
        return EXIT_INFEASIBLE
    except ConsistencyError as exc:
        _error_record("consistency", exc)
        return EXIT_INCONSISTENT
    except (DiagramError, OSError) as exc:
        _error_record("input", exc)
        return EXIT_INPUT
    except ChordShapesError as exc:  # pragma: no cover - safety net
        _error_record("internal", exc)
        return EXIT_INCONSISTENT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
