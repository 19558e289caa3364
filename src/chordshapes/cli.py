"""Command-line interface.

Every subcommand is a thin adapter over the library modules; no
combinatorial logic lives here.  Diagrams are read from a file or stdin
in the two-line text format (``|`` may replace the newline); inputs may
contain several diagrams separated by blank lines and are then processed
in order ("batch mode").  Exact integers are emitted as decimal strings,
also past the interpreter's integer-digit limit.

A request costs the work on its diagrams, not the set-up: the argument
parser is built once per process, on the first :func:`main` call, and
``genus``, ``loops`` and ``shape`` trace each diagram's fat graph once
(``genus`` reads the component genera off that same trace).

A process loads only the modules its command uses: ``bijections``,
``enumeration``, ``sampling`` and ``series`` are imported inside the
commands that call them, so ``genus``, ``loops`` and ``shape`` never
compile them.  ``diagram``, ``errors``, ``fatgraph`` and ``shapes`` stay
imported at module level: every diagram command reads them, and the
benchmark's tracer (``bench/tracing.py``) finds the calls it times by
the sibling functions bound in each module's namespace, so a function
moved into a command would drop out of the per-layer spans.

Exit codes: 0 ok, 1 stdout closed or refusing writes, 2 usage, 3 bad
input (a closed stdin too), 4 infeasible bound, 5 internal consistency
failure.  A reader that closes stdout early (``| head``) ends the
request with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional

from .diagram import Diagram, _parse, canonical_code, serialize_diagram
from .errors import (
    ChordShapesError,
    ConsistencyError,
    DiagramError,
    InfeasibleError,
)
from .fatgraph import boundary_components, classify_loops, component_genera
from .shapes import Shape, _planted, as_shape, project_shape, shape_class

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_INCONSISTENT = 5

# `enumerate --matchings` with no --node-budget stops once it has placed
# this many arcs (about 26 s at the 385 k placed arcs/s of a 2-vCPU Xeon
# VM), so a search too large to finish ends with exit 4, not a hang.
_MATCHINGS_BUDGET = 10**7

# `bij` directions; "theta-inv" names bijections.theta_inv
_SURGERIES = ("theta", "theta-inv", "eta", "eta-inv")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed before the run
                raise DiagramError("stdin is closed")
            return sys.stdin.read()
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DiagramError(f"input is not valid text: {exc}") from exc
    except OSError as exc:
        raise DiagramError(str(exc)) from exc


_BLANK_LINE = re.compile(r"\n[^\S\n]*\n")


def _read_diagrams(path: str) -> list[Diagram]:
    """Parse one diagram per paragraph; paragraphs are separated by lines
    holding only whitespace, so CRLF input and indented blanks work.  A
    parse error names the line of the whole input, not of its paragraph."""
    diagrams = []
    line = 1  # the paragraph's first line in the whole input
    for p in _BLANK_LINE.split(_read_text(path)):
        if p.strip():
            diagrams.append(_parse(p, first_line=line))
        # the separator after it holds two newlines
        line += p.count("\n") + 2
    if not diagrams:
        raise DiagramError("no diagram in input")
    return diagrams


def _exact_decimal(n: int) -> str:
    """``str(n)``, also past the interpreter's integer-digit limit.

    A number too long for ``str`` is split by a power of ten into two
    halves of about equal length, which are converted the same way; the
    interpreter-wide limit is left as it is.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _exact_decimal(-n)
    k = n.bit_length() * 3 // 20  # half the digits: log10(2) ~ 0.30103
    hi, lo = divmod(n, 10**k)
    return _exact_decimal(hi) + _exact_decimal(lo).zfill(k)


def _coeffs_json(p) -> dict[str, str]:
    return {str(k): _exact_decimal(c) for k, c in enumerate(p.coeffs) if c}


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _decomposition_json(dec) -> dict:
    return {"genus": dec.genus, "r": dec.r, "cycles": dec.cycles}


def _cmd_genus(args) -> int:
    for d in _read_diagrams(args.input):
        dec = boundary_components(d)
        genera = component_genera(d, dec)
        _emit({**_decomposition_json(dec), "component_genera": genera})
    return EXIT_OK


def _cmd_loops(args) -> int:
    for d in _read_diagrams(args.input):
        if args.planted:
            d = _planted(d)
        prof = classify_loops(d)
        _emit(
            {
                **_decomposition_json(prof.boundary),
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
    from . import bijections

    fn = getattr(bijections, args.direction.replace("-", "_"))
    blocks = []
    for d in _read_diagrams(args.input):
        out = fn(d)
        diagram = out.diagram if isinstance(out, Shape) else out
        blocks.append(serialize_diagram(diagram))
    sys.stdout.write("\n".join(blocks))  # blank line between batch outputs
    return EXIT_OK


def _cmd_poly(args) -> int:
    from .series import shape_poly_1bb, shape_poly_2bb

    if args.backbones == 1:
        p = shape_poly_1bb(args.genus)
    else:
        p = shape_poly_2bb(args.genus)
    _emit(_coeffs_json(p))
    return EXIT_OK


def _cmd_series(args) -> int:
    from .series import fiber_gf, w_gf

    if args.kind == "fiber":
        if args.l is None:
            args.usage_error("fiber needs --l")
        if args.genus is not None:
            args.usage_error("fiber takes no --genus")
        s = fiber_gf(args.l, args.order)
    else:
        if args.l is not None:
            args.usage_error("w takes no --l")
        s = w_gf(0 if args.genus is None else args.genus, args.order)
    _emit(_coeffs_json(s))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .enumeration import EnumSpec, enumerate_matchings, enumerate_shapes

    if args.matchings:
        if args.arcs is None:
            args.usage_error("--matchings needs --arcs")
        if args.profile:
            args.usage_error("--profile counts shapes, not --matchings")

        def show(d: Diagram) -> None:
            print(canonical_code(d))

        spec = EnumSpec(
            backbones=args.backbones,
            arcs_min=args.arcs,
            arcs_max=args.arcs,
            genus_cap=args.genus,
            genus_exact=args.genus,
            connected_only=args.connected,
            node_budget=(
                _MATCHINGS_BUDGET if args.node_budget is None else args.node_budget
            ),
        )
        # each diagram is printed as it is visited, so a search that hits
        # its budget has printed the diagrams it reached before exit 4
        count = enumerate_matchings(spec, show if args.list else None)
        _emit({"count": str(count)})
        return EXIT_OK

    if args.arcs is not None:
        args.usage_error("--arcs needs --matchings")
    if args.list:
        args.usage_error("--list needs --matchings")
    shapes = enumerate_shapes(
        args.backbones,
        args.genus,
        connected=args.connected,
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
    from .sampling import sample_stats

    def show(s: Shape) -> None:
        sys.stdout.write(s.code + "\n")

    stats = sample_stats(
        args.genus,
        args.count,
        seed=args.seed,
        arc_filter=args.arcs,
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
    from .enumeration import count_fiber

    diagrams = _read_diagrams(args.input)
    for d in diagrams:
        s = as_shape(d)
        n = count_fiber(s, args.arcs)
        _emit({"arcs": args.arcs, "count": str(n)})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
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
    p.add_argument("direction", choices=_SURGERIES)
    p.set_defaults(func=_cmd_bij)

    p = sub.add_parser("poly", help="exact shape polynomial")
    p.add_argument("--backbones", type=int, choices=[1, 2], required=True)
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("series", help="fiber or matching generating function")
    p.add_argument("kind", choices=["fiber", "w"])
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--l",
        type=int,
        default=None,
        help="non-rainbow arcs (needed by, and only with, fiber)",
    )
    p.add_argument(
        "--genus", type=int, default=None, help="only with w; 0 if not given"
    )
    p.set_defaults(func=_cmd_series, usage_error=p.error)

    p = sub.add_parser("enumerate", help="exhaustive shape/matching search")
    p.add_argument("--backbones", type=int, choices=[1, 2], required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--matchings", action="store_true")
    p.add_argument(
        "--arcs",
        type=int,
        default=None,
        help="arcs per matching (needed by, and only with, --matchings); "
        "more than 500 is exit 4",
    )
    p.add_argument("--connected", action="store_true")
    p.add_argument(
        "--profile",
        action="store_true",
        help="print the shape count per arc count (not with --matchings)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="print each matching as it is visited (only with --matchings)",
    )
    p.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help="fail (exit 4) once the search has placed this many arcs "
        "(with --matchings, 10**7 if not given)",
    )
    p.set_defaults(func=_cmd_enumerate, usage_error=p.error)

    p = sub.add_parser("sample", help="uniform two-backbone shapes")
    p.add_argument(
        "--genus", type=int, required=True, help="0 or 1; larger genera exit 4"
    )
    p.add_argument("--count", type=int, required=True, help="number of draws")
    p.add_argument("--arcs", type=int, default=None, help="arc-count filter")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the draws, >= 0; a negative seed exits 3, as it would "
        "repeat the stream of its absolute value",
    )
    p.add_argument(
        "--stats-only",
        action="store_true",
        help="print only the statistics, not each drawn shape's code",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fiber", help="brute-force fiber count of a shape")
    add_input(p)
    p.add_argument("--arcs", type=int, required=True)
    p.set_defaults(func=_cmd_fiber)

    return parser


def _error_record(kind: str, exc: Exception) -> None:
    if sys.stderr is not None:  # fd 2 was closed before the run
        sys.stderr.write(
            json.dumps({"error": {"type": kind, "message": str(exc)}}) + "\n"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if sys.stdout is None:  # fd 1 was closed before the run
            raise OSError("stdout is closed")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # stdout failed (_read_text made read errors DiagramErrors): point
        # fd 1 at devnull, so that the interpreter's final flush of what
        # is left cannot raise again.  A reader that is gone is no error
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK
        _error_record("output", exc)
        return EXIT_OUTPUT
    except InfeasibleError as exc:
        _error_record("infeasible", exc)
        return EXIT_INFEASIBLE
    except ConsistencyError as exc:
        _error_record("consistency", exc)
        return EXIT_INCONSISTENT
    except DiagramError as exc:
        _error_record("input", exc)
        return EXIT_INPUT
    except ChordShapesError as exc:  # pragma: no cover - safety net
        _error_record("internal", exc)
        return EXIT_INCONSISTENT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
