from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordshapes import (
    ConsistencyError,
    Diagram,
    EnumSpec,
    InfeasibleError,
    canonical_code,
    enumerate_matchings,
    eta,
    genus,
    kappa,
    serialize_diagram,
    shape_poly_1bb,
    theta,
)
from chordshapes.cli import _exact_decimal, build_parser, main

from conftest import (
    components,
    diagram_strategy,
    disjoint_union,
    fuzz_text,
    strip_plants,
)

CROSSING = "4\n1-3 2-4\n"
SHAPE_Q3 = "3 3\n1-3 2-5 4-6\n"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def fresh_main(argv: list[str], text: str) -> tuple[int, str]:
    """Exit code and stdout of ``main(argv)`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "chordshapes.cli", *argv],
        input=text,
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    return proc.returncode, proc.stdout


def test_genus_subcommand(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(CROSSING)
    code, out, _ = run(capsys, "genus", "-i", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["r"] == 1
    assert payload["cycles"] == [[1, 4, 3, 2]]


def test_genus_batch_mode(tmp_path, capsys, monkeypatch):
    f = tmp_path / "batch.txt"
    f.write_text(CROSSING + "\n" + "4\n1-4 2-3\n")
    code, out, _ = run(capsys, "genus", "-i", str(f))
    assert code == 0
    lines = out.strip().split("\n")
    assert [json.loads(l)["genus"] for l in lines] == [1, 0]
    # CRLF line ends, and a separator line that holds only whitespace;
    # stdin as a StringIO keeps the CR bytes that a text-mode file read
    # would translate
    for text in (
        "4\r\n1-3 2-4\r\n\r\n4\r\n1-4 2-3\r\n",
        CROSSING + " \t \n" + "4\n1-4 2-3\n",
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out2, _ = run(capsys, "genus")
        assert code == 0
        assert out2 == out


def test_loops_subcommand(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("6\n1-6 2-4 3-5\n")
    code, out, _ = run(capsys, "loops", "-i", str(f))
    payload = json.loads(out)
    assert code == 0
    assert payload["loops"]["multi"] == 1
    assert payload["loops"]["pseudoknot"] == 1
    # without --planted the rainbow boundary counts as a hairpin
    assert payload["loops"]["hairpin"] == 1
    assert payload["loops"]["plant"] == 0
    code, out, _ = run(capsys, "loops", "--planted", "-i", str(f))
    payload = json.loads(out)
    assert payload["loops"]["plant"] == 1
    assert payload["loops"]["hairpin"] == 0


def test_shape_subcommand(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(CROSSING)
    code, out, _ = run(capsys, "shape", "-i", str(f))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "6|1-6 2-4 3-5"
    meta = json.loads(lines[1])
    assert meta["genus"] == 1 and meta["arcs"] == 3 and meta["class"] == "B"


def test_bij_eta(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text(SHAPE_Q3)
    code, out, _ = run(capsys, "bij", "-i", str(f), "eta")
    assert code == 0
    assert out == "8\n1-8 2-4 3-6 5-7\n"


def test_bij_batch_output_reparses(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text(SHAPE_Q3 + "\n" + "4 4\n1-4 2-6 3-7 5-8\n")
    code, out, _ = run(capsys, "bij", "-i", str(f), "eta")
    assert code == 0
    g = tmp_path / "b.txt"
    g.write_text(out)
    code, out2, _ = run(capsys, "bij", "-i", str(g), "eta-inv")
    assert code == 0
    paragraphs = [p.strip() for p in out2.split("\n\n")]
    assert paragraphs == [SHAPE_Q3.strip(), "4 4\n1-4 2-6 3-7 5-8"]


def test_bij_roundtrip_through_files(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text(SHAPE_Q3)
    code, out, _ = run(capsys, "bij", "-i", str(f), "eta")
    g = tmp_path / "a.txt"
    g.write_text(out)
    code, out2, _ = run(capsys, "bij", "-i", str(g), "eta-inv")
    assert code == 0
    assert out2 == SHAPE_Q3


def test_poly_q1(capsys):
    code, out, _ = run(capsys, "poly", "--backbones", "2", "--genus", "1")
    assert code == 0
    assert json.loads(out) == {
        "5": "21",
        "6": "167",
        "7": "479",
        "8": "645",
        "9": "416",
        "10": "104",
    }


def test_poly_deep_genus(capsys):
    # the kappa recursion used to recurse once per genus and ended in a
    # RecursionError traceback (exit 1) from genus 500 on
    code, out, _ = run(capsys, "poly", "--backbones", "1", "--genus", "500")
    assert code == 0
    coeffs = json.loads(out)
    # S_g runs from kappa_1 z^(2g+1) to kappa_g z^(6g-1)
    assert min(map(int, coeffs)) == 1001 and max(map(int, coeffs)) == 2999
    assert coeffs["1001"] == str(kappa(500, 1))
    assert coeffs["2999"] == str(kappa(500, 500))


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter puts no limit on integer digits",
)
def test_poly_past_digit_limit(capsys, monkeypatch):
    # the largest coefficient of S_560, at z^2462, has 4316 digits, more
    # than str() converts by default: printing it ended in a ValueError
    # traceback (exit 1).  The polynomial the command prints is kept, so
    # it is built once.
    built = []

    def keep(g):
        built.append(shape_poly_1bb(g))
        return built[-1]

    monkeypatch.setattr("chordshapes.cli.shape_poly_1bb", keep)
    code, out, _ = run(capsys, "poly", "--backbones", "1", "--genus", "560")
    assert code == 0
    coeffs = json.loads(out)
    assert min(map(int, coeffs)) == 1121 and max(map(int, coeffs)) == 3359
    (poly,) = built
    top = max(poly.coeffs)
    assert poly.coeffs.index(top) == 2462
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert len(str(top)) == 4316 > limit
        assert coeffs["2462"] == str(top)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter puts no limit on integer digits",
)
def test_exact_decimal_matches_str():
    limit = sys.get_int_max_str_digits()
    rng = random.Random(11)
    cases = [
        10**k + d
        for k in (limit - 1, limit, limit + 1, 2 * limit + 3, 5 * limit)
        for d in (-1, 0, 1)
    ]
    cases += [rng.getrandbits(rng.randint(1, 60_000)) for _ in range(40)]
    cases += [10 ** (2 * limit) * rng.getrandbits(64) + 7, 0, 1, 9]
    cases += [-n for n in cases[:6]]
    got = [_exact_decimal(n) for n in cases]
    try:
        sys.set_int_max_str_digits(0)
        want = [str(n) for n in cases]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_series_fiber(capsys):
    code, out, _ = run(capsys, "series", "fiber", "--l", "1", "--order", "4")
    assert code == 0
    assert json.loads(out) == {"3": "1", "4": "7"}


def test_series_w(capsys):
    code, out, _ = run(capsys, "series", "w", "--genus", "0", "--order", "5")
    assert code == 0
    assert json.loads(out) == {"3": "1", "4": "8", "5": "48"}


def test_series_w_below_first_degree_returns_at_once():
    # every coefficient below z^(2g+3) is zero; building Q_150 to find
    # that out took over half a minute
    assert fresh_main(["series", "w", "--genus", "150", "--order", "10"], "") == (
        0,
        "{}\n",
    )


@pytest.mark.parametrize(
    "argv",
    [("fiber", "--l", "1", "--order", "-3"), ("w", "--genus", "1", "--order", "-1")],
    ids=["fiber", "w"],
)
def test_series_negative_order_exit_code_3(capsys, argv):
    # a negative order made the Catalan series raise IndexError (exit 1)
    code, out, err = run(capsys, "series", *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"type": "input", "message": "order must be >= 0"}


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "w", "--genus", "-1", "--order", "5"),
        ("poly", "--backbones", "2", "--genus", "-1"),
    ],
    ids=["series-w", "poly-2bb"],
)
def test_negative_two_backbone_genus_exit_code_3(capsys, argv):
    # `series w` named shape_poly_2bb, a function it never called
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"type": "input", "message": "genus must be >= 0"}


def test_enumerate_profile(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--backbones", "1", "--genus", "1", "--profile"
    )
    assert code == 0
    assert json.loads(out) == {"3": "1", "4": "2", "5": "1"}


def test_enumerate_listing_pinned(capsys):
    # each shape's code in canonical order, then the count line
    code, out, _ = run(capsys, "enumerate", "--backbones", "2", "--genus", "0")
    assert code == 0
    assert out == '3 3|1-3 2-5 4-6\n4 4|1-4 2-6 3-7 5-8\n{"count": "2"}\n'
    code, out, _ = run(
        capsys, "enumerate", "--backbones", "2", "--genus", "1", "--connected"
    )
    assert code == 0
    assert sha256(out.encode()).hexdigest() == (
        "6133da81d3173b1d0b793b6649fdf56580ec6d72f4c6d27f13c1bc05fa88cc16"
    )


def test_enumerate_matchings(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--backbones",
        "2",
        "--genus",
        "0",
        "--matchings",
        "--arcs",
        "2",
        "--connected",
    )
    assert code == 0
    assert json.loads(out) == {"count": "8"}


def visited_codes(**spec) -> list[str]:
    """The codes ``enumerate_matchings`` visits, in order, up to the end
    of the search or of its node budget."""
    codes: list[str] = []
    try:
        enumerate_matchings(EnumSpec(**spec), lambda d: codes.append(canonical_code(d)))
    except InfeasibleError:
        pass
    return codes


def test_enumerate_matchings_list(capsys):
    # one code per line in visit order, then the count line
    code, out, _ = run(
        capsys, "enumerate", "--backbones", "2", "--genus", "1", "--matchings",
        "--arcs", "4", "--connected", "--list",
    )
    codes = visited_codes(
        backbones=2, arcs_min=4, arcs_max=4, genus_cap=1, genus_exact=1,
        connected_only=True,
    )
    assert code == 0 and len(codes) == 440
    *lines, last = out.splitlines()
    assert lines == codes
    assert json.loads(last) == {"count": "440"}


def test_enumerate_matchings_order_pinned(capsys):
    # the 5502 connected 5-arc two-backbone matchings of genus 1 and the
    # count line, as printed when the search filtered every leaf by genus:
    # the genus window's prunes alone must keep the same codes in order
    code, out, _ = run(
        capsys, "enumerate", "--backbones", "2", "--genus", "1", "--matchings",
        "--arcs", "5", "--list",
    )
    assert code == 0
    assert sha256(out.encode()).hexdigest() == (
        "c5d9e0b2441823a2a435d8a5bad4e02e09c515f73ab16d7350ad765005c21d10"
    )


def test_fiber_subcommand(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text(SHAPE_Q3)
    code, out, _ = run(capsys, "fiber", "-i", str(f), "--arcs", "2")
    assert code == 0
    assert json.loads(out) == {"arcs": 2, "count": "7"}


def test_sample_deterministic(capsys):
    args = [
        "sample",
        "--genus",
        "0",
        "--count",
        "3",
        "--seed",
        "7",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    shapes = out1.strip().split("\n")[:3]
    assert all(s.startswith(("3 3|", "4 4|")) for s in shapes)


def test_sample_stats_only_json(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        "--genus",
        "0",
        "--count",
        "10",
        "--seed",
        "1",
        "--stats-only",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 10
    assert payload["acceptance_fraction"] == 1.0


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as e:
        main(["poly", "--backbones", "7", "--genus", "1"])
    assert e.value.code == 2


def test_bad_input_exit_code_3(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2 2\n1-1\n")
    code, _, err = run(capsys, "genus", "-i", str(f))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter puts no limit on integer digits",
)
def test_out_of_range_past_digit_limit_exit_code_3(tmp_path, capsys):
    # the vertex total is too long for str(), which the message used to call
    nines = "9" * sys.get_int_max_str_digits()
    f = tmp_path / "huge.txt"
    f.write_text(f"{nines} {nines}\n0-1\n")
    code, _, err = run(capsys, "genus", "-i", str(f))
    assert code == 3
    error = json.loads(err)["error"]
    assert error["type"] == "input"
    assert "out of range" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [["genus"], ["loops"], ["shape"], ["bij", "eta"], ["fiber", "--arcs", "2"]],
    ids=lambda argv: argv[0],
)
def test_undecodable_file_exit_code_3(tmp_path, capsys, argv):
    # invalid UTF-8 used to end in a UnicodeDecodeError traceback (exit 1)
    f = tmp_path / "bad.txt"
    f.write_bytes(b"\xff\xfe3\n1-2\n")
    code, out, err = run(capsys, argv[0], "-i", str(f), *argv[1:])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "input"


def test_undecodable_stdin_exit_code_3():
    proc = subprocess.run(
        [sys.executable, "-m", "chordshapes.cli", "genus"],
        input=b"\xff\n",
        capture_output=True,
        env=dict(src_env(), PYTHONIOENCODING="utf-8:strict"),
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["error"]["type"] == "input"


def test_closed_stdout_exit_code_0():
    # a reader that stops early (`| head -1`) once made this an input
    # error: exit 3 with a "Broken pipe" record on stderr.  The search
    # prints about 150 KB, more than a pipe holds, so the child is still
    # writing when the pipe is closed
    proc = subprocess.Popen(
        [sys.executable, "-m", "chordshapes.cli",
         "enumerate", "--backbones", "1", "--genus", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    try:
        assert proc.stdout.readline() == b"10|1-10 2-4 3-5 6-8 7-9\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize(
    "redirect, argv, code, kind",
    [
        # fd 0 closed: sys.stdin is None, once an AttributeError traceback
        ("<&-", ["genus"], 3, "input"),
        # fd 1 closed: sys.stdout is None, once an AttributeError traceback
        (">&-", ["poly", "--backbones", "2", "--genus", "1"], 1, "output"),
        # a stdout that refuses writes was once reported as bad input
        pytest.param(
            "> /dev/full", ["poly", "--backbones", "2", "--genus", "1"], 1,
            "output", marks=pytest.mark.skipif(
                not os.path.exists("/dev/full"), reason="no /dev/full"
            ),
        ),
    ],
    ids=["stdin-closed", "stdout-closed", "stdout-full"],
)
def test_standard_stream_errors(redirect, argv, code, kind):
    # sh applies the redirection to the CLI it execs
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh",
         sys.executable, "-m", "chordshapes.cli", *argv],
        capture_output=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == b""
    # one record and no traceback
    assert json.loads(proc.stderr)["error"]["type"] == kind


@pytest.mark.parametrize(
    "argv, code",
    [
        (["genus", "-i", "/nonexistent/nowhere.txt"], 3),
        (["poly", "--backbones", "2", "--genus", "999"], 4),
    ],
    ids=["input", "infeasible"],
)
def test_closed_stderr_keeps_exit_code(argv, code):
    # fd 2 closed: sys.stderr is None, so no record is written and the
    # exit code alone reports the error
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh",
         sys.executable, "-m", "chordshapes.cli", *argv],
        stdout=subprocess.PIPE,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == b""


def test_consistency_error_exit_code_5(capsys, monkeypatch):
    def broken(g):
        raise ConsistencyError("x")

    monkeypatch.setattr("chordshapes.cli.shape_poly_2bb", broken)
    code, out, err = run(capsys, "poly", "--backbones", "2", "--genus", "1")
    assert code == 5
    assert out == ""
    assert err == '{"error": {"type": "consistency", "message": "x"}}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "fiber", "--order", "4"],
        ["enumerate", "--backbones", "1", "--genus", "0", "--matchings"],
    ],
    ids=["series-fiber-without-l", "matchings-without-arcs"],
)
def test_mode_dependent_option_is_a_usage_error(capsys, argv):
    # an option one mode needs is missing like any other: usage, exit 2
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: chordshapes " + argv[0])


def test_missing_file_exit_code_3(capsys):
    code, _, err = run(capsys, "genus", "-i", "/nonexistent/nowhere.txt")
    assert code == 3


def test_infeasible_exit_code_4(capsys):
    code, _, err = run(capsys, "enumerate", "--backbones", "1", "--genus", "3")
    assert code == 4
    assert json.loads(err)["error"] == {
        "type": "infeasible",
        "message": "up to 17 arcs: shapes are enumerated up to 11 arcs "
        "(b = 1, g <= 2 and b = 2, g <= 1)",
    }


def test_enumerate_force_is_a_usage_error():
    # no flag lifts the shape-family bound: the next families hold
    # millions of shapes
    with pytest.raises(SystemExit) as e:
        main(["enumerate", "--backbones", "1", "--genus", "3", "--force"])
    assert e.value.code == 2


def test_fiber_force_is_a_usage_error(tmp_path, capsys):
    # no flag lifts the 8-arc fiber bound either
    f = tmp_path / "q.txt"
    f.write_text(SHAPE_Q3)
    code, _, err = run(capsys, "fiber", "-i", str(f), "--arcs", "9")
    assert code == 4
    assert json.loads(err)["error"] == {
        "type": "infeasible",
        "message": "9 arcs: fibers are counted up to 8 arcs",
    }
    with pytest.raises(SystemExit) as e:
        main(["fiber", "-i", str(f), "--arcs", "9", "--force"])
    assert e.value.code == 2


def test_sample_arcs_outside_support_exit_code_3(capsys, monkeypatch, make_table):
    monkeypatch.setattr(
        "chordshapes.sampling.build_table", lambda b, g, cache_dir=None: make_table(b, g)
    )
    code, out, err = run(
        capsys, "sample", "--genus", "0", "--count", "1", "--arcs", "99"
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "input"


def test_sample_negative_count_exit_code_3(capsys, monkeypatch, make_table):
    # a negative count used to print zero samples and exit 0
    monkeypatch.setattr(
        "chordshapes.sampling.build_table", lambda b, g, cache_dir=None: make_table(b, g)
    )
    code, out, err = run(capsys, "sample", "--genus", "0", "--count", "-5")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": "sample count must be >= 0",
    }


def test_sample_negative_genus_exit_code_3(capsys):
    # a negative genus used to look up a genus-0 one-backbone table and
    # fail in shape_poly_1bb, naming an internal function and genus 0
    code, out, err = run(capsys, "sample", "--genus", "-1", "--count", "1")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": "genus must be >= 0",
    }


def test_sample_genus_2_exit_code_4(capsys):
    # its table would need the two-backbone genus-2 shapes, past the
    # enumeration bound
    code, out, err = run(capsys, "sample", "--genus", "2", "--count", "1")
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"]["type"] == "infeasible"


def test_sample_cache_dir_is_a_usage_error():
    # sampler tables are built in memory; no option names a cache
    with pytest.raises(SystemExit) as e:
        main(["sample", "--genus", "1", "--count", "10", "--cache-dir", "x"])
    assert e.value.code == 2


def test_sample_ignores_cache_variable(tmp_path, capsys, monkeypatch):
    # the variable that once named the table cache is ignored, and no
    # cache is written there or in the home directory
    monkeypatch.setenv("CHORDSHAPES_CACHE", str(tmp_path / "nocache"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    code, out, _ = run(capsys, "sample", "--genus", "0", "--count", "10", "--seed", "7")
    assert code == 0
    assert len(out.splitlines()) > 10
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--genus", "0", "--count", "2000", "--seed", "11"],
            "e97ba105a32a4eb2b00e56a459a22411b48e8ef49573ef135ef3396eaa28ca09",
        ),
        (
            ["--genus", "1", "--count", "3000", "--seed", "12"],
            "78a0880754eec7bb67144d3f8f7376881a95e1605615f0a617cb9644ca0c4f27",
        ),
        (
            ["--genus", "1", "--count", "3000", "--seed", "13",
             "--stats-only", "--format", "json"],
            "f998f10b0bb5dee735e5d06f39d8fe8a21c17f3fc09d09101668eb47887a1e5e",
        ),
        (
            ["--genus", "1", "--count", "2000", "--seed", "14", "--arcs", "7"],
            "6666df0cdc933bfa8a47ecd9c7542dcc0c45bb7bb1f90e5658c646c638c9e20f",
        ),
    ],
)
def test_sample_output_pinned(capsys, monkeypatch, make_table, args, digest):
    # stdout of sample as printed when every draw re-traced its shape and
    # re-built its code; the values each Shape keeps must print the same
    monkeypatch.setattr(
        "chordshapes.sampling.build_table", lambda b, g, cache_dir=None: make_table(b, g)
    )
    code, out, _ = run(capsys, "sample", *args)
    assert code == 0
    assert sha256(out.encode()).hexdigest() == digest


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CROSSING))
    code, out, _ = run(capsys, "genus")
    assert code == 0
    assert json.loads(out)["genus"] == 1


def test_parser_built_once_keeps_no_state(tmp_path, capsys, monkeypatch):
    # one process, one parser: each call must still print what a fresh
    # interpreter prints for it
    assert build_parser() is build_parser()
    f = tmp_path / "d.txt"
    f.write_text(CROSSING)
    planted = "6\n1-6 2-4 3-5\n"
    calls = [
        (["loops", "--planted"], planted),
        (["loops"], planted),
        (["genus", "-i", str(f)], SHAPE_Q3),
        (["genus"], SHAPE_Q3),
        (["poly", "--backbones", "7", "--genus", "1"], ""),
        (["shape"], SHAPE_Q3),
        (["series", "w", "--order", "5"], ""),
    ]
    for argv, text in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == fresh_main(argv, text), argv


@settings(max_examples=200, deadline=None)
@given(
    d=st.one_of(
        diagram_strategy(max_backbones=4),
        st.builds(
            disjoint_union,
            diagram_strategy(max_backbones=2),
            diagram_strategy(max_backbones=2),
        ),
    )
)
def test_component_genera_match_components(d):
    with mock.patch("sys.stdin", io.StringIO(serialize_diagram(d))), redirect_stdout(
        io.StringIO()
    ) as out:
        assert main(["genus"]) == 0
    assert json.loads(out.getvalue())["component_genera"] == [
        genus(c) for c in components(d)
    ]


def _helices(rng: random.Random, a: int, b: int, arcs: list) -> None:
    """Nested stacked helices on the vertices a..b of one backbone."""
    i = a
    while i <= b - 8:
        if rng.random() < 0.5:
            j = rng.randint(i + 8, min(b, i + 40))
            stem = rng.randint(2, min(6, (j - i - 3) // 2))
            arcs += [(i + k, j - k) for k in range(stem)]
            _helices(rng, i + stem, j - stem, arcs)
            i = j + 1
        else:
            i += 1


def rna_like(rng: random.Random) -> str:
    """Text of an RNA-like diagram on 1-3 backbones: nested helices on
    each backbone, then up to four helices of 1-3 arcs between free
    vertices, which may join backbones or cross other helices."""
    lengths = [rng.randint(30, 90) for _ in range(rng.choice((1, 2, 2, 2, 3)))]
    arcs: list = []
    start = 1
    for n in lengths:
        _helices(rng, start, start + n - 1, arcs)
        start += n
    free = sorted(set(range(1, start)) - {v for a in arcs for v in a})
    for _ in range(rng.randint(0, 4)):
        if len(free) < 2:
            break
        i, j = sorted(rng.sample(free, 2))
        for k in range(rng.randint(1, 3)):
            if i + k >= j - k or i + k not in free or j - k not in free:
                break
            arcs.append((i + k, j - k))
            free.remove(i + k)
            free.remove(j - k)
    return (
        " ".join(map(str, lengths))
        + "\n"
        + " ".join(f"{i}-{j}" for i, j in sorted(arcs))
        + "\n"
    )


def test_diagram_commands_output_pinned(monkeypatch):
    # stdout of genus, loops and shape on one batch of 24 RNA-like
    # diagrams (connected, disconnected, 1-3 backbones), as printed by
    # the implementation that split and re-traced every component
    rng = random.Random(2024)
    text = "\n".join(rna_like(rng) for _ in range(24))
    digest = sha256()
    for cmd in ("genus", "loops", "shape"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        with redirect_stdout(io.StringIO()) as out:
            assert main([cmd]) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == (
        "80ca29dc50ed82c8b6c9f870ec59ca9d3d19b576883d38167ac629d902af29e1"
    )


def random_diagram_text(rng: random.Random) -> str:
    """Text of a small random diagram on 1-3 backbones, partly paired."""
    lengths = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
    free = list(range(1, sum(lengths) + 1))
    rng.shuffle(free)
    arcs = sorted(
        (min(free[k], free[k + 1]), max(free[k], free[k + 1]))
        for k in range(0, rng.randint(0, len(free) // 2) * 2, 2)
    )
    return serialize_diagram(Diagram(tuple(lengths), frozenset(arcs)))


def test_bij_output_pinned(monkeypatch, shape_sets):
    # (direction, stdout, exit code, stderr error type) of one `bij`
    # request per input: every (1,1), (2,0) and connected (2,1) shape as
    # planted and as unplanted text, the A- and B-shapes that eta and
    # theta map the two-backbone ones to, random diagrams and malformed
    # texts, as printed by the implementation that checked each input twice
    texts = []
    for b, g in ((1, 1), (2, 0), (2, 1)):
        for s in shape_sets(b, g):
            texts.append(serialize_diagram(s.diagram))
            texts.append(serialize_diagram(strip_plants(s.diagram)))
            if b == 2:
                a = eta(s)
                texts.append(serialize_diagram(a.diagram))
                texts.append(serialize_diagram(theta(a).diagram))
    rng = random.Random(10)
    texts += [random_diagram_text(rng) for _ in range(300)]
    texts += ["", "x\n", "2 2\n1-1\n", "3\n1-5\n", "2\n1-2\n", "4\n1-3 2-4\n"]
    digest = sha256()
    for direction in ("theta", "theta-inv", "eta", "eta-inv"):
        for text in texts:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(
                io.StringIO()
            ) as err:
                code = main(["bij", direction])
            kind = json.loads(err.getvalue())["error"]["type"] if code else None
            digest.update(repr((direction, out.getvalue(), code, kind)).encode())
    assert digest.hexdigest() == (
        "8525bc9bac8af636c038a4f931529e02baf0f2e43f3132ff69c999bce8a9f5ce"
    )


# Every per-diagram call must cost arcs, not backbone length or count.
# A child process runs the calls under a timeout and with its address
# space capped a little above what it holds after the imports, so a
# walk over every vertex fails the test instead of hanging the suite.
_CAPPED_PRELUDE = """
import io, json, resource, sys
from chordshapes import (
    boundary_components, canonical_code, classify_loops, component_genera, genus,
    parse_diagram, project_shape,
)
from chordshapes.cli import main
try:
    with open("/proc/self/statm") as f:
        cap = int(f.read().split()[0]) * resource.getpagesize()
    cap += int(sys.argv[1]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
except OSError:
    pass  # no /proc: the timeout alone guards
d = parse_diagram(text := sys.stdin.read())
"""


def run_capped(body: str, text: str, headroom_mib: int = 64) -> list[str]:
    """Stdout lines of ``body`` run in a capped child on the diagram ``text``."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_PRELUDE + body, str(headroom_mib)],
        input=text,
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_LONG_BACKBONES = """
print(json.dumps({
    "genus": genus(d),
    "component_genera": component_genera(d, boundary_components(d)),
    "shape": canonical_code(project_shape(d).diagram),
}))
for cmd in ("genus", "loops", "shape"):
    sys.stdin = io.StringIO(text)
    print("exit", main([cmd]))
"""


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "99999999999\n",
            [
                '{"genus": 0, "component_genera": [0], "shape": "2|1-2"}',
                '{"component_genera": [0], "cycles": [[]], "genus": 0, "r": 1}',
                "exit 0",
                '{"cycles": [[]], "genus": 0, "loops": {"alpha": 0, "beta": 0, '
                '"hairpin": 0, "interior": 0, "multi": 0, "plant": 0, '
                '"pseudoknot": 0}, "r": 1}',
                "exit 0",
                "2|1-2",
                '{"arcs": 1, "empty_pure_preshape": true, "genus": 0}',
                "exit 0",
            ],
        ),
        (
            "1000000 3\n1-1000002\n",
            [
                '{"genus": 0, "component_genera": [0], '
                '"shape": "3 3|1-3 2-5 4-6"}',
                '{"component_genera": [0], "cycles": [[1, 1000002]], '
                '"genus": 0, "r": 1}',
                "exit 0",
                '{"cycles": [[1, 1000002]], "genus": 0, "loops": {"alpha": 0, '
                '"beta": 1, "hairpin": 0, "interior": 1, "multi": 0, "plant": 0, '
                '"pseudoknot": 0}, "r": 1}',
                "exit 0",
                "3 3|1-3 2-5 4-6",
                '{"arcs": 3, "empty_pure_preshape": false, "genus": 0}',
                "exit 0",
            ],
        ),
    ],
    ids=["one-backbone-1e11", "two-backbones-1e6"],
)
def test_long_backbones_cost_arcs(text, expected):
    assert run_capped(_LONG_BACKBONES, text) == expected


def test_many_backbones_cost_arcs():
    # 50,000 one-vertex backbones joined in pairs: a backbone lookup that
    # costs O(b) per arc makes component genera and loops quadratic.  Memory
    # grows with the input here, so the cap is wider.
    pairs = 25_000
    text = " ".join(["1"] * 2 * pairs) + "\n" + " ".join(
        f"{2 * k + 1}-{2 * k + 2}" for k in range(pairs)
    )
    body = (
        "print(genus(d), len(component_genera(d, boundary_components(d))),"
        " classify_loops(d).beta, project_shape(d).n_arcs)\n"
    )
    expected = f"{1 - pairs} {pairs} {pairs} {3 * pairs}"
    assert run_capped(body, text, headroom_mib=256) == [expected]


def test_matchings_past_arc_bound_exit_4():
    # this search once listed all 2 * 10**20 - 1 backbone splits up front
    # and ended in a MemoryError traceback (exit 1); the capped child must
    # refuse it from the argument alone
    body = (
        'print("exit", main(["enumerate", "--backbones", "2", "--genus", "1",'
        ' "--matchings", "--arcs", "99999999999999999999"]))\n'
    )
    assert run_capped(body, "2\n1-2\n") == ["exit 4"]


def test_matchings_default_budget(capsys, monkeypatch):
    # with no --node-budget, enumerate --matchings stops at a fixed budget
    # of placed arcs instead of running through the 3.8e15 matchings of
    # 30 arcs; an explicit --node-budget wins over it
    monkeypatch.setattr("chordshapes.cli._MATCHINGS_BUDGET", 10)
    argv = ["enumerate", "--backbones", "1", "--genus", "0", "--matchings"]
    for arcs in ("30", "6"):
        code, out, err = run(capsys, *argv, "--arcs", arcs)
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == {
            "type": "infeasible",
            "message": "enumeration node budget of 10 placed arcs exceeded",
        }
    code, out, _ = run(capsys, *argv, "--arcs", "6", "--node-budget", "1000")
    assert code == 0
    assert json.loads(out) == {"count": "132"}


@pytest.mark.parametrize(
    "extra", [[], ["--matchings", "--arcs", "5"]], ids=["shapes", "matchings"]
)
def test_negative_node_budget_exit_code_3(capsys, extra):
    # a negative budget was taken as one already spent: the search failed
    # at its first arc with "node budget of -5 placed arcs exceeded" (exit
    # 4); a budget of 0 stays valid and is spent at the first arc
    argv = ["enumerate", "--backbones", "2", "--genus", "1", *extra]
    code, out, err = run(capsys, *argv, "--node-budget", "-5")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": "node budget must be >= 0",
    }
    code, out, err = run(capsys, *argv, "--node-budget", "0")
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == {
        "type": "infeasible",
        "message": "enumeration node budget of 0 placed arcs exceeded",
    }


def test_matchings_list_streams_until_budget():
    # the visited diagrams were once kept in a list until the search
    # ended: here the capped child died in a MemoryError traceback (exit 1)
    # with nothing printed; it prints each as it is visited, then exits 4
    argv = [
        "enumerate", "--backbones", "1", "--genus", "0", "--matchings",
        "--arcs", "30", "--list", "--node-budget", "80000",
    ]
    body = f'print("exit", main({argv!r}))\n'
    lines = run_capped(body, "2\n1-2\n", headroom_mib=32)
    codes = visited_codes(
        backbones=1, arcs_min=30, arcs_max=30, genus_cap=0, genus_exact=0,
        node_budget=80000,
    )
    assert codes and lines == [*codes, "exit 4"]


@pytest.mark.parametrize(
    "argv",
    [
        # an OverflowError traceback from [0] * (order + 1) (exit 1)
        ["series", "w", "--genus", "1", "--order", "99999999999999999999"],
        # MemoryError tracebacks (exit 1)
        ["series", "w", "--genus", "1", "--order", "1000000000"],
        ["series", "fiber", "--l", "1", "--order", "1000000000"],
        # built the kappa rows bottom-up with no end in sight
        ["poly", "--backbones", "1", "--genus", "100000000000000000000"],
        # under the 1000 bound, but R_g's g/2 products ran for hours
        ["poly", "--backbones", "2", "--genus", "999"],
        ["series", "w", "--genus", "498", "--order", "1000"],
    ],
    ids=[
        "order-1e20",
        "w-order-1e9",
        "fiber-order-1e9",
        "poly-genus-1e20",
        "poly-2bb-genus-999",
        "w-genus-498",
    ],
)
def test_huge_sizes_exit_4(argv):
    # orders and genera above their bounds are refused from the argument
    # alone, in a capped child, before any allocation or loop
    body = f'print("exit", main({argv!r}))\n'
    assert run_capped(body, "2\n1-2\n") == ["exit 4"]


# about 100 examples per command
@settings(max_examples=900, deadline=None)
@given(
    text=fuzz_text,
    argv=st.sampled_from(
        [
            ["genus"],
            ["loops"],
            ["loops", "--planted"],
            ["shape"],
            *(["bij", d] for d in ("theta", "theta-inv", "eta", "eta-inv")),
            ["fiber", "--arcs", "3"],
        ]
    ),
)
def test_cli_fuzz_exits_with_documented_code(text, argv):
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(
        io.StringIO()
    ), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        # one JSON error record on one line, and no traceback
        line, rest = err.getvalue().split("\n", 1)
        record = json.loads(line)
        assert rest == "" and list(record) == ["error"]
        assert record["error"]["type"] == "input"
