from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordshapes.cli import main

from conftest import fuzz_text

CROSSING = "4\n1-3 2-4\n"
SHAPE_Q3 = "3 3\n1-3 2-5 4-6\n"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


def test_series_fiber(capsys):
    code, out, _ = run(capsys, "series", "fiber", "--l", "1", "--order", "4")
    assert code == 0
    assert json.loads(out) == {"3": "1", "4": "7"}


def test_series_w(capsys):
    code, out, _ = run(capsys, "series", "w", "--genus", "0", "--order", "5")
    assert code == 0
    assert json.loads(out) == {"3": "1", "4": "8", "5": "48"}


def test_enumerate_profile(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--backbones", "1", "--genus", "1", "--profile"
    )
    assert code == 0
    assert json.loads(out) == {"3": "1", "4": "2", "5": "1"}


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


def test_fiber_subcommand(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text(SHAPE_Q3)
    code, out, _ = run(capsys, "fiber", "-i", str(f), "--arcs", "2")
    assert code == 0
    assert json.loads(out) == {"arcs": 2, "count": "7"}


def test_sample_deterministic(tmp_path, capsys):
    args = [
        "sample",
        "--genus",
        "0",
        "--count",
        "3",
        "--seed",
        "7",
        "--cache-dir",
        str(tmp_path),
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    shapes = out1.strip().split("\n")[:3]
    assert all(s.startswith(("3 3|", "4 4|")) for s in shapes)


def test_sample_stats_only_json(tmp_path, capsys):
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
        "--cache-dir",
        str(tmp_path),
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


def test_missing_file_exit_code_3(capsys):
    code, _, err = run(capsys, "genus", "-i", "/nonexistent/nowhere.txt")
    assert code == 3


def test_infeasible_exit_code_4(capsys):
    code, _, err = run(capsys, "enumerate", "--backbones", "1", "--genus", "3")
    assert code == 4
    assert json.loads(err)["error"]["type"] == "infeasible"


def test_corrupt_cache_exit_code_5(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "sample",
        "--genus",
        "0",
        "--count",
        "1",
        "--seed",
        "1",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    path = tmp_path / "shapes_1bb_g1.json"
    payload = json.loads(path.read_text())
    payload["digest"] = "0" * 64
    path.write_text(json.dumps(payload))
    code, _, err = run(
        capsys,
        "sample",
        "--genus",
        "0",
        "--count",
        "1",
        "--seed",
        "1",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 5
    assert json.loads(err)["error"]["type"] == "consistency"


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


@pytest.mark.parametrize("text", ['{"digest": "0", "codes": ["3 3|1-', "[1, 2]"])
def test_undecodable_cache_exit_code_5(tmp_path, capsys, text):
    (tmp_path / "shapes_1bb_g1.json").write_text(text)
    code, out, err = run(
        capsys, "sample", "--genus", "0", "--count", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 5
    assert out == ""
    assert json.loads(err)["error"]["type"] == "consistency"


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CROSSING))
    code, out, _ = run(capsys, "genus")
    assert code == 0
    assert json.loads(out)["genus"] == 1


# Every per-diagram call must cost arcs, not backbone length or count.
# A child process runs the calls under a timeout and with its address
# space capped a little above what it holds after the imports, so a
# walk over every vertex fails the test instead of hanging the suite.
_CAPPED_PRELUDE = """
import io, json, resource, sys
from chordshapes import (
    canonical_code, classify_loops, components, genus, parse_diagram, project_shape
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_PRELUDE + body, str(headroom_mib)],
        input=text,
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_LONG_BACKBONES = """
print(json.dumps({
    "genus": genus(d),
    "components": [canonical_code(c) for c in components(d)],
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
                '{"genus": 0, "components": ["99999999999|"], "shape": "2|1-2"}',
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
                '{"genus": 0, "components": ["1000000 3|1-1000002"], '
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
    # costs O(b) per arc makes components and loops quadratic.  Memory
    # grows with the input here, so the cap is wider.
    pairs = 25_000
    text = " ".join(["1"] * 2 * pairs) + "\n" + " ".join(
        f"{2 * k + 1}-{2 * k + 2}" for k in range(pairs)
    )
    body = (
        "print(genus(d), len(components(d)), classify_loops(d).beta,"
        " project_shape(d).n_arcs)\n"
    )
    expected = f"{1 - pairs} {pairs} {pairs} {3 * pairs}"
    assert run_capped(body, text, headroom_mib=256) == [expected]


@settings(max_examples=300, deadline=None)
@given(text=fuzz_text, cmd=st.sampled_from(["genus", "loops", "shape"]))
def test_cli_fuzz_exits_with_documented_code(text, cmd):
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(
        io.StringIO()
    ), redirect_stderr(io.StringIO()):
        code = main([cmd])
    assert code in (0, 3)
