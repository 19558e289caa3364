from __future__ import annotations

import io
import json

import pytest

from chordshapes.cli import main

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
