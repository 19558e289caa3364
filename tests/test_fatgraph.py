from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from chordshapes import (
    Diagram,
    SampleStats,
    as_shape,
    boundary_components,
    classify_loops,
    components,
    disjoint_union,
    fatgraph,
    genus,
    plant,
    serialize_diagram,
)
from chordshapes.cli import main

from conftest import all_matchings, diagram_strategy, matching_strategy


class TestBoundaryExamples:
    def test_single_arc_two_fixed_points(self):
        dec = boundary_components(Diagram((2,), frozenset({(1, 2)})))
        assert dec.r == 2
        assert dec.genus == 0
        assert sorted(dec.cycles) == [(1,), (2,)]

    def test_crossing_pair_one_cycle(self):
        dec = boundary_components(Diagram((4,), frozenset({(1, 3), (2, 4)})))
        assert dec.r == 1
        assert dec.genus == 1
        assert dec.cycles == ((1, 4, 3, 2),)

    def test_planted_crossing(self):
        d = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}), planted=True)
        dec = boundary_components(d)
        assert dec.r == 2
        assert dec.genus == 1
        assert (1,) in dec.cycles  # the plant boundary of length 1
        assert sorted(len(c) for c in dec.cycles) == [1, 5]

    def test_arcless_backbone_counts_one_disk(self):
        dec = boundary_components(Diagram((3,), frozenset()))
        assert dec.r == 1
        assert dec.genus == 0
        assert dec.cycles == ((),)


class TestGenus:
    def test_nested_pair_planar(self):
        assert genus(Diagram((4,), frozenset({(1, 4), (2, 3)}))) == 0

    def test_parallel_duplex_planar(self):
        d = Diagram((2, 2), frozenset({(1, 3), (2, 4)}))
        assert genus(d) == 0
        assert genus(plant(d)) == 0

    def test_disjoint_planar_components_formal_genus(self):
        assert genus(Diagram((2, 2), frozenset({(1, 2), (3, 4)}))) == -1

    def test_disjoint_genus_one_components(self):
        one = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}), planted=True)
        assert genus(disjoint_union(one, one)) == 1

    def test_per_component_genera(self, capsys, monkeypatch):
        one = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}))
        d = disjoint_union(one, one)
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_diagram(d)))
        assert main(["genus"]) == 0
        assert json.loads(capsys.readouterr().out)["component_genera"] == [1, 1]


class TestLoops:
    def test_planted_crossing_profile(self):
        d = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}), planted=True)
        prof = classify_loops(d)
        assert prof.plant == 1
        assert prof.multi == 1
        assert prof.pseudoknot == 1
        assert prof.hairpin == 0 and prof.interior == 0

    def test_duplex_interior_loop(self):
        prof = classify_loops(Diagram((2, 2), frozenset({(1, 4), (2, 3)})))
        assert prof.interior >= 1

    def test_planted_hairpin(self):
        # plant of the single-arc hairpin: one plant, one hairpin, one interior
        d = plant(Diagram((2,), frozenset({(1, 2)})))
        prof = classify_loops(d)
        assert prof.plant == 1
        assert prof.hairpin == 1
        assert prof.interior == 1

    def test_counts_sum_to_r(self):
        for d in all_matchings(2, 3):
            prof = classify_loops(d)
            dec = boundary_components(d)
            total = (
                prof.hairpin + prof.interior + prof.multi + prof.plant + prof.empty
            )
            assert total == dec.r
            assert prof.pseudoknot <= prof.multi

    def test_alpha_beta_on_shape(self):
        d = Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}), planted=True)
        prof = classify_loops(d)
        assert prof.plant == 2
        assert prof.beta == 1  # the pseudoknotted multi-loop spans both backbones
        assert prof.alpha == 0
        assert prof.pseudoknot == 1

    def test_alpha_loop_internal_structure(self):
        # crossing pair inside backbone 1 of a two-backbone diagram
        d = Diagram((4, 2), frozenset({(1, 3), (2, 4), (5, 6)}))
        prof = classify_loops(d)
        assert prof.alpha >= 1


def test_cycle_lengths_sum_to_twice_arcs_exhaustive():
    for b in (1, 2):
        for n in (1, 2, 3):
            for d in all_matchings(b, n):
                dec = boundary_components(d)
                assert sum(len(c) for c in dec.cycles) == 2 * d.n_arcs


def test_genus_monotone_under_arc_removal_small():
    # removing one arc (keeping its endpoints) lowers genus by 0 or 1,
    # which is arc-insertion monotonicity read backwards
    for b in (1, 2):
        for n in (2, 3):
            for d in all_matchings(b, n):
                g = genus(d)
                for a in d.arcs:
                    g2 = genus(Diagram(d.backbone_lengths, d.arcs - {a}))
                    assert g - g2 in (0, 1)


@settings(max_examples=120)
@given(diagram_strategy())
def test_formal_genus_additivity(d):
    parts = components(d)
    assert genus(d) == sum(genus(p) for p in parts) - (len(parts) - 1)


@settings(max_examples=120)
@given(diagram_strategy(), diagram_strategy())
def test_disjoint_union_additivity(a, b):
    assert genus(disjoint_union(a, b)) == genus(a) + genus(b) - 1


@settings(max_examples=120)
@given(matching_strategy())
def test_plant_preserves_genus(d):
    assert genus(plant(d)) == genus(d)


@settings(max_examples=120)
@given(diagram_strategy())
def test_unpaired_vertices_do_not_change_genus(d):
    # dropping every unpaired vertex leaves r and genus alone
    paired = sorted(v for arc in d.arcs for v in arc)
    relabel = {v: k for k, v in enumerate(paired, start=1)}
    lengths = []
    for s, e in d.bounds:
        m = sum(1 for v in range(s, e + 1) if v in relabel)
        lengths.append(m)
    if not all(lengths):
        return  # a backbone would vanish entirely; different object
    stripped = Diagram(
        tuple(lengths), frozenset((relabel[i], relabel[j]) for i, j in d.arcs)
    )
    assert genus(stripped) == genus(d)
    assert boundary_components(stripped).r == boundary_components(d).r


class TestTraceOnce:
    """Each diagram is traced once per call; only ``genus`` traces the
    components again, to report their genera."""

    @pytest.fixture
    def traced(self, monkeypatch):
        seen = []
        trace = fatgraph._trace

        def counting(d):
            seen.append(d)
            return trace(d)

        monkeypatch.setattr(fatgraph, "_trace", counting)
        return seen

    SHAPE = Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}), planted=True)

    def test_classify_loops(self, traced):
        classify_loops(self.SHAPE)
        assert traced == [self.SHAPE]

    def test_sample_stats_record(self, traced):
        s = as_shape(self.SHAPE)
        traced.clear()
        SampleStats(genus=0).record(s)
        assert traced == [self.SHAPE]

    def test_cli_loops(self, traced, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_diagram(self.SHAPE)))
        assert main(["loops"]) == 0
        assert len(traced) == 1

    def test_cli_genus(self, traced, capsys, monkeypatch):
        one = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}))
        d = disjoint_union(one, one)
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_diagram(d)))
        assert main(["genus"]) == 0
        # the whole diagram once, then each of its two components once
        assert traced.count(d) == 1
        assert len(traced) == 3


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_internal_check_survives_optimize(flags):
    """An odd Euler count raises ConsistencyError, also under python -O."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "from chordshapes.errors import ConsistencyError\n"
        "from chordshapes.fatgraph import _formal_genus\n"
        "try:\n"
        "    _formal_genus(1, 1, 1)\n"
        "except ConsistencyError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0
