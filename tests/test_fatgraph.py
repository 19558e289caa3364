from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordshapes import (
    BishapeSampler,
    Diagram,
    SampleStats,
    as_shape,
    boundary_components,
    build_table,
    classify_loops,
    fatgraph,
    genus,
    plant,
    serialize_diagram,
)
from chordshapes.cli import main

from conftest import (
    all_matchings,
    backbone_index,
    components,
    diagram_strategy,
    disjoint_union,
    matching_strategy,
)


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


def reference_loop_classes(d: Diagram):
    """``kinds``, ``is_alpha`` and ``is_pseudoknot`` of ``classify_loops``,
    arc by arc over each cycle of the decomposition, with a lookup from
    cumulative backbone lengths for every endpoint."""
    pair = d.pairing()
    k = backbone_index(d)
    heads = {s for s, _ in d.bounds} if d.planted else set()
    kinds, alphas, pks = [], [], []
    for cyc in boundary_components(d).cycles:
        arcs = {(min(v, pair[v]), max(v, pair[v])) for v in cyc}
        alphas.append(all(k[i] == k[j] for i, j in arcs))
        if not cyc:
            kind = "empty"
        elif len(cyc) == 1:
            kind = "plant" if cyc[0] in heads else "hairpin"
        else:
            kind = "interior" if len(cyc) == 2 else "multi"
        kinds.append(kind)
        crossing = any(i < r < j < s for i, j in arcs for r, s in arcs)
        pks.append(kind == "multi" and crossing)
    return tuple(kinds), tuple(alphas), tuple(pks)


@settings(max_examples=300)
@given(
    st.one_of(
        diagram_strategy(max_backbones=4),
        diagram_strategy(max_backbones=4).map(plant),
    )
)
def test_loop_classes_match_per_arc_reference(d):
    prof = classify_loops(d)
    assert (prof.kinds, prof.is_alpha, prof.is_pseudoknot) == reference_loop_classes(d)
    loops = [(k, a) for k, a in zip(prof.kinds, prof.is_alpha) if k not in ("plant", "empty")]
    assert prof.alpha == sum(1 for _, a in loops if a)
    assert prof.beta == sum(1 for _, a in loops if not a)


@settings(max_examples=300)
@given(
    st.one_of(
        diagram_strategy(max_backbones=4),
        diagram_strategy(max_backbones=4).map(plant),
    )
)
def test_entry_points_report_one_decomposition(d):
    # genus, boundary_components and classify_loops each trace d on their
    # own, and all three must report the same record
    dec = boundary_components(d)
    assert classify_loops(d).boundary == dec
    assert genus(d) == dec.genus
    assert dec.r == len(dec.cycles)


def pairwise_crossing(arcs) -> bool:
    """Whether two of ``arcs`` cross, by comparing every pair."""
    return any(i < r < j < s for i, j in arcs for r, s in arcs)


@settings(max_examples=300)
@given(st.integers(0, 40).flatmap(lambda k: st.permutations(range(1, 2 * k + 1))))
def test_crossing_scan_matches_pairwise(perm):
    arcs = [tuple(sorted(perm[t : t + 2])) for t in range(0, len(perm), 2)]
    assert fatgraph._has_crossing(arcs) == pairwise_crossing(arcs)


def test_long_multiloop_crossing():
    """A multi-loop of 4,000 side-by-side hairpins, without and with one
    crossing pair: the crossing scan is not quadratic in the loop."""
    n = 4000
    chain = {(2 * k + 1, 2 * k + 2) for k in range(n)}
    prof = classify_loops(Diagram((2 * n,), frozenset(chain)))
    assert (prof.multi, prof.pseudoknot, prof.hairpin) == (1, 0, n)
    crossed = chain - {(1, 2), (3, 4)} | {(1, 3), (2, 4)}
    prof = classify_loops(Diagram((2 * n,), frozenset(crossed)))
    assert prof.pseudoknot == 1


class TestTraceOnce:
    """Each diagram is traced once per call, also by CLI ``genus``, which
    reports the genus of every component."""

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

    def test_classify_loops(self, traced, monkeypatch):
        paired = []
        pairing = Diagram.pairing

        def counting(d):
            paired.append(d)
            return pairing(d)

        monkeypatch.setattr(Diagram, "pairing", counting)
        classify_loops(self.SHAPE)
        assert traced == [self.SHAPE]
        # the loops' arcs are read off the trace's own pairing
        assert paired == [self.SHAPE]

    def test_sample_stats_record(self, traced):
        chain = Diagram(
            (8,), frozenset({(1, 8), (2, 4), (3, 6), (5, 7)}), planted=True
        )
        for first in ("loop_length_hist", "alpha_sum"):
            s, t = as_shape(self.SHAPE), as_shape(chain)
            traced.clear()
            stats = SampleStats(genus=0)
            for image in (s, t, s):
                stats.record(image)
            # counting draws classifies no loops
            assert (stats.n_samples, stats.arc_hist) == (3, {3: 2, 4: 1})
            assert traced == []
            # the first loop statistic traces each distinct image once, and
            # the profile stays on the Shape: later reads trace nothing
            getattr(stats, first)
            assert traced == [self.SHAPE, chain]
            stats.loop_length_hist
            stats.alpha_sum
            assert traced == [self.SHAPE, chain]

    def test_table_reload(self, traced):
        # a table build, first or again, traces nothing: an entry's genus
        # comes from the bijection and an image's from the kernel
        build_table(1, 2)
        build_table(1, 2)
        assert traced == []

    def test_sampler_images(self, traced, make_table):
        table = make_table(1, 1)
        traced.clear()
        sampler = BishapeSampler(0, seed=1, table=table)
        # the images come with the table and are not traced again
        assert traced == []
        assert all(x is y for x, y in zip(sampler._padded, table))

    def test_cli_loops(self, traced, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_diagram(self.SHAPE)))
        assert main(["loops"]) == 0
        assert len(traced) == 1

    def test_cli_genus(self, traced, capsys, monkeypatch):
        one = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}))
        d = disjoint_union(one, one)
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_diagram(d)))
        assert main(["genus"]) == 0
        # the component genera come from the same trace
        assert traced == [d]

    def test_cli_shape(self, traced, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 3\n1-3 2-5 4-6\n"))
        assert main(["shape"]) == 0
        assert len(traced) == 1

    def test_cli_bij(self, traced, capsys, monkeypatch):
        # the surgery checks its input itself; the one trace left is the
        # genus of a returned Shape, and eta_inv returns a bare Diagram
        for direction, text, traces in [
            ("eta-inv", "8\n1-8 2-4 3-6 5-7\n", 0),
            ("theta", "8\n1-8 2-4 3-6 5-7\n", 1),
            ("theta-inv", "6\n1-6 2-4 3-5\n", 1),
            ("eta", "3 3\n1-3 2-5 4-6\n", 1),
        ]:
            traced.clear()
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["bij", direction]) == 0
            assert len(traced) == traces, direction


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
