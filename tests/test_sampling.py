from __future__ import annotations

import json
import random

import pytest

from chordshapes import (
    BishapeSampler,
    DiagramError,
    TableCacheError,
    build_table,
    canonical_code,
    classify_loops,
    eta,
    is_shape,
    sample_stats,
    uniform_shape_1bb,
)
from chordshapes.sampling import _digest


class TestTables:
    def test_build_genus_one(self, tmp_path):
        t = build_table(1, 1, tmp_path)
        assert len(t) == 4
        assert (tmp_path / "shapes_1bb_g1.json").exists()

    def test_reload_verifies_digest(self, tmp_path):
        t1 = build_table(1, 1, tmp_path)
        t2 = build_table(1, 1, tmp_path)
        assert t1.digest == t2.digest
        assert [canonical_code(s.diagram) for s in t1.shapes] == [
            canonical_code(s.diagram) for s in t2.shapes
        ]

    def test_corrupted_cache_detected(self, tmp_path):
        build_table(2, 0, tmp_path)
        path = tmp_path / "shapes_2bb_g0.json"
        payload = json.loads(path.read_text())
        payload["codes"][0] = payload["codes"][0].replace("1-3", "1-5")
        path.write_text(json.dumps(payload))
        with pytest.raises(TableCacheError, match="digest"):
            build_table(2, 0, tmp_path)

    def test_truncated_cache_detected(self, tmp_path):
        import hashlib

        build_table(2, 0, tmp_path)
        path = tmp_path / "shapes_2bb_g0.json"
        payload = json.loads(path.read_text())
        payload["codes"] = payload["codes"][:1]
        payload["digest"] = hashlib.sha256(
            "\n".join(payload["codes"]).encode()
        ).hexdigest()
        path.write_text(json.dumps(payload))
        with pytest.raises(TableCacheError, match="expected"):
            build_table(2, 0, tmp_path)

    @pytest.mark.parametrize(
        "text",
        ["truncated", "[]", '{"codes": "3 3|1-3 2-5 4-6"}', '{"codes": [1, 2]}'],
    )
    def test_undecodable_cache_detected(self, tmp_path, text):
        build_table(2, 0, tmp_path)
        path = tmp_path / "shapes_2bb_g0.json"
        if text == "truncated":
            text = path.read_text()[:40]
        path.write_text(text)
        with pytest.raises(TableCacheError):
            build_table(2, 0, tmp_path)

    def test_cache_of_another_table_detected(self, tmp_path):
        # four valid shape codes with a matching digest, but over two
        # backbones at genus 0 where the (1, 1) table expects one at genus 1
        codes = ["3 3|1-3 2-5 4-6", "4 4|1-4 2-6 3-7 5-8"] * 2
        payload = {"codes": codes, "digest": _digest(codes)}
        (tmp_path / "shapes_1bb_g1.json").write_text(json.dumps(payload))
        with pytest.raises(TableCacheError, match="outside"):
            build_table(1, 1, tmp_path)

    def test_cache_write_leaves_no_temp_file(self, tmp_path):
        build_table(1, 1, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["shapes_1bb_g1.json"]

    def test_index_of(self, make_table):
        t = make_table(2, 0)
        idx = t.index_of()
        assert sorted(idx.values()) == [0, 1]


class TestUniform1bb:
    def test_seeded_stream_reproducible(self, make_table):
        t = make_table(1, 1)
        draws1 = [
            canonical_code(uniform_shape_1bb(1, random.Random(7), t).diagram)
            for _ in range(20)
        ]
        draws2 = [
            canonical_code(uniform_shape_1bb(1, random.Random(7), t).diagram)
            for _ in range(20)
        ]
        assert draws1 == draws2

    def test_all_four_shapes_hit(self, make_table):
        t = make_table(1, 1)
        rng = random.Random(1)
        seen = {canonical_code(uniform_shape_1bb(1, rng, t).diagram) for _ in range(200)}
        assert len(seen) == 4

    def test_arc_histogram_proportions(self, make_table):
        # arc counts 3,4,4,5: the middle bin should get about half the mass
        t = make_table(1, 1)
        rng = random.Random(13)
        n = 40_000
        hist = {3: 0, 4: 0, 5: 0}
        for _ in range(n):
            hist[uniform_shape_1bb(1, rng, t).n_arcs] += 1
        for arcs, weight in ((3, 1), (4, 2), (5, 1)):
            expect = n * weight / 4
            assert abs(hist[arcs] - expect) < 4 * (n ** 0.5)


class TestBishape:
    def test_genus0_hits_both_shapes_evenly(self, make_table):
        sampler = BishapeSampler(0, seed=42, table=make_table(1, 1))
        n = 20_000
        counts: dict[str, int] = {}
        for _ in range(n):
            c = canonical_code(sampler.draw().diagram)
            counts[c] = counts.get(c, 0) + 1
        assert set(counts) == {"3 3|1-3 2-5 4-6", "4 4|1-4 2-6 3-7 5-8"}
        for v in counts.values():
            assert abs(v - n / 2) < 4 * (n / 4) ** 0.5
        # Q'_0 has no disconnected elements, so nothing is ever rejected
        assert sampler.acceptance_fraction == 1.0

    def test_all_draws_are_connected_shapes(self, make_table):
        sampler = BishapeSampler(0, seed=3, table=make_table(1, 1))
        for _ in range(50):
            s = sampler.draw()
            assert s.b == 2
            assert s.genus == 0
            assert is_shape(s.diagram)

    def test_seeded_determinism(self, make_table):
        t = make_table(1, 1)
        streams = []
        for _ in range(2):
            sampler = BishapeSampler(0, seed=9, table=t)
            streams.append([canonical_code(sampler.draw().diagram) for _ in range(25)])
        assert streams[0] == streams[1]

    def test_arc_filter(self, make_table):
        sampler = BishapeSampler(0, seed=5, table=make_table(1, 1), arc_filter=4)
        for _ in range(25):
            assert sampler.draw().n_arcs == 4

    def test_arc_filter_outside_support_fails_fast(self, make_table):
        # genus-0 connected two-backbone shapes have 3 or 4 arcs only
        with pytest.raises(DiagramError, match="99 arcs"):
            BishapeSampler(0, seed=5, table=make_table(1, 1), arc_filter=99)

    def test_genus1_sampler_draws_genus1_shapes(self, make_table):
        sampler = BishapeSampler(1, seed=11, table=make_table(1, 2))
        q1_codes = set(make_table(2, 1).index_of())
        for _ in range(200):
            s = sampler.draw()
            assert s.genus == 1
            assert canonical_code(s.diagram) in q1_codes

    def test_genus1_rejection_happens(self, make_table):
        sampler = BishapeSampler(1, seed=11, table=make_table(1, 2))
        for _ in range(3000):
            sampler.draw()
        assert 0 < sampler.acceptance_fraction < 1.0

    def test_genus1_local_sampling_with_seven_arcs(self, make_table):
        sampler = BishapeSampler(1, seed=17, table=make_table(1, 2), arc_filter=7)
        seen = set()
        for _ in range(1500):
            s = sampler.draw()
            assert s.n_arcs == 7
            seen.add(canonical_code(s.diagram))
        # 479 seven-arc shapes exist; a short run should already hit many
        assert len(seen) > 400


class TestStats:
    def test_sampled_shapes_have_clean_loop_profile(self, make_table):
        stats = sample_stats(0, 300, random.Random(2), table=make_table(1, 1))
        assert stats.n_samples == 300
        # shapes never carry hairpin (length 1) or interior (length 2) loops
        assert set(stats.loop_length_hist) == {3, 4}
        assert stats.acceptance_fraction == 1.0
        assert set(stats.arc_hist) == {3, 4}
        assert sum(stats.arc_hist.values()) == 300

    def test_plants_and_no_small_loops(self, make_table):
        sampler = BishapeSampler(0, seed=8, table=make_table(1, 1))
        for _ in range(100):
            prof = classify_loops(sampler.draw().diagram)
            assert prof.plant == 2
            assert prof.hairpin == 0
            assert prof.interior == 0

    def test_eta_adds_one_multiloop(self, make_table):
        sampler = BishapeSampler(0, seed=21, table=make_table(1, 1))
        for _ in range(50):
            s = sampler.draw()
            assert (
                classify_loops(eta(s).diagram).multi
                == classify_loops(s.diagram).multi + 1
            )

    def test_csv_emission(self, make_table):
        stats = sample_stats(0, 50, random.Random(4), table=make_table(1, 1))
        csv = stats.to_csv()
        assert csv.startswith("samples,,50\n")
        assert "acceptance_fraction" in csv
        assert "arc_count,3," in csv or "arc_count,4," in csv

    def test_mean_and_variance_accumulate(self, make_table):
        stats = sample_stats(0, 200, random.Random(6), table=make_table(1, 1))
        assert stats.beta_mean > 0
        assert stats.alpha_var >= 0
        assert stats.beta_var >= 0
