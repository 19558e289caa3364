from __future__ import annotations

import gc
import pickle

import pytest

from chordshapes import (
    BishapeSampler,
    ConsistencyError,
    Diagram,
    DiagramError,
    InfeasibleError,
    SampleStats,
    Shape,
    ShapeClass,
    build_table,
    canonical_code,
    classify_loops,
    enumerate_shapes,
    eta,
    eta_inv,
    genus as genus_of,
    is_connected,
    is_shape,
    sample_stats,
    shape_class,
    theta_inv,
)
from chordshapes import sampling


class TestTables:
    def test_build_genus_one(self, tmp_path):
        # the directory argument is accepted and not used
        t = build_table(1, 1, tmp_path)
        assert len(t) == len(t.images) == 4
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "q",
        [
            # the stacked pair (2, 7), (3, 6) survives eta
            pytest.param(
                Diagram((4, 4), frozenset({(1, 4), (2, 7), (3, 6), (5, 8)})),
                id="entry0-non-shape",
            ),
            # no rainbows: eta returns a shape, but of class B
            pytest.param(
                Diagram((3, 3), frozenset({(1, 4), (2, 5), (3, 6)})),
                id="entry1-outside",
            ),
        ],
    )
    def test_table_checks_entries(self, monkeypatch, q):
        # each entry is checked once, as the surgery that makes it returns it
        qs = enumerate_shapes(2, 0, connected=False)
        monkeypatch.setattr(
            sampling, "_enumerate_shapes", lambda *args: [Shape(q, 0)] + qs[1:]
        )
        with pytest.raises(ConsistencyError, match="left the A-shape family"):
            build_table(1, 1)

    @pytest.mark.parametrize(
        "change, match",
        [(lambda qs: qs + qs[:1], "twice"), (lambda qs: qs[1:], "predicts 4")],
        ids=["repeated", "short"],
    )
    def test_table_checks_keys_and_count(self, monkeypatch, change, match):
        qs = enumerate_shapes(2, 0, connected=False)
        monkeypatch.setattr(sampling, "_enumerate_shapes", lambda *args: change(qs))
        with pytest.raises(ConsistencyError, match=match):
            build_table(1, 1)

    @pytest.mark.parametrize(
        "b, g, match",
        [
            (2, 1, "one-backbone"),
            (True, 1, "backbones must be an integer"),
            (1, 0, "genus must be >= 1"),
            (1, 1.0, "genus must be an integer"),
        ],
    )
    def test_table_arguments_checked(self, b, g, match):
        with pytest.raises(DiagramError, match=match):
            build_table(b, g)

    def test_build_makes_no_pairing(self, monkeypatch):
        # the surgeries and the A/B class read vertex 2's partner off its arc
        paired = []
        pairing = Diagram.pairing

        def counting(d):
            paired.append(d)
            return pairing(d)

        monkeypatch.setattr(Diagram, "pairing", counting)
        table = build_table(1, 2)
        BishapeSampler(1, seed=1, table=table)
        assert paired == []


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
        assert sampler.connected_hits == sampler.attempts == n

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

    def test_filter_rejects_counted_apart(self, make_table):
        t = make_table(1, 2)
        sampler = BishapeSampler(1, seed=17, table=t, arc_filter=7)
        for _ in range(500):
            sampler.draw()
        assert sampler.filter_rejects > 0
        assert sampler.connected_hits == 500 + sampler.filter_rejects
        # disconnection rejections stay out of it
        assert sampler.attempts > sampler.connected_hits
        unfiltered = BishapeSampler(1, seed=17, table=t)
        for _ in range(500):
            unfiltered.draw()
        assert unfiltered.filter_rejects == 0
        assert unfiltered.connected_hits == 500

    @pytest.mark.parametrize("genus, table", [(1, (1, 1)), (0, (1, 2))])
    def test_table_of_another_family_rejected(self, make_table, genus, table):
        # a sampler returns its table's images, which must be of its genus
        with pytest.raises(DiagramError, match=f"genus-{genus + 1} table"):
            BishapeSampler(genus, seed=1, table=make_table(*table))

    def test_genus_2_is_infeasible(self):
        # the genus-3 table is built from the two-backbone genus-2 shapes,
        # which lie past the enumeration bound
        for call in (lambda: BishapeSampler(2), lambda: sample_stats(2, 1)):
            with pytest.raises(InfeasibleError):
                call()

    def test_negative_genus_rejected_up_front(self, monkeypatch):
        # a negative genus used to look up a genus-0 one-backbone table and
        # fail in shape_poly_1bb, naming an internal function and genus 0
        def no_table(*args, **kwargs):
            raise AssertionError("table looked up")

        monkeypatch.setattr(sampling, "build_table", no_table)
        for call in (
            lambda: BishapeSampler(-1, seed=1),
            lambda: sample_stats(-3, 10, seed=1),
        ):
            with pytest.raises(DiagramError, match="^genus must be >= 0$"):
                call()

    @pytest.mark.parametrize(
        "call, args, kwargs",
        [
            (BishapeSampler, (None,), {}),
            (BishapeSampler, (1.5,), {}),
            (BishapeSampler, (True,), {}),
            (BishapeSampler, (0,), {"arc_filter": 3.0}),
            (sample_stats, ("0", 3), {}),
            (sample_stats, (0, 2.5), {}),
            (sample_stats, (0, True), {}),
        ],
    )
    def test_size_arguments_must_be_ints(self, monkeypatch, call, args, kwargs):
        # these once raised TypeError from a comparison, built an error
        # message from a float genus, or sampled genus 1 for True
        def no_table(*args, **kwargs):
            raise AssertionError("table looked up")

        monkeypatch.setattr(sampling, "build_table", no_table)
        with pytest.raises(DiagramError, match="must be an integer"):
            call(*args, **kwargs)

    def test_genus1_sampler_draws_genus1_shapes(self, make_table, shape_sets):
        sampler = BishapeSampler(1, seed=11, table=make_table(1, 2))
        q1_codes = {s.code for s in shape_sets(2, 1)}
        for _ in range(200):
            s = sampler.draw()
            assert s.genus == 1
            assert canonical_code(s.diagram) in q1_codes

    def test_genus1_rejection_happens(self, make_table):
        sampler = BishapeSampler(1, seed=11, table=make_table(1, 2))
        for _ in range(3000):
            sampler.draw()
        assert 3000 == sampler.connected_hits < sampler.attempts

    def test_genus1_local_sampling_with_seven_arcs(self, make_table):
        sampler = BishapeSampler(1, seed=17, table=make_table(1, 2), arc_filter=7)
        seen = set()
        for _ in range(1500):
            s = sampler.draw()
            assert s.n_arcs == 7
            seen.add(canonical_code(s.diagram))
        # 479 seven-arc shapes exist; a short run should already hit many
        assert len(seen) > 400


@pytest.mark.parametrize("genus", [0, 1])
def test_table_and_images_built_forward(make_table, shape_sets, genus):
    """The forward-built table holds one image per shape of the
    exhaustive one-backbone search of genus g + 1, and its images equal
    the pullbacks of those shapes, in order, through the public theta_inv
    and eta_inv, each with its traced genus, and None where the pullback
    is disconnected."""
    table = make_table(1, genus + 1)
    assert len(table) == len(shape_sets(1, genus + 1))
    images = []
    for s in shape_sets(1, genus + 1):
        q = eta_inv(s if shape_class(s) is ShapeClass.A else theta_inv(s))
        images.append(Shape(q, genus_of(q)) if is_connected(q) else None)
    assert list(table.images) == images
    assert BishapeSampler(genus, seed=0, table=table)._images == table.images


def _rebuilt(s: Shape) -> Shape:
    """An equal Shape in new objects, with nothing computed on it yet."""
    d = s.diagram
    return Shape(Diagram(d.backbone_lengths, frozenset(d.arcs), planted=True), s.genus)


def _fresh_summary(s: Shape) -> tuple:
    """Arc count, non-plant loop lengths and alpha/beta counts, from
    classify_loops on a newly built copy: what one draw adds to the
    statistics."""
    d = _rebuilt(s).diagram
    prof = classify_loops(d)
    lengths = tuple(
        len(cyc)
        for kind, cyc in zip(prof.kinds, prof.boundary.cycles)
        if kind not in ("plant", "empty")
    )
    return (d.n_arcs, lengths, prof.alpha, prof.beta)


class TestStoredValues:
    """Every image's stored loop profile and code equal a fresh
    computation and leave the Shape's value semantics alone."""

    @pytest.mark.parametrize("genus", [0, 1])
    def test_every_image(self, make_table, genus):
        sampler = BishapeSampler(genus, seed=1, table=make_table(1, genus + 1))
        images = [s for s in sampler._images if s is not None]
        assert images
        for s in images:
            twin = Shape(s.diagram, s.genus)
            before = (hash(s), repr(s))
            fresh = classify_loops(_rebuilt(s).diagram)
            assert s.loop_profile == fresh
            assert s.code == canonical_code(s.diagram)
            assert (hash(s), repr(s)) == before
            assert s == twin and twin == s
            assert hash(twin) == hash(s)
            back = pickle.loads(pickle.dumps(s))
            assert back == s
            assert (back.code, back.loop_profile) == (s.code, fresh)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_images_interned(self, make_table, shape_sets, genus):
        # every connected shape is the image of two table entries, and
        # both hold the same Shape object, in table order
        table = make_table(1, genus + 1)
        sampler = BishapeSampler(genus, seed=1, table=table)
        assert len(sampler._images) == len(table)
        images = [s for s in sampler._images if s is not None]
        distinct = {id(s): s for s in images}
        assert len(distinct) == len(set(images)) == len(shape_sets(2, genus))
        assert len(images) == 2 * len(distinct)

    def test_stats_match_per_draw_classification(self, make_table):
        stats = sample_stats(1, 400, seed=5)
        sampler = BishapeSampler(1, seed=5, table=make_table(1, 2))
        drawn = [_fresh_summary(sampler.draw()) for _ in range(400)]
        _assert_stats_fold_to(stats, drawn)
        # equality compares the statistics, not the image objects
        assert stats == sample_stats(1, 400, seed=5)
        assert stats != sample_stats(1, 400, seed=6)

    def test_fold_counts_each_draw_once(self, make_table):
        # one Shape recorded twice, an equal Shape built apart, and
        # temporaries dropped right after record, whose ids the
        # interpreter may hand to the next temporary
        sampler = BishapeSampler(1, seed=9, table=make_table(1, 2))
        images = [sampler.draw() for _ in range(40)]
        stats = SampleStats(genus=1)
        drawn = []

        def record(s):
            stats.record(s)
            drawn.append(_fresh_summary(s))

        record(images[0])
        record(images[0])
        record(_rebuilt(images[0]))
        for image in images:
            record(_rebuilt(image))
            gc.collect()
        _assert_stats_fold_to(stats, drawn)

    @pytest.mark.parametrize(
        "name",
        ["n_samples", "arc_hist", "loop_length_hist", "alpha_sum",
         "alpha_sq_sum", "beta_sum", "beta_sq_sum"],
    )
    def test_folded_fields_are_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(SampleStats(genus=0), name, 1)


def _assert_stats_fold_to(stats: SampleStats, drawn: list[tuple]) -> None:
    """Check every statistic against sums taken draw by draw over the
    ``_fresh_summary`` tuples ``drawn``, histogram key order included."""
    n = len(drawn)
    arc_hist: dict[int, int] = {}
    loops: dict[int, int] = {}
    alpha = alpha_sq = beta = beta_sq = 0
    for arcs, lengths, a, b in drawn:
        arc_hist[arcs] = arc_hist.get(arcs, 0) + 1
        for l in lengths:
            loops[l] = loops.get(l, 0) + 1
        alpha, alpha_sq = alpha + a, alpha_sq + a * a
        beta, beta_sq = beta + b, beta_sq + b * b
    assert stats.n_samples == n
    assert list(stats.arc_hist.items()) == list(arc_hist.items())
    assert list(stats.loop_length_hist.items()) == list(loops.items())
    assert (stats.alpha_sum, stats.alpha_sq_sum) == (alpha, alpha_sq)
    assert (stats.beta_sum, stats.beta_sq_sum) == (beta, beta_sq)
    alpha_mean, beta_mean = alpha / n, beta / n
    alpha_var = alpha_sq / n - alpha_mean * alpha_mean
    beta_var = beta_sq / n - beta_mean * beta_mean
    assert (stats.alpha_mean, stats.alpha_var) == (alpha_mean, alpha_var)
    assert (stats.beta_mean, stats.beta_var) == (beta_mean, beta_var)
    rows = [
        f"samples,,{n}",
        f"attempts,,{stats.attempts}",
        f"connected_hits,,{stats.connected_hits}",
        f"acceptance_fraction,,{stats.acceptance_fraction:.8f}",
        f"alpha_loops,mean,{alpha_mean:.8f}",
        f"alpha_loops,variance,{alpha_var:.8f}",
        f"beta_loops,mean,{beta_mean:.8f}",
        f"beta_loops,variance,{beta_var:.8f}",
    ]
    rows += [f"arc_count,{k},{v}" for k, v in sorted(arc_hist.items())]
    rows += [f"loop_length,{k},{v}" for k, v in sorted(loops.items())]
    assert stats.to_csv() == "\n".join(rows) + "\n"


class TestStats:
    def test_sampled_shapes_have_clean_loop_profile(self):
        stats = sample_stats(0, 300, seed=2)
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

    def test_negative_count_rejected(self):
        # a negative count used to return zero samples (CLI exit 0)
        with pytest.raises(DiagramError, match="count"):
            sample_stats(0, -5, seed=1)

    def test_csv_emission(self):
        stats = sample_stats(0, 50, seed=4)
        csv = stats.to_csv()
        assert csv.startswith("samples,,50\n")
        assert "acceptance_fraction" in csv
        assert "arc_count,3," in csv or "arc_count,4," in csv

    def test_mean_and_variance_accumulate(self):
        stats = sample_stats(0, 200, seed=6)
        assert stats.beta_mean > 0
        assert stats.alpha_var >= 0
        assert stats.beta_var >= 0

    def test_no_samples(self):
        stats = sample_stats(0, 0, seed=1)
        assert (stats.alpha_var, stats.beta_var) == (0.0, 0.0)

    def test_repr_and_equality(self):
        stats = sample_stats(0, 20, seed=3)
        assert repr(stats).startswith("SampleStats(genus=0, n_samples=20, attempts=20,")
        assert stats == sample_stats(0, 20, seed=3)
        assert stats.__eq__(object()) is NotImplemented
