from __future__ import annotations

import hashlib

import pytest

from chordshapes import (
    ConsistencyError,
    Diagram,
    DiagramError,
    EnumSpec,
    InfeasibleError,
    boundary_components,
    canonical_code,
    count_fiber,
    enumerate_matchings,
    enumerate_shapes,
    genus,
    is_connected,
    is_shape,
    shape_poly_1bb,
    shape_poly_2bb,
    w_gf,
)
from chordshapes.enumeration import _RISE, _search, _search_split, _swap_backbones
from chordshapes.shapes import as_shape
from conftest import all_matchings
from test_series import Q2, S3

Q3 = as_shape(Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}), planted=True))
Q4 = as_shape(
    Diagram((4, 4), frozenset({(1, 4), (5, 8), (2, 6), (3, 7)}), planted=True)
)
SPEC = dict(backbones=2, arcs_min=5, arcs_max=5, genus_cap=1)


def matching_count(b, arcs, g=None, cap=10 ** 6, connected=False):
    return enumerate_matchings(
        EnumSpec(
            backbones=b,
            arcs_min=arcs,
            arcs_max=arcs,
            genus_cap=g if g is not None else cap,
            genus_exact=g,
            connected_only=connected,
        )
    )


def visited(b, arcs, cap, exact, connected):
    """The codes ``enumerate_matchings`` visits, in order."""
    codes = []
    enumerate_matchings(
        EnumSpec(
            backbones=b,
            arcs_min=arcs,
            arcs_max=arcs,
            genus_cap=cap,
            genus_exact=exact,
            connected_only=connected,
        ),
        lambda d: codes.append(canonical_code(d)),
    )
    return codes


class TestMatchings:
    def test_one_backbone_two_arcs(self):
        assert matching_count(1, 2) == 3  # nested, crossing, disjoint

    def test_one_backbone_totals_are_double_factorials(self):
        assert matching_count(1, 3) == 15
        assert matching_count(1, 4) == 105

    def test_two_backbone_genus0_connected(self):
        assert matching_count(2, 1, g=0, connected=True) == 1
        assert matching_count(2, 2, g=0, connected=True) == 8

    def test_counts_match_w_series_low_order(self):
        w0 = w_gf(0, 7)
        w1 = w_gf(1, 7)
        for arcs in (1, 2, 3, 4, 5):
            assert matching_count(2, arcs, g=0, connected=True) == w0[arcs + 2]
        for arcs in (3, 4, 5):
            assert matching_count(2, arcs, g=1, connected=True) == w1[arcs + 2]

    def test_visit_receives_each_matching_once(self):
        seen = []
        enumerate_matchings(
            EnumSpec(backbones=1, arcs_min=2, arcs_max=2, genus_cap=5),
            seen.append,
        )
        assert len(seen) == 3
        assert len({canonical_code(d) for d in seen}) == 3
        assert all(d.is_matching for d in seen)

    def test_deterministic_order(self):
        def run():
            out = []
            enumerate_matchings(
                EnumSpec(backbones=2, arcs_min=2, arcs_max=2, genus_cap=1),
                lambda d: out.append(canonical_code(d)),
            )
            return out

        assert run() == run()

    def test_genus_exact_filter(self):
        # 9 matchings in all; the one disconnected duplex pair has formal
        # genus -1, the rest are connected of genus 0
        assert matching_count(2, 2) == 9
        assert matching_count(2, 2, g=0) == 8
        assert matching_count(2, 2, g=1) == 0
        assert matching_count(2, 2, g=0, connected=True) == 8

    def test_node_budget_enforced(self):
        with pytest.raises(InfeasibleError, match="budget"):
            enumerate_matchings(
                EnumSpec(
                    backbones=1,
                    arcs_min=5,
                    arcs_max=5,
                    genus_cap=10,
                    node_budget=10,
                )
            )

    def test_placed_arcs_pinned(self):
        # node_budget counts placed arcs, so it pins how many the prunes
        # let through: 74 with the genus prune alone, 53 with face parity,
        # 22 with the face-side budget, 17 with its look-ahead
        enumerate_shapes(1, 1, node_budget=17)
        with pytest.raises(InfeasibleError, match="budget"):
            enumerate_shapes(1, 1, node_budget=16)
        # (2, 1): 428,802 before the face-side budget, 29,604 before the
        # splits past the middle came from swapping the backbones, 15,506
        # before the lone-vertex prune and 12,446 before the prune on two
        # segments of 2 or more sides that meet
        enumerate_shapes(2, 1, node_budget=11_063)
        with pytest.raises(InfeasibleError, match="budget"):
            enumerate_shapes(2, 1, node_budget=11_062)
        # (1, 2): the search whose look-ahead reads the most segments
        enumerate_shapes(1, 2, node_budget=49_406)
        with pytest.raises(InfeasibleError, match="budget"):
            enumerate_shapes(1, 2, node_budget=49_405)
        # matchings mode: the genus and parity prunes alone
        def matchings(budget: int, cap: int = 1, exact: int = 1) -> int:
            return enumerate_matchings(
                EnumSpec(
                    backbones=2,
                    arcs_min=5,
                    arcs_max=5,
                    genus_cap=cap,
                    genus_exact=exact,
                    connected_only=True,
                    node_budget=budget,
                )
            )

        matchings(15_888)
        with pytest.raises(InfeasibleError, match="budget"):
            matchings(15_887)
        # a cap above the exact genus prunes as the exact genus does: the
        # window is that one genus (18,858 when the cap bounded it)
        matchings(15_888, cap=2)
        with pytest.raises(InfeasibleError, match="budget"):
            matchings(15_887, cap=2)
        # an exact genus above the cap is an empty window, searched on no
        # split (the floor prune alone let 1,479 arcs be placed)
        assert matchings(0, cap=2, exact=3) == 0

    def test_arc_bound(self):
        # the search recurses once per arc: past 500 arcs it is refused from
        # the arguments alone, and at 500 it runs into the node budget;
        # shape families stop at 11 arcs, far below that
        with pytest.raises(InfeasibleError, match="at most 500"):
            matching_count(2, 501)
        with pytest.raises(InfeasibleError, match="up to 503 arcs: .* up to 11"):
            enumerate_shapes(1, 84)
        with pytest.raises(InfeasibleError, match="budget"):
            enumerate_matchings(
                EnumSpec(
                    backbones=1,
                    arcs_min=500,
                    arcs_max=500,
                    genus_cap=0,
                    node_budget=1000,
                )
            )

    def test_spec_validation(self):
        with pytest.raises(DiagramError):
            EnumSpec(backbones=3, arcs_min=1, arcs_max=1, genus_cap=0)
        with pytest.raises(DiagramError):
            EnumSpec(backbones=1, arcs_min=2, arcs_max=1, genus_cap=0)

    def test_negative_node_budget_refused(self):
        # a negative budget was taken as one already spent: the search ran
        # and failed at its first arc as "node budget of -5 placed arcs
        # exceeded"; a budget of 0 stays valid
        spec = dict(backbones=2, arcs_min=5, arcs_max=5, genus_cap=1)
        with pytest.raises(DiagramError, match="node budget must be >= 0"):
            EnumSpec(**spec, node_budget=-5)
        with pytest.raises(DiagramError, match="node budget must be >= 0"):
            enumerate_shapes(2, 1, node_budget=-5)
        with pytest.raises(InfeasibleError, match="budget of 0 placed arcs"):
            enumerate_matchings(EnumSpec(**spec, node_budget=0))
        with pytest.raises(InfeasibleError, match="budget of 0 placed arcs"):
            enumerate_shapes(2, 1, node_budget=0)
        assert enumerate_shapes(1, 0, node_budget=0) == []
        # an exact genus below 1 - b, the lowest formal genus, is a window
        # the root prunes whole; the search once placed arcs here and ran
        # into its budget of 0
        below = {**spec, "genus_cap": 0, "genus_exact": -5, "node_budget": 0}
        assert enumerate_matchings(EnumSpec(**below)) == 0

    @pytest.mark.parametrize(
        "call, message",
        [
            # True once returned the 1832 genus-1 shapes
            (lambda: enumerate_shapes(2, True), "genus must be an integer"),
            (lambda: enumerate_shapes(2, 1.0), "genus must be an integer"),
            (lambda: enumerate_shapes(2, None), "genus must be an integer"),
            (lambda: enumerate_shapes(True, 1), "backbones must be an integer"),
            # once reported "node budget of 1.5 placed arcs exceeded"
            (
                lambda: enumerate_shapes(2, 1, node_budget=1.5),
                "node budget must be an integer",
            ),
            (
                lambda: EnumSpec(**{**SPEC, "genus_cap": None}),
                "genus cap must be an integer",
            ),
            # once accepted
            (
                lambda: EnumSpec(**{**SPEC, "arcs_min": 1.5}),
                "arcs_min must be an integer",
            ),
            # once counted 0
            (
                lambda: EnumSpec(**SPEC, genus_exact=0.5),
                "exact genus must be an integer",
            ),
            (
                lambda: EnumSpec(**SPEC, node_budget=2.0),
                "node budget must be an integer",
            ),
        ],
        ids=[
            "genus-bool", "genus-float", "genus-none", "backbones-bool",
            "budget-float", "spec-cap-none", "spec-arcs-min-float",
            "spec-exact-float", "spec-budget-float",
        ],
    )
    def test_size_arguments_must_be_ints(self, call, message):
        with pytest.raises(DiagramError, match=message):
            call()

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("connected", [False, True])
    def test_genus_prune_is_sound(self, b, connected):
        # the capped search must yield exactly the uncapped enumeration
        # filtered by the independent fat-graph tracer, in the same order
        for n in range(1, 6):
            every = []
            enumerate_matchings(
                EnumSpec(
                    backbones=b,
                    arcs_min=n,
                    arcs_max=n,
                    genus_cap=10 ** 6,
                    connected_only=connected,
                ),
                every.append,
            )
            if connected:
                assert all(is_connected(d) for d in every)
            codes = [(canonical_code(d), genus(d)) for d in every]
            for g in range(3):
                same = [c for c, h in codes if h == g]
                upto = [c for c, h in codes if h <= g]
                assert visited(b, n, g, g, connected) == same, (b, n, g, connected)
                # a cap above the exact genus keeps that genus alone
                assert visited(b, n, g + 1, g, connected) == same, (b, n, g, connected)
                # the cap alone keeps every genus up to it, so the parity
                # prune must not cut a completion below the cap either
                assert visited(b, n, g, None, connected) == upto, (b, n, g, connected)

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("connected", [False, True])
    def test_visits_in_ascending_order(self, b, connected, monkeypatch):
        # a face lists its vertices in cycle order, so a node must sort its
        # partners before it places them: every search of one arc count
        # visits its diagrams in strictly ascending (lengths, arcs) order,
        # also where the prunes leave a node nothing but its own face; and
        # every leaf the kernel emits lists its arcs in ascending order
        emitted = []

        def recording(*args):
            *head, emit, budget, spare = args

            def record(arcs):
                emitted.append(arcs)
                emit(arcs)

            return _search_split(*head, record, budget, spare)

        monkeypatch.setattr("chordshapes.enumeration._search_split", recording)
        for n in range(1, 6):
            for cap, exact in (
                (10**6, None), (0, None), (1, None), (1, 1), (2, 2), (2, 1),
            ):
                keys = []
                enumerate_matchings(
                    EnumSpec(
                        backbones=b,
                        arcs_min=n,
                        arcs_max=n,
                        genus_cap=cap,
                        genus_exact=exact,
                        connected_only=connected,
                    ),
                    lambda d: keys.append((d.backbone_lengths, sorted(d.arcs))),
                )
                assert all(a < z for a, z in zip(keys, keys[1:])), (n, cap, exact)
        assert emitted
        assert all(list(arcs) == sorted(arcs) for arcs in emitted)


class TestShapes:
    @pytest.mark.parametrize(
        "b, g, top, hi, placed",
        [(1, 3, S3, 17, (6685, 84137)), (2, 2, Q2, 16, (6476, 79279))],
        ids=["S3", "Q2"],
    )
    def test_kernel_counts_one_genus_deeper(self, b, g, top, hi, placed):
        # the shapes past the families enumerate_shapes lists, counted by
        # the kernel on every split with no shape kept: their lowest
        # coefficients must equal the closed formula and the table, and
        # the arcs placed to find them are pinned, so a shape rule that
        # refuses a partner too late places more
        poly = shape_poly_1bb(g) if b == 1 else shape_poly_2bb(g)
        for n, want in zip(
            (2 * g + 1, 2 * g + 2) if b == 1 else (2 * g + 3, 2 * g + 4), placed
        ):
            V = 2 * n
            # a backbone needs 3 vertices, its rainbow's two and one for
            # the arc that connects it to the other
            splits = [(V,)] if b == 1 else [(k, V - k) for k in range(3, V - 2)]
            found = []
            budget = [want] * 2
            for lengths in splits:
                _search_split(lengths, g, g, True, found.append, budget, hi - n)
            assert len(found) == poly[n] == top[n], (b, g, n)
            assert budget[0] == 0, (b, g, n)

    def test_disconnected_genus_two_through_the_window(self):
        # Q'_2, the two-backbone genus-2 shapes with the disconnected pairs,
        # listed by the driver's arc window below the family's 11-arc cap:
        # eta and theta give S_3 = (1 + z) Q'_2, and a pair puts a genus-1
        # and a genus-2 shape on the two backbones in either order
        s1, s2, s3 = (shape_poly_1bb(g) for g in (1, 2, 3))
        for n, every, apart in ((7, 1485, 0), (8, 25443, 42)):
            found = []
            _search(
                2, n, n, (2, 2), False, 16,
                lambda lengths, arcs: found.append((lengths[0], arcs)), None,
            )
            # no arc joins the two backbones of a pair
            pairs = sum(
                all((i <= a) == (j <= a) for i, j in arcs) for a, arcs in found
            )
            ks = range(n + 1)
            assert len(found) == every == sum((-1) ** (n - k) * s3[k] for k in ks)
            assert pairs == apart == 2 * sum(s1[k] * s2[n - k] for k in ks)
            assert every - apart == Q2[n]

    def test_driver_split_policy(self, monkeypatch):
        # the driver searches the shape splits (a, c) with 3 <= a <= c only,
        # in ascending arc count and then lengths, with the face-side
        # budget 10 - n of the (2, 1) family; every other split is a
        # mirror.  It searches every matching split and mirrors none: the
        # visits are exactly what the kernel emits, in the same order
        calls = []

        def recording(lengths, genus_min, genus_max, connected, emit, budget, spare):
            leaves = []
            calls.append((lengths, spare, leaves))

            def record(arcs):
                leaves.append(arcs)
                emit(arcs)

            return _search_split(
                lengths, genus_min, genus_max, connected, record, budget, spare
            )

        monkeypatch.setattr("chordshapes.enumeration._search_split", recording)
        enumerate_shapes(2, 1)
        assert [(lengths, spare) for lengths, spare, _ in calls] == [
            ((a, 2 * n - a), 10 - n) for n in range(5, 11) for a in range(3, n + 1)
        ]
        calls.clear()
        visits = []
        enumerate_matchings(
            EnumSpec(backbones=2, arcs_min=1, arcs_max=4, genus_cap=1),
            lambda d: visits.append((d.backbone_lengths, tuple(sorted(d.arcs)))),
        )
        assert [(lengths, spare) for lengths, spare, _ in calls] == [
            ((k, 2 * n - k), None) for n in range(1, 5) for k in range(1, 2 * n)
        ]
        assert visits
        assert visits == [
            (lengths, arcs) for lengths, _, leaves in calls for arcs in leaves
        ]

    def test_genus_one_profile(self, shape_sets):
        shapes = shape_sets(1, 1)
        assert len(shapes) == 4
        profile = sorted(s.n_arcs for s in shapes)
        assert profile == [3, 4, 4, 5]

    def test_genus_one_all_valid(self, shape_sets):
        for s in shape_sets(1, 1):
            assert is_shape(s.diagram)
            assert s.genus == 1

    def test_two_backbone_genus_zero(self, shape_sets):
        codes = [canonical_code(s.diagram) for s in shape_sets(2, 0)]
        assert codes == ["3 3|1-3 2-5 4-6", "4 4|1-4 2-6 3-7 5-8"]

    def test_no_duplicates_and_sorted(self, shape_sets):
        shapes = shape_sets(2, 0) + shape_sets(1, 1)
        codes = [canonical_code(s.diagram) for s in shapes]
        assert len(set(codes)) == len(codes)
        for b, g in ((2, 0), (1, 1), (2, 1)):
            keys = [
                (s.n_arcs, s.diagram.backbone_lengths, sorted(s.diagram.arcs))
                for s in shape_sets(b, g)
            ]
            assert keys == sorted(keys), (b, g)

    def test_deterministic(self):
        a = [canonical_code(s.diagram) for s in enumerate_shapes(1, 1)]
        b = [canonical_code(s.diagram) for s in enumerate_shapes(1, 1)]
        assert a == b

    def test_disconnected_flag_adds_pairs(self):
        every = enumerate_shapes(2, 0, connected=False)
        connected = enumerate_shapes(2, 0)
        # no disconnected two-backbone shapes exist at genus 0
        assert [canonical_code(s.diagram) for s in every] == [
            canonical_code(s.diagram) for s in connected
        ]

    def test_no_genus_zero_one_backbone_shapes(self):
        assert enumerate_shapes(1, 0) == []

    def test_three_backbones_refused(self):
        with pytest.raises(DiagramError, match="1 or 2 backbones"):
            enumerate_shapes(3, 1)

    def test_infeasible_genus_refused(self):
        with pytest.raises(InfeasibleError):
            enumerate_shapes(1, 3)
        with pytest.raises(InfeasibleError):
            enumerate_shapes(2, 2)

    def test_connected_shapes_are_connected(self, shape_sets):
        for s in shape_sets(2, 0):
            assert is_connected(s.diagram)

    def test_equal_to_filtered_matchings(self, shape_sets):
        # an oracle without the kernel's shape mode: every matching of up
        # to 6 arcs, kept when it is a shape (its outermost arcs being the
        # rainbows), sorted by its fat-graph genus; two-backbone shapes are
        # connected
        found: dict[tuple[int, int], list[str]] = {}
        for b in (1, 2):
            for n in range(1, 7):
                for d in all_matchings(b, n):
                    if is_shape(d) and (b == 1 or is_connected(d)):
                        found.setdefault((b, genus(d)), []).append(
                            canonical_code(d)
                        )
        # every (1, 1) and (2, 0) shape has at most 5 arcs, the (2, 1) and
        # (1, 2) shapes at least 5
        assert set(found) == {(1, 1), (1, 2), (2, 0), (2, 1)}
        for (b, g), codes in found.items():
            want = [
                canonical_code(s.diagram) for s in shape_sets(b, g) if s.n_arcs <= 6
            ]
            assert sorted(codes) == sorted(want), (b, g)

    @pytest.mark.parametrize("b, g", [(1, 1), (2, 0), (2, 1), (1, 2)])
    def test_face_side_identity(self, shape_sets, b, g):
        # the face-side budget: every face but the b one-sided plant faces
        # has at least 3 sides, and the Euler count fixes their excess
        # over 3 at hi - n for hi the largest arc count of the family
        hi = 6 * g - 1 if b == 1 else 6 * g + 4
        for s in shape_sets(b, g):
            d = s.diagram
            cycles = boundary_components(d).cycles
            assert sum(len(c) - 3 for c in cycles) == hi - s.n_arcs - 2 * b
            plant = {(start,) for start, _ in d.bounds}
            assert {c for c in cycles if len(c) < 3} == plant, canonical_code(d)

    def test_rise_table_matches_its_definition(self):
        # the face-side bound's rise on joining segments of x and y arc
        # sides across a new arc's side is h(x + 1 + y) - h(x) - h(y) for
        # h(q) = max(0, q - 2); the kernel counts sides only up to 2 and
        # reads a double join's row at the capped x + 1 + y
        def h(q):
            return max(0, q - 2)

        def c(q):
            return min(q, 2)

        lengths = range(25)
        for x in lengths:
            for y in lengths:
                assert _RISE[c(x)][c(y)] == h(x + 1 + y) - h(x) - h(y), (x, y)
                for z in lengths:
                    rise = h(x + 1 + y + 1 + z) - h(x + 1 + y) - h(z)
                    assert _RISE[c(x) + 1 + c(y)][c(z)] == rise, (x, y, z)

    def test_leaf_check_raises(self):
        # a leaf whose face sides disagree with the Euler count raises,
        # under python -O too: the 3-arc (2, 0) shape has hi - n = 1 spare
        # side, and the kernel is told 2
        def search(spare):
            emitted = []
            _search_split((3, 3), 0, 0, True, emitted.append, None, spare)
            return emitted

        assert search(1) == [((1, 3), (2, 5), (4, 6))]
        with pytest.raises(ConsistencyError, match="face sides"):
            search(2)

    @pytest.mark.parametrize("connected", [True, False])
    @pytest.mark.parametrize("g", [0, 1])
    def test_swapped_splits_equal_searched(self, g, connected):
        # enumerate_shapes searches the splits (a, c) with a <= c only and
        # gets (c, a) by swapping the backbones; the kernel's own search of
        # every split past the middle must give the same shapes in order
        hi = 6 * g + 4

        def search(lengths):
            emitted = []
            _search_split(
                lengths, g, g, connected, emitted.append,
                None, hi - sum(lengths) // 2,
            )
            return emitted

        mirrored = 0
        for n in range(2 * g + 3, hi + 1):
            for c in range(n + 1, 2 * n - 2):
                a = 2 * n - c
                searched = search((a, c))
                mirror = sorted(_swap_backbones(arcs, a, c) for arcs in searched)
                assert mirror == search((c, a)), (n, a, c)
                back = [_swap_backbones(arcs, c, a) for arcs in mirror]
                assert sorted(back) == searched  # the swap twice is no change
                mirrored += len(mirror)
        # (2, 0) has shapes on the middle splits (3, 3) and (4, 4) only
        assert (mirrored > 0) == (g == 1)

    def test_repeated_emit_raises(self, monkeypatch):
        # the shapes are kept in the order the kernel emits them, so a
        # shape emitted twice (or out of order) raises, under python -O too
        def twice(*args):
            *head, emit, budget, spare = args

            def emit_twice(arcs):
                emit(arcs)
                emit(arcs)

            return _search_split(*head, emit_twice, budget, spare)

        monkeypatch.setattr("chordshapes.enumeration._search_split", twice)
        with pytest.raises(ConsistencyError, match="out of canonical order"):
            enumerate_shapes(2, 0)


def _code_digest(shapes) -> str:
    codes = "\n".join(canonical_code(s.diagram) for s in shapes)
    return hashlib.sha256(codes.encode()).hexdigest()


# SHA-256 of the newline-joined canonical codes of enumerate_shapes(b, g,
# connected=...), in the order returned, as computed by the kernel that
# re-traced every boundary cycle of the partial diagram at every node;
# the connectivity filter changes nothing at (1, 1) and (2, 0)
ORDER_PINS = {
    (1, 1): "515848a47c084c81d7945fa213f8c5a4024c8d37c60508c4ec5cdad87badae56",
    (2, 0): "50bb949d077b09640c19ee0b05953ddc4f3abba5af47deeaceb92d46d4b45d5b",
    (2, 1, True): "e3628291c7e00b1677c6032ddf97b3586ce03dc12e418ade2e7718eb66b19adf",
    (2, 1, False): "eaac6964143d3b14b070ffb87c14230e63bdc478b77fde62af3a0df7a0d24e58",
    (1, 2): "7bffdfbb5da06d4340acecd6ae6458a9129d1fbb98226b5a30adea883752ea3b",
}


class TestOrderPins:
    @pytest.mark.parametrize("connected", [True, False])
    @pytest.mark.parametrize("b, g", [(1, 1), (2, 0)])
    def test_small_orders(self, b, g, connected):
        assert _code_digest(enumerate_shapes(b, g, connected=connected)) == (
            ORDER_PINS[(b, g)]
        )

    def test_two_backbone_genus_one_orders(self, shape_sets):
        # shape_sets(2, 1) is the connected list the acceptance tests use
        assert _code_digest(shape_sets(2, 1)) == ORDER_PINS[(2, 1, True)]
        assert _code_digest(enumerate_shapes(2, 1, connected=False)) == (
            ORDER_PINS[(2, 1, False)]
        )

    def test_one_backbone_genus_two_order(self, shape_sets):
        # through the shared fixture, so no extra enumeration runs
        assert _code_digest(shape_sets(1, 2)) == ORDER_PINS[(1, 2)]


class TestFibers:
    def test_single_arc_preimage(self):
        assert count_fiber(Q3, 1) == 1

    def test_two_arc_preimages(self):
        assert count_fiber(Q3, 2) == 7
        assert count_fiber(Q4, 2) == 1

    def test_fiber_totals_match_w0(self, shape_sets):
        w0 = w_gf(0, 6)
        for n in (1, 2, 3, 4):
            total = sum(count_fiber(s, n) for s in shape_sets(2, 0))
            assert total == w0[n + 2]

    def test_matching_genus_equals_shape_genus(self):
        # fibers only contain matchings of the shape's own genus
        hits = []
        enumerate_matchings(
            EnumSpec(
                backbones=2,
                arcs_min=2,
                arcs_max=2,
                genus_cap=0,
                genus_exact=0,
                connected_only=True,
            ),
            hits.append,
        )
        assert all(genus(d) == 0 for d in hits)

    def test_requires_two_backbones(self):
        one_bb = as_shape(
            Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}), planted=True)
        )
        with pytest.raises(DiagramError):
            count_fiber(one_bb, 2)

    def test_infeasible_size_refused(self):
        with pytest.raises(InfeasibleError, match="9 arcs: .* up to 8 arcs"):
            count_fiber(Q3, 9)

    @pytest.mark.parametrize(
        "n_arcs, message",
        [
            (2.0, "arc count must be an integer"),
            (True, "arc count must be an integer"),
            (0, "arc count must be >= 1"),
            (-3, "arc count must be >= 1"),
        ],
    )
    def test_bad_arc_count_refused(self, n_arcs, message):
        # these once failed with the wording of EnumSpec's own fields
        with pytest.raises(DiagramError) as exc:
            count_fiber(Q3, n_arcs)
        assert str(exc.value) == message
