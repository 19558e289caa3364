from __future__ import annotations

import hashlib

import pytest

from chordshapes import (
    Diagram,
    DiagramError,
    EnumSpec,
    InfeasibleError,
    canonical_code,
    count_fiber,
    enumerate_matchings,
    enumerate_shapes,
    genus,
    is_connected,
    is_shape,
    w_gf,
)
from chordshapes.shapes import as_shape

Q3 = as_shape(Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}), planted=True))
Q4 = as_shape(
    Diagram((4, 4), frozenset({(1, 4), (5, 8), (2, 6), (3, 7)}), planted=True)
)


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

    def test_explicit_splits(self):
        # restricting the covered backbone-length compositions
        only_even = enumerate_matchings(
            EnumSpec(
                backbones=2,
                arcs_min=2,
                arcs_max=2,
                genus_cap=0,
                genus_exact=0,
                connected_only=True,
                splits=((2, 2),),
            )
        )
        assert only_even == 2

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

    def test_spec_validation(self):
        with pytest.raises(DiagramError):
            EnumSpec(backbones=3, arcs_min=1, arcs_max=1, genus_cap=0)
        with pytest.raises(DiagramError):
            EnumSpec(backbones=1, arcs_min=2, arcs_max=1, genus_cap=0)

    @pytest.mark.parametrize(
        "splits",
        [((4,),), ((2, -2, 4),), ((-2, 6),), ((2, 2), (0, 4))],
        ids=["too-few-parts", "too-many-parts", "negative", "zero"],
    )
    def test_split_shape_validated(self, splits):
        # each split needs one positive length per backbone; a one-part
        # split on two backbones used to enumerate one-backbone matchings
        with pytest.raises(DiagramError, match="split"):
            EnumSpec(
                backbones=2, arcs_min=2, arcs_max=2, genus_cap=0, splits=splits
            )

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
            for g in range(3):
                capped = []
                enumerate_matchings(
                    EnumSpec(
                        backbones=b,
                        arcs_min=n,
                        arcs_max=n,
                        genus_cap=g,
                        genus_exact=g,
                        connected_only=connected,
                    ),
                    lambda d: capped.append(canonical_code(d)),
                )
                assert capped == [
                    canonical_code(d) for d in every if genus(d) == g
                ], (b, n, g, connected)


class TestShapes:
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

    def test_infeasible_genus_refused(self):
        with pytest.raises(InfeasibleError):
            enumerate_shapes(1, 3)
        with pytest.raises(InfeasibleError):
            enumerate_shapes(2, 2)

    def test_connected_shapes_are_connected(self, shape_sets):
        for s in shape_sets(2, 0):
            assert is_connected(s.diagram)


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
        with pytest.raises(InfeasibleError):
            count_fiber(Q3, 9)
