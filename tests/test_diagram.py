from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings

from chordshapes import (
    Diagram,
    DiagramError,
    IntervalKind,
    ParseError,
    canonical_code,
    components,
    diagram_from_code,
    disjoint_union,
    genus,
    interval_kinds,
    is_connected,
    maximal_stacks,
    parse_diagram,
    plant,
    serialize_diagram,
    strip_plants,
)

from conftest import diagram_strategy, fuzz_text

G, P, S = IntervalKind.GAP, IntervalKind.P, IntervalKind.SIGMA


class TestParse:
    def test_two_backbones(self):
        d = parse_diagram("2 2\n1-4 2-3")
        assert d.backbone_lengths == (2, 2)
        assert d.arcs == {(1, 4), (2, 3)}
        assert not d.planted

    def test_single_backbone_crossing(self):
        d = parse_diagram("4\n1-3 2-4")
        assert d.b == 1
        assert d.arcs == {(1, 3), (2, 4)}

    def test_self_pairing_rejected(self):
        with pytest.raises(ParseError, match="self-pairing"):
            parse_diagram("2 2\n1-1")

    def test_malformed_token_position(self):
        with pytest.raises(ParseError) as e:
            parse_diagram("4\n1-3 xx")
        assert e.value.line == 2
        assert e.value.column == 5

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_diagram("4\n1-5")

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="already paired"):
            parse_diagram("6\n1-3 3-5")

    def test_comments_and_blank_arc_line(self):
        d = parse_diagram("# a comment\n3 1  # lengths\n\n")
        assert d.backbone_lengths == (3, 1)
        assert not d.arcs

    def test_one_line_form(self):
        assert parse_diagram("2 2|1-4 2-3") == parse_diagram("2 2\n1-4 2-3")

    def test_reversed_endpoints_normalized(self):
        assert parse_diagram("4\n3-1").arcs == {(1, 3)}

    def test_non_decimal_digit_rejected(self):
        with pytest.raises(ParseError, match="positive integer"):
            parse_diagram("\u00b2\n")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter puts no limit on integer digits",
    )
    def test_overlong_number_rejected(self):
        # int() refuses more digits than the interpreter's limit
        nines = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError, match="too long"):
            parse_diagram(nines + "\n")
        with pytest.raises(ParseError, match="too long") as e:
            parse_diagram("4\n1-3 2-" + nines)
        assert (e.value.line, e.value.column) == (2, 5)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter puts no limit on integer digits",
    )
    def test_out_of_range_past_digit_limit(self):
        # each length parses, but their sum has more digits than str()
        # may print; the message must still be a ParseError
        nines = "9" * sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match="out of range") as e:
            parse_diagram(f"{nines} {nines}\n0-1\n")
        assert (e.value.line, e.value.column) == (2, 1)

    def test_extra_line_rejected(self):
        with pytest.raises(ParseError, match="extra line"):
            parse_diagram("4\n1-2\n3-4")

    def test_serialize_roundtrip_examples(self):
        for text in ("2 2\n1-4 2-3\n", "4\n1-3 2-4\n", "3 1\n\n"):
            d = parse_diagram(text)
            assert parse_diagram(serialize_diagram(d)) == d


class TestValidation:
    def test_zero_length_backbone(self):
        with pytest.raises(DiagramError):
            Diagram((0, 2), frozenset())

    def test_arc_out_of_range(self):
        with pytest.raises(DiagramError):
            Diagram((2,), frozenset({(1, 3)}))

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter puts no limit on integer digits",
    )
    def test_arc_out_of_range_past_digit_limit(self):
        huge = 10 ** (sys.get_int_max_str_digits() + 1)
        with pytest.raises(DiagramError, match="out of range"):
            Diagram((huge,), frozenset({(0, 1)}))
        with pytest.raises(DiagramError, match="out of range"):
            Diagram((4,), frozenset({(1, huge)}))

    def test_shared_endpoint(self):
        with pytest.raises(DiagramError):
            Diagram((4,), frozenset({(1, 3), (2, 3)}))

    def test_planted_needs_rainbows(self):
        with pytest.raises(DiagramError, match="rainbow"):
            Diagram((4,), frozenset({(1, 3)}), planted=True)

    def test_backbone_of(self):
        d = Diagram((2, 3), frozenset())
        assert [d.backbone_of(v) for v in range(1, 6)] == [0, 0, 1, 1, 1]


class TestPlant:
    def test_crossing_pair(self):
        d = Diagram((4,), frozenset({(1, 3), (2, 4)}))
        p = plant(d)
        assert p.backbone_lengths == (6,)
        assert p.arcs == {(1, 6), (2, 4), (3, 5)}
        assert p.planted

    def test_two_backbones(self):
        d = Diagram((1, 1), frozenset({(1, 2)}))
        p = plant(d)
        assert p.backbone_lengths == (3, 3)
        assert p.arcs == {(1, 3), (4, 6), (2, 5)}

    def test_plant_preserves_genus_of_crossing(self):
        d = Diagram((4,), frozenset({(1, 3), (2, 4)}))
        assert genus(d) == genus(plant(d)) == 1

    def test_already_planted(self):
        p = plant(Diagram((2,), frozenset()))
        with pytest.raises(DiagramError, match="already planted"):
            plant(p)

    def test_strip_requires_planted(self):
        with pytest.raises(DiagramError):
            strip_plants(Diagram((4,), frozenset({(1, 3)})))

    def test_strip_rejects_rainbow_only_backbone(self):
        p = Diagram((2,), frozenset({(1, 2)}), planted=True)
        with pytest.raises(DiagramError, match="rainbow-only"):
            strip_plants(p)

    @pytest.mark.parametrize(
        "d",
        [
            Diagram((4,), frozenset({(1, 3), (2, 4)})),
            Diagram((1, 1), frozenset({(1, 2)})),
            Diagram((3, 2), frozenset({(1, 4), (2, 3)})),
        ],
    )
    def test_strip_inverts_plant(self, d):
        assert strip_plants(plant(d)) == d


class TestConnectivity:
    def test_exterior_arc_connects(self):
        assert is_connected(Diagram((2, 2), frozenset({(1, 4), (2, 3)})))

    def test_internal_arcs_disconnect(self):
        assert not is_connected(Diagram((2, 2), frozenset({(1, 2), (3, 4)})))

    def test_one_backbone_always_connected(self):
        assert is_connected(Diagram((5,), frozenset()))
        assert is_connected(Diagram((4,), frozenset({(2, 3)})))

    def test_components_split(self):
        d = Diagram((2, 2), frozenset({(1, 2), (3, 4)}))
        parts = components(d)
        assert len(parts) == 2
        assert all(p == Diagram((2,), frozenset({(1, 2)})) for p in parts)

    def test_components_connected_is_singleton(self):
        d = Diagram((2, 2), frozenset({(1, 4), (2, 3)}))
        assert components(d) == [d]

    def test_components_of_shape_pair_have_genus_one(self):
        one = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}), planted=True)
        pair = disjoint_union(one, one)
        parts = components(pair)
        assert [genus(p) for p in parts] == [1, 1]


class TestCanonicalCode:
    def test_distinct_diagrams_distinct_codes(self):
        ds = [
            Diagram((4,), frozenset({(1, 3), (2, 4)})),
            Diagram((4,), frozenset({(1, 4), (2, 3)})),
            Diagram((2, 2), frozenset({(1, 4), (2, 3)})),
        ]
        codes = {canonical_code(d) for d in ds}
        assert len(codes) == 3

    def test_code_roundtrip(self):
        d = Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}))
        assert diagram_from_code(canonical_code(d)) == d

    def test_stable(self):
        d = Diagram((4,), frozenset({(2, 4), (1, 3)}))
        assert canonical_code(d) == "4|1-3 2-4"


class TestIntervals:
    def test_stacked_duplex(self):
        d = Diagram((2, 2), frozenset({(1, 4), (2, 3)}))
        assert interval_kinds(d) == [P, G, P]

    def test_crossing_no_stacks(self):
        d = Diagram((4,), frozenset({(1, 3), (2, 4)}))
        assert interval_kinds(d) == [S, S, S]

    def test_shape_sigma_count(self):
        # a shape with l non-rainbow arcs exposes exactly 2l+2 sigma intervals
        d = Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}), planted=True)
        kinds = interval_kinds(d)
        assert kinds.count(S) == 4
        assert kinds.count(G) == 1

    def test_longer_stack_p_intervals(self):
        d = Diagram((6,), frozenset({(1, 6), (2, 5), (3, 4)}))
        assert interval_kinds(d) == [P, P, S, P, P]

    def test_maximal_stacks(self):
        d = Diagram((6,), frozenset({(1, 6), (2, 5), (3, 4)}))
        assert maximal_stacks(d) == [[(1, 6), (2, 5), (3, 4)]]


@settings(max_examples=150)
@given(diagram_strategy())
def test_parse_serialize_identity(d):
    assert parse_diagram(serialize_diagram(d)) == d


@settings(max_examples=150)
@given(diagram_strategy())
def test_plant_strip_identity(d):
    p = plant(d)
    assert p.n_arcs == d.n_arcs + d.b
    assert p.n_vertices == d.n_vertices + 2 * d.b
    assert strip_plants(p) == d


@settings(max_examples=150)
@given(diagram_strategy())
def test_interval_gap_count(d):
    assert interval_kinds(d).count(G) == d.b - 1


@settings(max_examples=150)
@given(diagram_strategy())
def test_components_partition_arcs(d):
    parts = components(d)
    assert sum(p.n_arcs for p in parts) == d.n_arcs
    assert sum(p.n_vertices for p in parts) == d.n_vertices
    assert sorted(l for p in parts for l in p.backbone_lengths) == sorted(
        d.backbone_lengths
    )
    assert len(parts) == 1 if is_connected(d) else len(parts) > 1


@settings(max_examples=500)
@given(fuzz_text)
def test_parse_returns_diagram_or_parse_error(text):
    try:
        d = parse_diagram(text)
    except ParseError:
        return
    assert isinstance(d, Diagram)
