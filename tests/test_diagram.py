from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordshapes import (
    Diagram,
    DiagramError,
    ParseError,
    canonical_code,
    diagram_from_code,
    genus,
    is_connected,
    parse_diagram,
    plant,
    serialize_diagram,
)

from conftest import (
    backbone_index,
    components,
    diagram_strategy,
    disjoint_union,
    fuzz_text,
    strip_plants,
)


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

    # str(ParseError) for malformed arc lines, as the regex-based scan of
    # earlier versions produced it
    @pytest.mark.parametrize(
        "text, message",
        [
            ("4\n1-2-3", "line 2, column 1: malformed arc token '1-2-3'"),
            ("4\n-1-2", "line 2, column 1: malformed arc token '-1-2'"),
            ("4\n1-", "line 2, column 1: malformed arc token '1-'"),
            ("4\na-2", "line 2, column 1: malformed arc token 'a-2'"),
            ("4\n1--2", "line 2, column 1: malformed arc token '1--2'"),
            ("4\n1-2 3-", "line 2, column 5: malformed arc token '3-'"),
            # a superscript two is a digit but not a decimal digit
            ("4\n1-\u00b2", "line 2, column 1: malformed arc token '1-\u00b2'"),
            # Arabic-Indic one and five are decimal digits: they parse
            (
                "4\n\u0661-\u0665",
                "line 2, column 1: arc endpoint out of range 1..4"
                " in '\u0661-\u0665'",
            ),
            ("4\n2-2", "line 2, column 1: self-pairing '2-2'"),
            ("4\n1-5", "line 2, column 1: arc endpoint out of range 1..4 in '1-5'"),
            ("4\n0-1", "line 2, column 1: arc endpoint out of range 1..4 in '0-1'"),
            (
                "6\n1-3 1-5",
                "line 2, column 5: vertex 1 already paired (arc token '1-5')",
            ),
            (
                "6\n1-3 5-3",
                "line 2, column 5: vertex 3 already paired (arc token '5-3')",
            ),
            (
                "6\n1-3 2-3",
                "line 2, column 5: vertex 3 already paired (arc token '2-3')",
            ),
            (
                "2 2\n1-4   4-2",
                "line 2, column 7: vertex 4 already paired (arc token '4-2')",
            ),
            # a repeated arc, in either order, is a reuse of its first vertex
            (
                "4\n1-2 1-2",
                "line 2, column 5: vertex 1 already paired (arc token '1-2')",
            ),
            (
                "4\n1-2 2-1",
                "line 2, column 5: vertex 1 already paired (arc token '2-1')",
            ),
            # the first bad token is named, whatever is wrong with a later one
            ("4\n1-9 a-b", "line 2, column 1: arc endpoint out of range 1..4 in '1-9'"),
        ],
    )
    def test_arc_error_messages(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_diagram(text)
        assert str(e.value) == message

    # a "|" ends one part of a line, and its comment: columns count from
    # the start of the line, across it
    @pytest.mark.parametrize(
        "text, message",
        [
            ("4|1-3 2-x", "line 1, column 7: malformed arc token '2-x'"),
            (
                "4 0|1-2",
                "line 1, column 3: backbone length '0' is not a positive integer",
            ),
            ("4|1-2|3-4", "line 1, column 7: unexpected extra line"),
            (
                "# c|4 |  1-5",
                "line 1, column 10: arc endpoint out of range 1..4 in '1-5'",
            ),
            ("\n4 # x|1-2 3-3", "line 2, column 11: self-pairing '3-3'"),
        ],
    )
    def test_positions_read_across_bars(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_diagram(text)
        assert str(e.value) == message
        assert reference_parse(text) == message

    def test_non_ascii_decimal_digits_parse(self):
        d = parse_diagram("4 \u0663\n\uff11-\uff12 \u0663-\u0665")
        assert d == Diagram((4, 3), frozenset({(1, 2), (3, 5)}))
        # tab, no-break space and em space separate tokens as a space does
        for sep in ("\t", "\u00a0", "\u2003"):
            text = f"4{sep}3\n{sep}1-2{sep}3-5{sep}"
            assert parse_diagram(text) == parse_diagram("4 3\n 1-2 3-5 ")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter puts no limit on integer digits",
    )
    def test_arc_digit_limit_messages(self):
        # the first side past the limit is the one named
        limit = sys.get_int_max_str_digits()
        long1, long2 = "9" * (limit + 1), "9" * (limit + 2)
        for text, message in [
            (f"4\n1-{long2}", f"line 2, column 1: number of {limit + 2} digits"),
            (f"4\n{long1}-1", f"line 2, column 1: number of {limit + 1} digits"),
            (f"4\n{long1}-{long2}", f"line 2, column 1: number of {limit + 1} digits"),
            (f"4\n{long2}-{long1}", f"line 2, column 1: number of {limit + 2} digits"),
            (f"4\n1-3 2-{long1}", f"line 2, column 5: number of {limit + 1} digits"),
        ]:
            with pytest.raises(ParseError) as e:
                parse_diagram(text)
            assert str(e.value) == message + " is too long"

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

    def test_no_backbone(self):
        with pytest.raises(DiagramError, match="at least one backbone"):
            Diagram((), frozenset())

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

    def test_non_integers_refused(self):
        # these were once truncated to ((4,), {(1, 3), (2, 4)})
        with pytest.raises(DiagramError, match="integers"):
            Diagram((4.7,), frozenset({(1.9, 3.2), (2.5, 4.99)}))
        with pytest.raises(DiagramError, match="integers"):
            Diagram((4,), frozenset({(1.0, 3), (2, 4)}))
        with pytest.raises(DiagramError, match="integers"):
            Diagram((True, 3), frozenset())

    def test_planted_needs_rainbows(self):
        with pytest.raises(DiagramError, match="rainbow"):
            Diagram((4,), frozenset({(1, 3)}), planted=True)

    @pytest.mark.parametrize(
        "lengths, arcs",
        [
            ((4,), frozenset({(1, 2, 3)})),  # an arc of three endpoints
            ((4,), {1}),  # an arc that is not a pair
            (5, frozenset()),  # lengths that are not a collection
            (None, frozenset()),
        ],
    )
    def test_malformed_arguments_refused(self, lengths, arcs):
        with pytest.raises(DiagramError):
            Diagram(lengths, arcs)


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
@given(diagram_strategy(max_backbones=4))
def test_plant_matches_per_backbone_offsets(d):
    # the vertices of backbone k move right by 2k + 1: past its own left
    # rainbow end and both ends of every rainbow before it
    k = backbone_index(d)
    arcs = {(i + 2 * k[i] + 1, j + 2 * k[j] + 1) for i, j in d.arcs}
    start = 1
    for l in d.backbone_lengths:
        arcs.add((start, start + l + 1))
        start += l + 2
    lengths = tuple(l + 2 for l in d.backbone_lengths)
    assert plant(d) == Diagram(lengths, frozenset(arcs), planted=True)


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


def reference_parse(text: str) -> Diagram | str:
    """The text format read token by token, written apart from the
    package's parser: the diagram, or the message of the ParseError that
    its first bad line or token raises."""
    # the parts between "|"s that hold more than a comment, each with its
    # line and the index in that line where it starts
    significant = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        for part in re.finditer(r"[^|]+", raw):
            body = part.group(0).split("#", 1)[0]
            if body.strip():
                significant.append((lineno, part.start(), body))
    if not significant:
        return "line 1, column 1: no backbone-length line"
    if len(significant) > 2:
        lineno, start, _ = significant[2]
        return f"line {lineno}, column {start + 1}: unexpected extra line"
    lineno, start, body = significant[0]
    lengths = []
    for m in re.finditer(r"\S+", body):
        tok = m.group(0)
        if not (tok.isdecimal() and int(tok) > 0):
            return (
                f"line {lineno}, column {start + m.start() + 1}:"
                f" backbone length {tok!r} is not a positive integer"
            )
        lengths.append(int(tok))
    arcs = set()
    used = set()
    for lineno, start, body in significant[1:]:
        for m in re.finditer(r"\S+", body):
            tok = m.group(0)
            where = f"line {lineno}, column {start + m.start() + 1}: "
            a, dash, b = tok.partition("-")
            if not (dash and a.isdecimal() and b.isdecimal()):
                return where + f"malformed arc token {tok!r}"
            i, j = sorted((int(a), int(b)))
            if i == j:
                return where + f"self-pairing {tok!r}"
            if not 1 <= i < j <= sum(lengths):
                return where + (
                    f"arc endpoint out of range 1..{sum(lengths)} in {tok!r}"
                )
            if i in used or j in used:
                v = i if i in used else j
                return where + f"vertex {v} already paired (arc token {tok!r})"
            used.update((i, j))
            arcs.add((i, j))
    return Diagram(tuple(lengths), frozenset(arcs))


@settings(max_examples=500)
@given(
    st.one_of(
        fuzz_text,
        # separators and digits past ASCII, and repeated arcs
        st.text(alphabet="0123-| \n\t\u00a0\u2003\u0663\u00b2", max_size=40),
        st.lists(st.sampled_from(["1-2", "2-1", "1-3", "3-4", "4-2"]), max_size=5)
        .map(lambda toks: "4\n" + " ".join(toks)),
    )
)
def test_parse_returns_diagram_or_parse_error(text):
    expected = reference_parse(text)
    try:
        d = parse_diagram(text)
    except ParseError as e:
        assert str(e) == expected
        return
    assert d == expected
