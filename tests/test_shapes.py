from __future__ import annotations

import pytest
from hypothesis import given, settings

from chordshapes import (
    Diagram,
    DiagramError,
    ShapeClass,
    as_shape,
    canonical_code,
    genus,
    is_shape,
    plant,
    project_shape,
    shape_class,
    strip_plants,
)
from chordshapes.shapes import reduce_planted

from conftest import diagram_strategy, matching_strategy

# the four one-backbone shapes of genus 1, hand-checked boundary traces
SHAPE_3B = Diagram((6,), frozenset({(1, 6), (2, 4), (3, 5)}), planted=True)
SHAPE_4A = Diagram((8,), frozenset({(1, 8), (2, 4), (3, 6), (5, 7)}), planted=True)
SHAPE_4B = Diagram((8,), frozenset({(1, 8), (2, 5), (3, 6), (4, 7)}), planted=True)
SHAPE_5A = Diagram(
    (10,), frozenset({(1, 10), (2, 5), (3, 7), (4, 8), (6, 9)}), planted=True
)


class TestProjection:
    def test_stem_loop_collapses_to_rainbow_only(self):
        s = project_shape(Diagram((6,), frozenset({(1, 6), (2, 5), (3, 4)})))
        assert s.empty_pure_preshape
        assert s.genus == 0
        assert s.diagram == Diagram((2,), frozenset({(1, 2)}), planted=True)

    def test_crossing_pair_is_already_reduced(self):
        s = project_shape(Diagram((4,), frozenset({(1, 3), (2, 4)})))
        assert s.diagram == SHAPE_3B
        assert s.genus == 1
        assert not s.empty_pure_preshape

    def test_gap_spanning_arc_survives(self):
        s = project_shape(Diagram((1, 1), frozenset({(1, 2)})))
        assert s.diagram == Diagram(
            (3, 3), frozenset({(1, 3), (4, 6), (2, 5)}), planted=True
        )
        assert s.genus == 0

    def test_rainbow_absorbs_outer_stack(self):
        # the planted copy of this matching stacks each exterior run onto a
        # rainbow, so projection must collapse into the plants
        m = Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}))
        s = project_shape(m)
        assert canonical_code(s.diagram) == "3 3|1-3 2-5 4-6"
        assert s.genus == 0

    def test_isolated_vertices_removed(self):
        s = project_shape(Diagram((6,), frozenset({(2, 4), (3, 5)})))
        assert s.diagram == SHAPE_3B

    def test_isolated_gap_makes_one_arc(self):
        # after dropping the lone vertex, (1,3) becomes a 1-arc and dies
        s = project_shape(Diagram((4,), frozenset({(1, 3)})))
        assert s.empty_pure_preshape

    def test_planted_input_rejected(self):
        with pytest.raises(DiagramError):
            project_shape(plant(Diagram((2,), frozenset())))

    def test_projection_preserves_genus_examples(self):
        for d in (
            Diagram((4,), frozenset({(1, 3), (2, 4)})),
            Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)})),
            Diagram((8,), frozenset({(1, 5), (2, 6), (3, 7), (4, 8)})),
        ):
            assert project_shape(d).genus == genus(plant(d))


class TestPredicate:
    def test_planted_crossing_is_shape(self):
        assert is_shape(SHAPE_3B)

    def test_planted_nested_pair_is_not(self):
        assert not is_shape(plant(Diagram((4,), frozenset({(1, 4), (2, 3)}))))

    def test_unpaired_vertex_is_not(self):
        d = Diagram((7,), frozenset({(1, 7), (2, 4), (3, 5)}))
        assert not is_shape(d)

    def test_rainbow_only_fails_strict_predicate(self):
        assert not is_shape(Diagram((2,), frozenset({(1, 2)}), planted=True))

    def test_missing_rainbow_fails(self):
        assert not is_shape(Diagram((4,), frozenset({(1, 3), (2, 4)})))

    def test_as_shape_validates(self):
        s = as_shape(Diagram(SHAPE_3B.backbone_lengths, SHAPE_3B.arcs))
        assert s.diagram.planted and s.genus == 1
        with pytest.raises(DiagramError):
            as_shape(Diagram((4,), frozenset({(1, 4), (2, 3)})))

    def test_as_shape_degenerate_flag(self):
        rainbow_only = Diagram((2,), frozenset({(1, 2)}), planted=True)
        with pytest.raises(DiagramError):
            as_shape(rainbow_only)
        s = project_shape(Diagram((1,), frozenset()))
        assert s.diagram == rainbow_only
        assert s.empty_pure_preshape


class TestShapeClass:
    def test_known_classes(self):
        assert shape_class(as_shape(SHAPE_3B)) is ShapeClass.B
        assert shape_class(as_shape(SHAPE_4A)) is ShapeClass.A
        assert shape_class(as_shape(SHAPE_4B)) is ShapeClass.B
        assert shape_class(as_shape(SHAPE_5A)) is ShapeClass.A

    def test_genus_one_census(self, shape_sets):
        by_class = {}
        for s in shape_sets(1, 1):
            by_class.setdefault(shape_class(s), []).append(s.n_arcs)
        assert sorted(by_class[ShapeClass.A]) == [4, 5]
        assert sorted(by_class[ShapeClass.B]) == [3, 4]

    def test_rainbow_only_has_no_class(self):
        s = project_shape(Diagram((1,), frozenset()))
        with pytest.raises(DiagramError):
            shape_class(s)

    def test_two_backbones_have_no_class(self):
        s = as_shape(Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)})))
        with pytest.raises(DiagramError):
            shape_class(s)


class TestIdempotence:
    def test_projecting_stripped_shapes(self, shape_sets):
        for s in shape_sets(1, 1) + shape_sets(2, 0):
            again = project_shape(strip_plants(s.diagram))
            assert again.diagram == s.diagram
            assert again.genus == s.genus

    def test_reduce_is_fixpoint(self, shape_sets):
        for s in shape_sets(1, 1):
            assert reduce_planted(s.diagram) == s.diagram

    def test_reduce_rejects_unplanted(self):
        # a caller error, so it holds under python -O too
        with pytest.raises(DiagramError, match="planted"):
            reduce_planted(Diagram((4,), frozenset({(1, 4), (2, 3)})))


@settings(max_examples=100)
@given(diagram_strategy(max_vertices=10))
def test_projection_preserves_genus(d):
    assert project_shape(d).genus == genus(plant(d))


@settings(max_examples=100)
@given(diagram_strategy(max_vertices=10))
def test_projection_output_is_reduced(d):
    s = project_shape(d)
    assert reduce_planted(s.diagram) == s.diagram
    assert s.n_arcs >= s.b


@settings(max_examples=100)
@given(diagram_strategy(max_vertices=10))
def test_reduction_confluence(d):
    p = plant(d)
    assert reduce_planted(p) == reduce_planted(p, delete_first=True)


@settings(max_examples=100)
@given(matching_strategy(max_arcs=4))
def test_projection_of_matchings(d):
    s = project_shape(d)
    assert s.genus == genus(d)  # plant preserves genus, reduction too
    if not s.empty_pure_preshape:
        # every backbone keeps its rainbow
        for st, e in s.diagram.bounds:
            assert (st, e) in s.diagram.arcs
