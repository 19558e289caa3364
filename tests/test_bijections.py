from __future__ import annotations

import pytest

from chordshapes import (
    BijectionDomainError,
    Diagram,
    Shape,
    ShapeClass,
    as_shape,
    canonical_code,
    classify_loops,
    eta,
    eta_inv,
    is_connected,
    is_shape,
    project_shape,
    shape_class,
    theta,
    theta_inv,
)
from chordshapes.bijections import _eta, _eta_inv, _theta, _theta_inv
from chordshapes.enumeration import _search_split

from conftest import disjoint_union
from test_series import Q2, S3
from test_shapes import SHAPE_3B, SHAPE_4A, SHAPE_4B, SHAPE_5A

Q3 = Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}), planted=True)
Q4 = Diagram((4, 4), frozenset({(1, 4), (5, 8), (2, 6), (3, 7)}), planted=True)

# planted perfect matchings whose only flaw is a stacked pair: (2, 6) over
# (3, 5) on one backbone, (2, 9) over (3, 8) across two
STACKED_1BB = Diagram(
    (8,), frozenset({(1, 8), (2, 6), (3, 5), (4, 7)}), planted=True
)
STACKED_2BB = Diagram(
    (4, 8),
    frozenset({(1, 4), (5, 12), (2, 9), (3, 8), (6, 10), (7, 11)}),
    planted=True,
)
# the one-backbone projection with no arc left but the rainbow, a 1-arc
RAINBOW_1BB = project_shape(Diagram((1,), frozenset())).diagram


class TestDomain:
    """The public surgeries check their input, also when it comes wrapped
    in a hand-built Shape that was never validated."""

    def test_fixtures_are_non_shapes(self):
        assert not is_shape(STACKED_1BB)
        assert not is_shape(STACKED_2BB)
        assert not is_shape(RAINBOW_1BB)

    @pytest.mark.parametrize(
        "fn, diagram",
        [
            (theta, STACKED_1BB),
            (theta_inv, STACKED_1BB),
            (eta_inv, STACKED_1BB),
            (eta, STACKED_2BB),
            (shape_class, RAINBOW_1BB),
            (theta, RAINBOW_1BB),
            (theta_inv, RAINBOW_1BB),
            (eta_inv, RAINBOW_1BB),
        ],
    )
    def test_hand_built_non_shape(self, fn, diagram):
        with pytest.raises(BijectionDomainError):
            fn(Shape(diagram=diagram, genus=1))

    @pytest.mark.parametrize(
        "fn, diagram",
        [
            (theta, SHAPE_4B),
            (theta_inv, SHAPE_5A),
            (eta_inv, SHAPE_3B),
            (eta, SHAPE_4A),  # one backbone where eta needs two
            (shape_class, RAINBOW_1BB),
            (theta, RAINBOW_1BB),
            (theta_inv, RAINBOW_1BB),
            (eta_inv, RAINBOW_1BB),
        ],
    )
    def test_wrong_class_as_unplanted_diagram(self, fn, diagram):
        # a plain Diagram is planted by the surgery, then checked
        with pytest.raises(BijectionDomainError):
            fn(Diagram(diagram.backbone_lengths, diagram.arcs))


class TestTheta:
    def test_four_arc_a_to_three_arc_b(self):
        out = theta(as_shape(SHAPE_4A))
        assert out.diagram == SHAPE_3B
        assert out.genus == 1

    def test_five_arc_a_to_four_arc_b(self):
        out = theta(as_shape(SHAPE_5A))
        assert out.diagram == SHAPE_4B

    def test_arc_count_drops_by_one(self):
        for d in (SHAPE_4A, SHAPE_5A):
            s = as_shape(d)
            assert theta(s).n_arcs == s.n_arcs - 1

    def test_rejects_b_shapes(self):
        with pytest.raises(BijectionDomainError):
            theta(as_shape(SHAPE_3B))

    def test_inverse_roundtrips(self):
        for d in (SHAPE_4A, SHAPE_5A):
            s = as_shape(d)
            assert theta_inv(theta(s)).diagram == s.diagram
        for d in (SHAPE_3B, SHAPE_4B):
            s = as_shape(d)
            assert theta(theta_inv(s)).diagram == s.diagram

    def test_theta_inv_rejects_a_shapes(self):
        with pytest.raises(BijectionDomainError):
            theta_inv(as_shape(SHAPE_4A))

    def test_rejects_non_shapes(self):
        with pytest.raises(BijectionDomainError):
            theta(Diagram((4,), frozenset({(1, 4), (2, 3)}), planted=True))


class TestEta:
    def test_genus_zero_shape_to_four_arc_a(self):
        out = eta(as_shape(Q3))
        assert out.diagram == SHAPE_4A
        assert out.genus == 1

    def test_four_arc_shape_to_five_arc_a(self):
        out = eta(as_shape(Q4))
        assert out.diagram == SHAPE_5A

    def test_bookkeeping(self):
        for d in (Q3, Q4):
            s = as_shape(d)
            out = eta(s)
            assert out.genus == s.genus + 1
            assert out.n_arcs == s.n_arcs + 1
            assert shape_class(out) is ShapeClass.A

    def test_multiloop_count_increases_by_one(self):
        for d in (Q3, Q4):
            assert classify_loops(eta(as_shape(d)).diagram).multi == (
                classify_loops(d).multi + 1
            )

    def test_inverse_roundtrips(self):
        for d in (Q3, Q4):
            assert eta_inv(eta(as_shape(d))) == d
        for d in (SHAPE_4A, SHAPE_5A):
            assert eta(as_shape(eta_inv(as_shape(d)))).diagram == d

    def test_disconnected_pair_maps_to_genus_two(self):
        pair = disjoint_union(SHAPE_3B, SHAPE_3B)
        s = as_shape(pair)
        assert s.genus == 1  # formal genus of two genus-1 components
        out = eta(s)
        assert out.genus == 2
        assert out.n_arcs == 7
        assert shape_class(out) is ShapeClass.A
        back = eta_inv(out)
        assert back == pair
        assert not is_connected(back)

    def test_connectivity_transfers(self):
        assert is_connected(eta_inv(eta(as_shape(Q3))))
        pair = disjoint_union(SHAPE_3B, SHAPE_4A)
        assert not is_connected(eta_inv(eta(as_shape(pair))))

    def test_rejects_one_backbone_input(self):
        with pytest.raises(BijectionDomainError):
            eta(as_shape(SHAPE_3B))

    def test_eta_inv_rejects_b_shapes(self):
        with pytest.raises(BijectionDomainError):
            eta_inv(as_shape(SHAPE_4B))

    def test_rejects_non_shape_two_backbone(self):
        d = Diagram((3, 3), frozenset({(1, 3), (4, 6), (2, 5)}))
        stacked = Diagram((4, 4), frozenset({(1, 4), (2, 3), (5, 8), (6, 7)}), planted=True)
        assert eta(as_shape(d)) is not None  # valid without explicit planting
        with pytest.raises(BijectionDomainError):
            eta(stacked)


class TestGenusOneExhaustive:
    def test_theta_pairs_up_the_genus_one_family(self, shape_sets):
        shapes = shape_sets(1, 1)
        a_shapes = [s for s in shapes if shape_class(s) is ShapeClass.A]
        b_shapes = [s for s in shapes if shape_class(s) is ShapeClass.B]
        images = {canonical_code(theta(s).diagram) for s in a_shapes}
        assert images == {canonical_code(s.diagram) for s in b_shapes}

    def test_eta_matches_q0_to_a1(self, shape_sets):
        q0 = shape_sets(2, 0)
        a1 = [s for s in shape_sets(1, 1) if shape_class(s) is ShapeClass.A]
        images = {canonical_code(eta(s).diagram) for s in q0}
        assert images == {canonical_code(s.diagram) for s in a1}


class TestGenusTwoExhaustive:
    def test_theta_eta_maps_q2_prime_onto_genus_three(self):
        # the 7-arc shapes of Q'_2 go through eta and then theta onto every
        # 7-arc shape of genus 3.  The kernel lists both sides on every
        # split, with the face-side budget of each family's top arc count
        # (16 and 17); Q'_2's disconnected pairs are searched too, though
        # a pair of genus-1 and genus-2 shapes needs 8 arcs
        q_prime = []
        for k in range(1, 14):
            lengths = (k, 14 - k)
            _search_split(
                lengths, 2, 2, False,
                lambda arcs, lengths=lengths: q_prime.append(
                    Diagram(lengths, frozenset(arcs), planted=True)
                ),
                None, 16 - 7,
            )
        genus_three = []
        _search_split(
            (14,), 3, 3, True,
            lambda arcs: genus_three.append(
                Diagram((14,), frozenset(arcs), planted=True)
            ),
            None, 17 - 7,
        )
        assert len(q_prime) == Q2[7] == len(genus_three) == S3[7] == 1485
        images = set()
        for q in q_prime:
            a = _eta(q)
            b = _theta(a)
            assert _eta_inv(a) == q
            assert _theta_inv(b) == a
            images.add(b)
        assert images == set(genus_three)
