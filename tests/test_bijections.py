from __future__ import annotations

from functools import partial
from itertools import chain

import pytest

from chordshapes import (
    BijectionDomainError,
    ConsistencyError,
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
from chordshapes import bijections
from chordshapes.bijections import _eta, _eta_inv, _theta, _theta_inv
from chordshapes.enumeration import _search

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

    @pytest.mark.parametrize("fn", [theta, theta_inv, eta, eta_inv, shape_class])
    @pytest.mark.parametrize(
        "diagram",
        [
            Diagram((4,), frozenset({(1, 3), (2, 4)})),
            Diagram((3,), frozenset()),
        ],
        ids=["crossing", "no-arcs"],
    )
    def test_no_rainbows_is_a_domain_error(self, fn, diagram):
        # outermost arcs that are not rainbows put the input outside the
        # domain; no planted copy is built to fail with a DiagramError
        with pytest.raises(BijectionDomainError):
            fn(diagram)


class TestOutputCheck:
    """Each surgery checks its output once; a checker made to misread a
    valid output must make every family's check fire."""

    @pytest.mark.parametrize(
        "fn, diagram, name, fake, family",
        [
            (theta, SHAPE_4A, "_class_of", ShapeClass.A, "B-shape"),
            (theta_inv, SHAPE_3B, "_class_of", ShapeClass.B, "A-shape"),
            (eta, Q3, "_class_of", ShapeClass.B, "A-shape"),
            (eta_inv, SHAPE_4A, "is_shape", False, "two-backbone shape"),
        ],
        ids=["theta", "theta_inv", "eta", "eta_inv"],
    )
    def test_output_outside_family_raises(
        self, monkeypatch, fn, diagram, name, fake, family
    ):
        fn(diagram)  # the real check passes
        monkeypatch.setattr(bijections, name, lambda d: fake)
        with pytest.raises(ConsistencyError, match=f"^surgery left the {family} family$"):
            fn(diagram)


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


def forward_build(n: int) -> int:
    """Build the genus-3 one-backbone shapes of n arcs forward from Q'_2,
    the two-backbone genus-2 shapes with the disconnected pairs: eta on
    its (n - 1)-arc shapes gives the A-shapes, and theta after eta on its
    n-arc shapes the B-shapes.  Each entry must invert, and the images
    must be the kernel's list; returns how many there are.  Both sides
    are listed through the driver's arc window, with the face-side
    budget of each family's top arc count (16 and 17).  A shape is kept
    as its arcs packed into bytes, not as a ``Diagram``, so 9 arcs
    (198,451 shapes) fit in a small heap:

        PYTHONPATH=src:tests python -c \
            'from test_bijections import forward_build; print(forward_build(9))'
    """

    def packed(arcs) -> bytes:
        return bytes(chain.from_iterable(sorted(arcs)))

    images = []

    def build(lengths, arcs, b_shape):
        q = Diagram(lengths, frozenset(arcs), planted=True)
        a = _eta(q)
        assert _eta_inv(a) == q
        if b_shape:
            b = _theta(a)
            assert _theta_inv(b) == a
            a = b
        images.append(packed(a.arcs))

    for m in (n - 1, n):
        _search(2, m, m, (2, 2), False, 16, partial(build, b_shape=m == n), None)
    genus_three = []
    _search(
        1, n, n, (3, 3), True, 17,
        lambda lengths, arcs: genus_three.append(packed(arcs)), None,
    )
    images.sort()
    assert images == genus_three
    return len(images)


class TestGenusTwoExhaustive:
    def test_theta_eta_maps_q2_prime_onto_genus_three(self):
        # Q'_2 starts at 7 arcs, so at 7 arcs every genus-3 shape is a
        # B-shape; a pair of genus-1 and genus-2 shapes needs 8 arcs
        assert forward_build(7) == S3[7] == 1485
        assert forward_build(8) == S3[8] == 26928
