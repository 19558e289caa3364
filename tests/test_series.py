from __future__ import annotations

from fractions import Fraction
from hashlib import sha256
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from chordshapes import (
    ConsistencyError,
    DiagramError,
    InfeasibleError,
    IntPolynomial,
    PowerSeries,
    a_shape_poly,
    b_shape_poly,
    fiber_gf,
    kappa,
    shape_poly_1bb,
    shape_poly_2bb,
    w_gf,
)
from chordshapes import series

# all fifteen tabulated kappa values, keyed (g, t) with 1 <= t <= g
KAPPA_TABLE = {
    (1, 1): 1,
    (2, 1): 21,
    (2, 2): 105,
    (3, 1): 1485,
    (3, 2): 18018,
    (3, 3): 50050,
    (4, 1): 225225,
    (4, 2): 4660227,
    (4, 3): 29099070,
    (4, 4): 56581525,
    (5, 1): 59520825,
    (5, 2): 1804142340,
    (5, 3): 18472089636,
    (5, 4): 78082504500,
    (5, 5): 117123756750,
}

S1 = {3: 1, 4: 2, 5: 1}
S2 = {5: 21, 6: 189, 7: 651, 8: 1134, 9: 1071, 10: 525, 11: 105}
S3 = {
    7: 1485,
    8: 26928,
    9: 198451,
    10: 808478,
    11: 2054305,
    12: 3442340,
    13: 3883363,
    14: 2928926,
    15: 1419418,
    16: 400400,
    17: 50050,
}
Q0 = {3: 1, 4: 1}
Q1 = {5: 21, 6: 167, 7: 479, 8: 645, 9: 416, 10: 104}
Q2 = {
    7: 1485,
    8: 25401,
    9: 172546,
    10: 633370,
    11: 1413585,
    12: 2015525,
    13: 1852256,
    14: 1064616,
    15: 348880,
    16: 49840,
}


# SHA-256 of ",".join(map(str, w_gf(g, 400).coeffs)), computed by adding
# one fiber series per shape arc count, independently of w_gf
W_400_SHA256 = {
    0: "cec06172567adc90be3df48b6ecae462c7b949e40581284305af39cf4614d7cc",
    1: "16abd98d9c35a141389f371fa9d9bf05695e5e6b603b36ccdb18a547736bf8f4",
    2: "c172f27bcf71a8e527f72805b8476e122df2a44f51f0e314acfe69eecf63d422",
}

# SHA-256 of ",".join(map(str, fiber_gf(300, 400).coeffs)), computed when
# each binomial coefficient of (y - 1)^300 multiplied every term of its
# y^(j+2) series
FIBER_300_400_SHA256 = (
    "1f4fc60d75505983aee81ab1ce48ce5456084908f1b2d58b185c52f68edabbdc"
)

# SHA-256 of ",".join(map(str, shape_poly_2bb(g).coeffs)), computed when
# Q_g was still formed as S_{g+1}/(1+z) minus the S_i S_{g+1-i} products
Q_SHA256 = {
    50: "a5806939bd33b7f02425b84424e9cb9d76731bfb2ee4e8a8affe2796f870f01e",
    100: "4c39ede818de30a63b88d33f686579d95ecf2bd0663bd37817ec614d7eaebdf1",
}

ONE_PLUS_Z = (1, 1)


def poly_dict(p: IntPolynomial) -> dict[int, int]:
    return {k: c for k, c in enumerate(p.coeffs) if c}


def literal_fiber(l: int, order: int) -> tuple[int, ...]:
    """The paper's C^(2l+2) z^(l+2) (1 - z C^2)^-(l+2), term by term."""
    c = oracle.catalan(order)
    denom = oracle.sub(oracle.one(order), oracle.shift(oracle.mul(c, c), 1))
    fiber = oracle.mul(
        oracle.power(c, 2 * l + 2), oracle.power(oracle.inverse(denom), l + 2)
    )
    return oracle.shift(fiber, l + 2)


def literal_s(g: int, drop: int = 0) -> tuple[int, ...]:
    """sum_t kappa_t^(g) z^(2g+t) (1+z)^(2g+t-1-drop), term by term with
    binomials: S_g for drop = 0, S_g/(1+z) for drop = 1."""
    literal = [0] * (6 * g)
    for t in range(1, g + 1):
        k = 2 * g + t - 1 - drop
        for i in range(k + 1):
            literal[2 * g + t + i] += kappa(g, t) * comb(k, i)
    return tuple(literal)


@st.composite
def series_pair(draw, unit: bool = False):
    """Two series of one order (0-12) with signed, big and zero-run
    coefficients behind independently drawn runs of leading zeros; with
    ``unit`` the first has constant term +-1 instead."""
    order = draw(st.integers(0, 12))
    coeff = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**40), 10**40))

    def one() -> PowerSeries:
        lead = (0,) * draw(st.integers(0, order + 1))
        return PowerSeries(order, lead + tuple(draw(st.lists(coeff, max_size=order + 1))))

    first = one()
    if unit:
        c0 = draw(st.sampled_from((1, -1)))
        first = PowerSeries(order, (c0,) + first.coeffs[1:])
    return first, one()


class TestKappa:
    @pytest.mark.parametrize("key,value", sorted(KAPPA_TABLE.items()))
    def test_tabulated_values(self, key, value):
        assert kappa(*key) == value

    def test_zero_outside_range(self):
        assert kappa(3, 0) == 0
        assert kappa(3, 4) == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: kappa(0, 1),
            lambda: shape_poly_1bb(0),
            # these two once named shape_poly_1bb, which the caller never called
            lambda: a_shape_poly(0),
            lambda: b_shape_poly(0),
        ],
        ids=["kappa", "shape_poly_1bb", "a_shape_poly", "b_shape_poly"],
    )
    def test_rejects_nonpositive_genus(self, call):
        with pytest.raises(DiagramError, match="^genus must be >= 1$"):
            call()

    def test_genus_six_row(self):
        # as computed by the earlier top-down recursion
        assert [kappa(6, t) for t in range(1, 7)] == [
            24325703325,
            991857862125,
            14540747080860,
            98695170223650,
            315882771954750,
            386078943500250,
        ]

    def test_deep_genus_returns(self):
        # the recursion used to take one Python frame per genus, so
        # kappa(600, 1) raised RecursionError
        top = [kappa(600, t) for t in (1, 300, 600)]
        assert all(v > 0 for v in top)
        # with the row below, built on its own, the values satisfy
        # m kappa_t^(g) = (2m-3)(2m-5)((m-2) kappa_t^(g-1)
        #                 + 2(2m-7) kappa_{t-1}^(g-1)), m = 2g+t
        for t, v in zip((1, 300, 600), top):
            m = 1200 + t
            assert m * v == (2 * m - 3) * (2 * m - 5) * (
                (m - 2) * kappa(599, t) + 2 * (2 * m - 7) * kappa(599, t - 1)
            )

    def test_sizes_past_bound_refused(self):
        # genera and orders above 1000 are refused before any work; 1000
        # itself is accepted
        for call in (
            lambda: kappa(1001, 1),
            lambda: shape_poly_1bb(10**20),
            lambda: w_gf(1, 10**20),
            lambda: fiber_gf(1, 10**9),
            lambda: PowerSeries(1001, ()),
        ):
            with pytest.raises(InfeasibleError, match="above 1000"):
                call()
        # the g/2 products of R_g grow about as g^5, so two-backbone genera
        # have a lower bound, 250; an order below 2g + 3 still gives the
        # zero series at once
        for call in (
            lambda: shape_poly_2bb(251),
            lambda: shape_poly_2bb(1000),
            lambda: w_gf(251, 1000),
            lambda: w_gf(498, 1000),
        ):
            with pytest.raises(InfeasibleError, match="two-backbone genus above 250"):
                call()
        assert w_gf(498, 998) == PowerSeries(998, ())

    def test_log_concavity_up_to_genus_eight(self):
        for g in range(1, 9):
            row = [kappa(g, t) for t in range(1, g + 1)]
            for t in range(1, len(row) - 1):
                assert row[t] ** 2 >= row[t - 1] * row[t + 1]

    def test_inexact_recursion_raises(self, monkeypatch):
        # every entry is an exact quotient by m = 2g + t of terms of the
        # row below; a remainder raises (also under python -O), and the
        # first row built is g = 2
        monkeypatch.setattr(series, "divmod", lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(ConsistencyError, match="not divisible at g=2, t=1"):
            list(series._kappa_rows(2))


@pytest.mark.parametrize(
    "call, message",
    [
        # these five once raised an untyped TypeError
        (lambda: shape_poly_1bb("3"), "genus must be an integer"),
        (lambda: shape_poly_1bb(2.0), "genus must be an integer"),
        (lambda: shape_poly_2bb(1.0), "genus must be an integer"),
        (lambda: kappa(1.5, 1), "genus must be an integer"),
        (lambda: fiber_gf(2.5, 10), "l must be an integer"),
        # and these two returned a value
        (lambda: kappa(True, 1), "genus must be an integer"),
        (lambda: w_gf(True, 5), "genus must be an integer"),
        # and this one named the function, not the argument
        (lambda: fiber_gf(0, 10), "^l must be >= 1$"),
    ],
    ids=[
        "poly1-str", "poly1-float", "poly2-float", "kappa-float",
        "fiber-float", "kappa-bool", "w-bool", "fiber-zero",
    ],
)
def test_size_arguments_must_be_ints(call, message):
    with pytest.raises(DiagramError, match=message):
        call()


class TestShapePolynomials:
    def test_s1(self):
        assert poly_dict(shape_poly_1bb(1)) == S1

    def test_s2(self):
        assert poly_dict(shape_poly_1bb(2)) == S2

    def test_s3(self):
        assert poly_dict(shape_poly_1bb(3)) == S3

    def test_matches_literal_kappa_sum(self):
        # S_g = sum_t kappa_t^(g) z^(2g+t) (1+z)^(2g+t-1), term by term
        for g in range(1, 9):
            assert shape_poly_1bb(g) == IntPolynomial(literal_s(g)), g

    def test_q_and_a_against_literal_kappa_sum(self):
        # the paper's Q_g = S_{g+1}/(1+z) - sum_i S_i S_{g+1-i} and
        # A_g = S_g z/(1+z), checked by multiplying back, with every S_i
        # built from the literal kappa sum
        s = {i: literal_s(i) for i in range(1, 14)}
        for g in range(13):
            pairs = ()
            for i in range(1, g + 1):
                pairs = oracle.add(pairs, oracle.poly_mul(s[i], s[g + 1 - i]))
            q_and_pairs = oracle.add(shape_poly_2bb(g).coeffs, pairs)
            back = oracle.poly_mul(q_and_pairs, ONE_PLUS_Z)
            assert IntPolynomial(back) == IntPolynomial(s[g + 1]), g
            if g:
                back = oracle.poly_mul(a_shape_poly(g).coeffs, ONE_PLUS_Z)
                assert IntPolynomial(back) == IntPolynomial((0, *s[g])), g

    def test_q_multiplies_only_p_rows(self, monkeypatch):
        # Q_g multiplies the P_i, of degree at most g - 1 in u, and never
        # the S_i, of degree up to 6i - 1 in z
        degrees = []
        mul = series._poly_mul

        def spy(a, b):
            degrees.append(max(len(a), len(b)) - 1)
            return mul(a, b)

        monkeypatch.setattr(series, "_poly_mul", spy)
        assert poly_dict(shape_poly_2bb(2)) == Q2
        shape_poly_2bb(9)
        assert degrees and max(degrees) == 8

    @pytest.mark.parametrize("g", sorted(Q_SHA256))
    def test_q_large_genus_pinned(self, g):
        text = ",".join(map(str, shape_poly_2bb(g).coeffs))
        assert sha256(text.encode()).hexdigest() == Q_SHA256[g]

    def test_degree_bounds(self):
        for g in range(1, 7):
            p = shape_poly_1bb(g)
            assert len(p.coeffs) - 1 == 6 * g - 1
            lowest = next(k for k, c in enumerate(p.coeffs) if c)
            assert lowest == 2 * g + 1

    def test_two_backbone_shapes_have_2g_plus_3_arcs(self):
        # r >= 3 boundary cycles and n = 2g + r: the bound w_gf relies on
        for g in range(9):
            q = shape_poly_2bb(g)
            assert min(k for k, c in enumerate(q.coeffs) if c) == 2 * g + 3

    def test_one_plus_z_divides(self):
        # every term of the kappa sum carries a factor 1+z
        for g in range(1, 7):
            back = oracle.poly_mul(literal_s(g, drop=1), ONE_PLUS_Z)
            assert IntPolynomial(back) == shape_poly_1bb(g)

    def test_q0(self):
        assert poly_dict(shape_poly_2bb(0)) == Q0

    def test_q1(self):
        assert poly_dict(shape_poly_2bb(1)) == Q1

    def test_q2(self):
        assert poly_dict(shape_poly_2bb(2)) == Q2

    def test_q1_total(self):
        assert shape_poly_2bb(1)(1) == 1832
        assert shape_poly_1bb(2)(1) == 3696

    def test_q_prime_1(self):
        # S_2/(1+z), the disconnected-included two-backbone genus-1 count
        q = (0,) * 5 + (21, 168, 483, 651, 420, 105)
        assert IntPolynomial(oracle.poly_mul(q, ONE_PLUS_Z)) == shape_poly_1bb(2)

    def test_a_poly_genus_one(self):
        assert poly_dict(a_shape_poly(1)) == {4: 1, 5: 1}
        assert poly_dict(b_shape_poly(1)) == {3: 1, 4: 1}

    def test_ab_coefficient_identity(self):
        # b_g(n+1) = a_g(n+2) for every n
        for g in range(1, 5):
            a, b = a_shape_poly(g), b_shape_poly(g)
            for n in range(6 * g + 2):
                assert b[n + 1] == a[n + 2]

    def test_split_sums_to_whole(self):
        for g in range(1, 5):
            whole = oracle.add(a_shape_poly(g).coeffs, b_shape_poly(g).coeffs)
            assert IntPolynomial(whole) == shape_poly_1bb(g)


class TestPolynomialArithmetic:
    def test_divide_remainder(self):
        # 1 + z^2 = (1+z)(z-1) + 2
        q = (-1, 1)
        assert oracle.add(oracle.poly_mul(q, ONE_PLUS_Z), (2,)) == (1, 0, 1)

    def test_mul_and_eval(self):
        p = oracle.poly_mul(ONE_PLUS_Z, ONE_PLUS_Z)
        assert p == (1, 2, 1)
        assert IntPolynomial(p)(3) == 16

    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).coeffs == ()

    def test_non_integer_coefficients_refused(self):
        # (0.9, 2.5) was once truncated to (0, 2)
        with pytest.raises(DiagramError, match="integers"):
            IntPolynomial((0.9, 2.5))


class TestCatalan:
    """Self-checks of the oracle's Catalan series and the identities
    that ``series.py``'s docstring derives from it."""

    def test_first_values(self):
        assert oracle.catalan(5) == (1, 1, 2, 5, 14, 42)

    def test_closed_form_oracle(self):
        c = oracle.catalan(40)
        for n in range(41):
            assert c[n] == comb(2 * n, n) // (n + 1)

    def test_defining_equation(self):
        order = 30
        c = oracle.catalan(order)
        one = oracle.one(order)
        zc2 = oracle.shift(oracle.mul(c, c), 1)
        assert oracle.add(one, zc2) == c  # 1 + z C^2 = C
        # equivalently 1 - z C^2 = 2 - C
        assert oracle.sub(one, zc2) == oracle.sub(oracle.scale(2, one), c)

    def test_fiber_basis_in_y(self):
        # with D = 1/(1 - z C^2) and X = z C^2 D: (C D)^2 = 1/(1 - 4z),
        # so C D = y = (1 - 4z)^(-1/2), and X = (y - 1)/2
        order = 60
        c = oracle.catalan(order)
        one = oracle.one(order)
        zc2 = oracle.shift(oracle.mul(c, c), 1)
        d = oracle.inverse(oracle.sub(one, zc2))
        cd = oracle.mul(c, d)
        assert oracle.mul(cd, cd) == tuple(4**n for n in range(order + 1))
        assert oracle.add(oracle.scale(2, oracle.mul(zc2, d)), one) == cd

    def test_square_root_identity(self):
        # 2zC = 1 - sqrt(1-4z), so (1 - 2zC)^2 = 1 - 4z
        order = 30
        c = oracle.catalan(order)
        root = oracle.sub(oracle.one(order), oracle.scale(2, oracle.shift(c, 1)))
        assert oracle.mul(root, root) == oracle.truncate((1, -4), order)


class TestPowerSeriesArithmetic:
    def test_inverse(self):
        s = oracle.truncate((1, -4), 10)
        assert oracle.mul(s, oracle.inverse(s)) == oracle.one(10)

    def test_inverse_requires_unit(self):
        with pytest.raises(ValueError, match="constant term"):
            oracle.inverse(oracle.truncate((2, 1), 4))

    def test_coefficient_out_of_order(self):
        with pytest.raises(DiagramError):
            PowerSeries(4, (1,))[5]

    def test_negative_coefficient_is_zero(self):
        assert PowerSeries(4, (1, 2))[-1] == 0

    def test_mul_needs_equal_orders(self):
        with pytest.raises(DiagramError, match="orders differ"):
            PowerSeries(4, (1,)) * PowerSeries(3, (1,))

    def test_pow(self):
        s = oracle.truncate((1, 1), 6)
        assert oracle.power(s, 3)[:4] == (1, 3, 3, 1)

    @settings(max_examples=300, deadline=None)
    @given(series_pair())
    def test_mul_matches_schoolbook(self, pair):
        a, b = pair
        assert (a * b).coeffs == oracle.mul(a.coeffs, b.coeffs)
        assert (b * a).coeffs == oracle.mul(b.coeffs, a.coeffs)

    @settings(max_examples=300, deadline=None)
    @given(series_pair(unit=True))
    def test_inverse_matches_schoolbook(self, pair):
        # the inverse of a unit is unique, so the schoolbook product with
        # it must be exactly 1
        a, _ = pair
        assert oracle.mul(a.coeffs, oracle.inverse(a.coeffs)) == oracle.one(a.order)

    def test_non_integer_values_refused(self):
        # (1.7, 2.2) was once truncated to (1, 2, 0, 0)
        with pytest.raises(DiagramError, match="integers"):
            PowerSeries(3, (1.7, 2.2))
        with pytest.raises(DiagramError, match="order"):
            PowerSeries(3.0, (1,))

    def test_order_zero(self):
        a = PowerSeries(0, (-3,))
        assert (a * PowerSeries(0, (5,))).coeffs == (-15,)
        assert oracle.inverse((-1,)) == (-1,)


class TestFiberSeries:
    def test_l1_low_coefficients(self):
        f = fiber_gf(1, 6)
        assert f[3] == 1 and f[4] == 7

    def test_first_nonzero_at_l_plus_two(self):
        for l in range(1, 5):
            f = fiber_gf(l, l + 4)
            assert all(f[k] == 0 for k in range(l + 2))
            assert f[l + 2] == 1

    def test_l_must_be_positive(self):
        with pytest.raises(DiagramError):
            fiber_gf(0, 5)

    def test_z4_contributions_sum_to_eight(self):
        assert fiber_gf(1, 4)[4] + fiber_gf(2, 4)[4] == 8

    def test_negative_order_rejected(self):
        with pytest.raises(DiagramError, match="order"):
            fiber_gf(1, -3)

    def test_below_first_degree_is_zero(self):
        for l in range(1, 5):
            for order in range(l + 2):
                assert fiber_gf(l, order) == PowerSeries(order, ())
        # returned at once, without raising X to that power
        assert fiber_gf(10**20, 1000) == PowerSeries(1000, ())

    @pytest.mark.parametrize("l", range(1, 7))
    def test_matches_literal_formula(self, l):
        assert fiber_gf(l, 80).coeffs == literal_fiber(l, 80)

    @pytest.mark.parametrize("l", (1, 37))
    def test_matches_literal_formula_at_order_400(self, l):
        assert fiber_gf(l, 400).coeffs == literal_fiber(l, 400)

    def test_deep_fiber_pinned(self):
        # far past the literal-formula checks: every term of the y^(j+2)
        # expansion carries a binomial of l = 300, and the sum is divided
        # by 2^300 at the end
        text = ",".join(map(str, fiber_gf(300, 400).coeffs))
        assert sha256(text.encode()).hexdigest() == FIBER_300_400_SHA256

    def test_no_series_product(self, monkeypatch):
        # fibers and their sums are expanded in y = (1 - 4z)^(-1/2)
        # coefficient by coefficient; no truncated product is formed
        def refuse(self, other):
            raise AssertionError("series product formed")

        monkeypatch.setattr(PowerSeries, "__mul__", refuse)
        text = ",".join(map(str, w_gf(2, 400).coeffs))
        assert sha256(text.encode()).hexdigest() == W_400_SHA256[2]
        f = fiber_gf(3, 400)
        assert f[5] == 1 and f[6] == 13

    def test_inexact_expansion_raises(self, monkeypatch):
        # the integer expansion is divided by 2^l at the end; a wrong
        # binomial leaves a remainder, which raises (also under python -O)
        monkeypatch.setattr("chordshapes.series.comb", lambda n, k: comb(n, k) + 1)
        with pytest.raises(ConsistencyError, match="not an integer"):
            fiber_gf(3, 10)


class TestWSeries:
    def test_w0_low_coefficients(self):
        w = w_gf(0, 5)
        assert (w[3], w[4], w[5]) == (1, 8, 48)

    def test_w1_first_coefficient(self):
        assert w_gf(1, 5)[5] == 21

    def test_w0_closed_form(self):
        order = 30
        denom = oracle.power(oracle.truncate((1, -4), order), 2)
        rhs = oracle.rational_series((0, 0, 0, 1), denom, order)
        assert w_gf(0, order).coeffs == rhs

    def test_w1_closed_form(self):
        order = 30
        denom = oracle.power(oracle.truncate((1, -4), order), 5)
        num = (0,) * 5 + (21, 20)  # (21 + 20 z) z^5
        assert w_gf(1, order).coeffs == oracle.rational_series(num, denom, order)

    def test_w2_closed_form(self):
        order = 30
        denom = oracle.power(oracle.truncate((1, -4), order), 8)
        num = (0,) * 7 + (1485, 6096, 1696)
        assert w_gf(2, order).coeffs == oracle.rational_series(num, denom, order)

    def test_negative_order_rejected(self):
        with pytest.raises(DiagramError, match="order"):
            w_gf(1, -1)

    def test_negative_genus_rejected(self):
        # also at an order below 2g + 3, where w_gf skips Q_g
        for order in (0, 5):
            with pytest.raises(DiagramError, match="^genus must be >= 0$"):
                w_gf(-1, order)

    @pytest.mark.parametrize("g", range(6))
    def test_matches_literal_sum_over_shapes(self, g):
        # sum_l q_g(l+2) C^(2l+2) z^(l+2) (1 - z C^2)^-(l+2), at every
        # order below 2g + 3 (where w_gf skips Q_g) and at order 80
        q = shape_poly_2bb(g)
        for order in (*range(2 * g + 3), 80):
            total = (0,) * (order + 1)
            for degree, coeff in enumerate(q.coeffs):
                if coeff:
                    fiber = literal_fiber(degree - 2, order)
                    total = oracle.add(total, oracle.scale(coeff, fiber))
            assert w_gf(g, order).coeffs == total

    @pytest.mark.parametrize("g", sorted(W_400_SHA256))
    def test_full_order_pinned(self, g):
        text = ",".join(map(str, w_gf(g, 400).coeffs))
        assert sha256(text.encode()).hexdigest() == W_400_SHA256[g]


class TestGrowthRatio:
    def test_w0_ratio_closed_form(self):
        # [z^m] W_0 = (m-2) 4^(m-3), so the ratio at m is 4 (m-1)/(m-2)
        w = w_gf(0, 40)
        for m in (10, 20, 39):
            assert Fraction(w[m + 1], w[m]) == Fraction(4 * (m - 1), m - 2)

    def test_fiber_ratio_tends_to_four(self):
        f = fiber_gf(1, 120)
        r100 = Fraction(f[101], f[100])
        assert abs(r100 - 4) < Fraction(4, 25)  # within 4% already at n = 100
