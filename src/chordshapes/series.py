"""Exact integer polynomials and truncated power series.

Everything here is computed over arbitrary-precision integers; no
floating point is used anywhere.  The kappa numbers come from their
two-term recursion.  With u = z(1+z) and P_g(u) = sum_t kappa_t^(g)
u^(t-1), the one-backbone shape polynomial and its A- and B-shapes are

    S_g = sum_{t=1..g} kappa_t^(g) z^(2g+t) (1+z)^(2g+t-1)
        = z^(2g+1) (1+z)^(2g) P_g(u),
    A_g = S_g z/(1+z) = z^(2g+2) (1+z)^(2g-1) P_g(u),
    B_g = S_g - A_g   = z^(2g+1) (1+z)^(2g-1) P_g(u),

and, as S_i S_{g+1-i} = z^(2g+4) (1+z)^(2g+2) P_i P_{g+1-i}, the
two-backbone polynomial is

    Q_g = S_{g+1}/(1+z) - sum_{i=1..g} S_i S_{g+1-i}
        = z^(2g+3) (1+z)^(2g+1) R_g(u),
    R_g = P_{g+1} - u sum_{i=1..g} P_i P_{g+1-i}:

each is one expansion of a polynomial in u of degree at most g.

The fiber generating function of a shape with l non-rainbow arcs is

    F_l = C(z)^(2l+2) z^(l+2) / (1 - z C(z)^2)^(l+2) = z^2 (C D)^2 X^l,

    D = 1 / (1 - z C^2),    X = z C^2 D,

with C the Catalan series; the variable counts the arcs of the planted
matching (the shape's two rainbows included).  Since C = 1 + z C^2 and
2zC = 1 - s with s = sqrt(1 - 4z),

    1 - z C^2 = 2 - C = s C,    C D = 1/s =: y,    X = (y - 1)/2,

so F_l = z^2 y^2 ((y-1)/2)^l.  Summed over shapes, W_g = sum_n q_g(n)
F_(n-2) = z^2 y^2 X^(-2) Q_g(X), and X(1 + X) = (y^2 - 1)/4 = z/(1 - 4z)
=: v, so Q_g(X) = X^2 v^(2g+1) R_g(v) and, with R_g = sum_t r_t u^t,

    W_g = sum_t r_t z^(2g+3+t) y^(2(2g+2+t)).

Both are sums of monomials a z^at y^k.  Those have the integer
coefficients [z^n] y^k = binom(n + k/2 - 1, n) 4^n, which run from 1 by
the exact term ratio (4n + 2k)/(n + 1), so one loop expands them all
and no series product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, mul, sub

from .errors import ConsistencyError, DiagramError, InfeasibleError, _check_size

# Genera and series orders past this are refused up front with
# InfeasibleError, with no override.  Measured on a 2-vCPU Xeon VM with
# Python 3.11.7, shared with other work: shape_poly_1bb(1000) takes
# 11-14 s, shape_poly_2bb(100) 0.06-0.17 s, w_gf(50, 1000) 0.04-0.05 s
# and fiber_gf(900, 1000) 0.7 s; an order of 10**9 would not even fit in
# memory.
_MAX_SIZE = 1000
# Two-backbone genera (shape_poly_2bb, w_gf) past this are refused too:
# the g/2 products P_i P_(g+1-i) grow about as g^5, and on the same VM
# shape_poly_2bb took 2.2 s at g = 200, 6.5-10.1 s at 250, 10.9-13.7 s
# at 275 and 17.5 s at 300, so no two-backbone genus it accepts costs
# more than shape_poly_1bb(1000).
_MAX_2BB_GENUS = 250


# -- polynomials -----------------------------------------------------------


def _ints(coeffs) -> tuple[int, ...]:
    """``coeffs`` as a tuple; anything but an int (a float, a bool, a
    Fraction) is refused rather than truncated."""
    cs = tuple(coeffs)
    if not {int}.issuperset(map(type, cs)):
        raise DiagramError("coefficients must be integers")
    return cs


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense polynomial with exact integer coefficients (index = degree)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(_ints(self.coeffs)))

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# -- kappa recursion --------------------------------------------------------


def _kappa_rows(g: int):
    """The rows kappa_t^(h) for t = 0..h (kappa_0 = 0), h = 1..g in turn,
    each built from the one below it, from kappa_1^(1) = 1.  Every
    genus-valued function reads its rows here, so a genus past
    ``_MAX_SIZE`` is refused here, before any work."""
    if g > _MAX_SIZE:
        raise InfeasibleError(f"genus above {_MAX_SIZE} is refused")
    row: tuple[int, ...] = (0, 1)
    yield row
    for h in range(2, g + 1):
        up = [0]
        for t in range(1, h + 1):
            m = 2 * h + t
            same_t = row[t] if t < h else 0
            rhs = (2 * m - 3) * (2 * m - 5) * (
                (m - 2) * same_t + 2 * (2 * m - 7) * row[t - 1]
            )
            q, r = divmod(rhs, m)
            if r:
                raise ConsistencyError(
                    f"kappa recursion not divisible at g={h}, t={t}"
                )
            up.append(q)
        row = tuple(up)
        yield row


@lru_cache(maxsize=None)
def _kappa_row(g: int) -> tuple[int, ...]:
    """The row kappa_t^(g), t = 0..g; only the rows asked for are kept."""
    *_, row = _kappa_rows(g)
    return row


def kappa(g: int, t: int) -> int:
    """The paper's kappa_t^(g), exact, from its two-term recursion: the
    coefficients of S_g's sum in the module docstring.  Zero outside
    1 <= t <= g."""
    _check_size(g, "genus", minimum=1)
    _check_size(t, "t", minimum=None)
    if t < 1 or t > g:
        return 0
    return _kappa_row(g)[t]


# -- shape polynomials -------------------------------------------------------


def _expand(r, a: int, b: int) -> IntPolynomial:
    """z^a (1+z)^b r(u) with u = z(1+z), for the coefficients ``r`` of
    r(u) by degree: Horner's rule in u, then the b factors 1+z, so every
    step is a shift and an add of integer coefficients."""
    acc = [r[-1]]
    for c in reversed(r[:-1]):
        acc = [c, *map(add, acc + [0], [0] + acc)]
    for _ in range(b):
        acc = list(map(add, acc + [0], [0] + acc))
    return IntPolynomial((0,) * a + tuple(acc))


def _p_1bb(g: int) -> tuple[int, ...]:
    """The coefficients of P_g(u) = sum_t kappa_t^(g) u^(t-1)."""
    _check_size(g, "genus", minimum=1)
    return _kappa_row(g)[1:]


def shape_poly_1bb(g: int) -> IntPolynomial:
    """Generating polynomial of one-backbone shapes of genus g by arc count:
    S_g(z) = z^(2g+1) (1+z)^(2g) P_g(z(1+z))."""
    return _expand(_p_1bb(g), 2 * g + 1, 2 * g)


def a_shape_poly(g: int) -> IntPolynomial:
    """The paper's A_g: the generating polynomial of one-backbone A-shapes
    of genus g by arc count, S_g(z) z / (1+z)."""
    return _expand(_p_1bb(g), 2 * g + 2, 2 * g - 1)


def b_shape_poly(g: int) -> IntPolynomial:
    """The paper's B_g: the generating polynomial of one-backbone B-shapes
    of genus g by arc count, S_g - A_g."""
    return _expand(_p_1bb(g), 2 * g + 1, 2 * g - 1)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The schoolbook product of two non-empty coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _r_2bb(g: int) -> tuple[int, ...]:
    """The coefficients of R_g(u) = P_{g+1} - u sum_{i=1..g} P_i P_{g+1-i}
    by degree.  The rows of P_1..P_{g+1} come from one pass, and the pairs
    i and g+1-i are equal: each product is formed once, and taken twice
    when i != g+1-i.  A genus past ``_MAX_2BB_GENUS`` is refused first;
    the callers check that g is an int >= 0."""
    if g > _MAX_2BB_GENUS:
        raise InfeasibleError(
            f"two-backbone genus above {_MAX_2BB_GENUS} is refused"
        )
    p = [row[1:] for row in _kappa_rows(g + 1)]  # P_(i+1)
    pairs = [0] * (g + 1)  # u sum_i P_i P_(g+1-i)
    for i in range(1, (g + 1) // 2 + 1):
        weight = 1 if 2 * i == g + 1 else 2
        for k, c in enumerate(_poly_mul(p[i - 1], p[g - i]), 1):
            pairs[k] += weight * c
    return tuple(map(sub, p[g], pairs))


def shape_poly_2bb(g: int) -> IntPolynomial:
    """Generating polynomial of connected two-backbone shapes of genus g:
    Q_g(z) = S_{g+1}/(1+z) - sum_{i=1..g} S_i S_{g+1-i}
           = z^(2g+3) (1+z)^(2g+1) R_g(z(1+z))."""
    _check_size(g, "genus")
    return _expand(_r_2bb(g), 2 * g + 3, 2 * g + 1)


# -- truncated power series ---------------------------------------------------


def _check_order(order: int) -> None:
    _check_size(order, "order")
    if order > _MAX_SIZE:
        raise InfeasibleError(f"order above {_MAX_SIZE} is refused")


@dataclass(frozen=True)
class PowerSeries:
    """Power series truncated at ``order``; coefficients are exact integers."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_order(self.order)
        cs = _ints(self.coeffs)
        if len(cs) < self.order + 1:
            cs = cs + (0,) * (self.order + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs[: self.order + 1])

    def __getitem__(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.order:
            raise DiagramError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _check(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise DiagramError("series orders differ")

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        a, rb = self.coeffs, other.coeffs[::-1]
        n = self.order
        # [z^k] = sum_i a_i b_(k-i); rb[n-k:] is b_k, b_(k-1), ..., b_0,
        # and map stops with it at a_k
        return PowerSeries(
            n, tuple(sum(map(mul, a, rb[n - k :])) for k in range(n + 1))
        )


def _add_y_power(out: list[int], a: int, at: int, k: int) -> None:
    """Add a z^at y^k = a z^at (1 - 4z)^(-k/2) into the coefficients
    ``out``, up to its last.  The running term is a [z^n] y^k, so it
    carries the coefficient and steps by the exact ratio (4n + 2k)/(n + 1)."""
    for n in range(len(out) - at):
        out[n + at] += a
        a = a * (4 * n + 2 * k) // (n + 1)


def fiber_gf(l: int, order: int) -> PowerSeries:
    """Generating function of matchings reducing to a fixed shape with l
    non-rainbow arcs; depends only on l.  First non-zero coefficient is
    1 at degree l+2.

    Computed as z^2 y^2 ((y-1)/2)^l with y = (1 - 4z)^(-1/2), which
    equals the paper's C^(2l+2) z^(l+2) / (1 - z C^2)^(l+2) (see the
    module docstring), with y^2 (y-1)^l expanded over the integers and
    divided by 2^l at the end."""
    _check_size(l, "l", minimum=1)
    _check_order(order)
    if order < l + 2:
        return PowerSeries(order, ())
    out = [0] * (order + 1)
    for j in range(l + 1):
        _add_y_power(out, -comb(l, j) if (l - j) & 1 else comb(l, j), 2, j + 2)
    mask = (1 << l) - 1
    for n, c in enumerate(out):
        if c & mask:
            raise ConsistencyError(f"[z^{n}] of a fiber sum is not an integer")
        out[n] = c >> l
    return PowerSeries(order, tuple(out))


def w_gf(g: int, order: int) -> PowerSeries:
    """Generating function of connected two-backbone matchings of genus g,
    summed over shapes: sum_l q_g(l+2) fiber_gf(l).

    Summed as sum_t r_t z^(2g+3+t) (1 - 4z)^(-(2g+2+t)) over the
    coefficients r_t of R_g (see the module docstring).

    Below degree 2g + 3 every coefficient is zero, so an order under it
    returns the zero series without building R_g.  A connected genus-g
    two-backbone shape with n arcs (rainbows included) and r boundary
    cycles has 2 - 2g - r = 2 - n, so n = 2g + r, and r >= 3: each
    rainbow (s, e) closes the one-sided cycle (s) along its outside, and
    the exterior arc that connects the backbones lies on neither.  Since
    (y-1)/2 = O(z), the fiber of an n-arc shape starts at z^n."""
    _check_order(order)
    _check_size(g, "genus")
    if order < 2 * g + 3:
        return PowerSeries(order, ())
    out = [0] * (order + 1)
    for t, r in enumerate(_r_2bb(g)):
        m = 2 * g + 2 + t
        _add_y_power(out, r, m + 1, 2 * m)  # r_t z^(m+1) (1 - 4z)^(-m)
    return PowerSeries(order, tuple(out))
