"""Exact arithmetic on coefficient tuples: the series tests' oracle.

A series of order n is a tuple of its n + 1 coefficients z^0..z^n, and
every series operation keeps that length; a polynomial is a tuple of any
length.  Nothing here comes from ``chordshapes.series``, so the library's
closed forms are checked against a route that shares no code with them.
"""

from __future__ import annotations

from itertools import zip_longest


def truncate(coeffs: tuple[int, ...], order: int) -> tuple[int, ...]:
    """``coeffs`` as a series of ``order``: cut off or padded with zeros."""
    return (tuple(coeffs) + (0,) * (order + 1))[: order + 1]


def one(order: int) -> tuple[int, ...]:
    return truncate((1,), order)


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Truncated product of two equal-length coefficient tuples."""
    out = [0] * len(a)
    for i in range(len(a)):
        for j in range(len(a) - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Sum; the shorter polynomial is padded with zeros."""
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return add(a, scale(-1, b))


def scale(c: int, a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c * x for x in a)


def shift(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiply by z^k, truncating at the series' order."""
    return ((0,) * k + a)[: len(a)]


def power(a: tuple[int, ...], e: int) -> tuple[int, ...]:
    acc = one(len(a) - 1)
    while e:
        if e & 1:
            acc = mul(acc, a)
        a = mul(a, a)
        e >>= 1
    return acc


def inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    """Multiplicative inverse of a series with constant term +1 or -1,
    solved coefficient by coefficient from a * inverse(a) = 1."""
    if a[0] not in (1, -1):
        raise ValueError("inverse needs constant term +1 or -1")
    inv = [a[0]]
    for k in range(1, len(a)):
        inv.append(-a[0] * sum(a[i] * inv[k - i] for i in range(1, k + 1)))
    return tuple(inv)


def rational_series(
    num: tuple[int, ...], denom: tuple[int, ...], order: int
) -> tuple[int, ...]:
    """num/denom as a series of ``order``."""
    return mul(truncate(num, order), inverse(truncate(denom, order)))


def catalan(order: int) -> tuple[int, ...]:
    """The Catalan series C, from its defining equation C = 1 + z C^2:
    [z^(n+1)] C = sum_(i=0..n) c_i c_(n-i)."""
    c = [1]
    for n in range(order):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return tuple(c)


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two polynomials, untruncated."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)
