"""Exact references: the paper's statements evaluated in rational
arithmetic at commuting corners, independently of ``certificates``.

A commuting corner is a pair of diagonal matrices, written as tuples of
``Fraction`` entries.  Diagonal matrices commute, so every operator mean and
function of them acts entry by entry, and a corner whose entries give
rational roots is evaluated without rounding.  Each statement returns
``(lhs, rhs, c)``: its two sides as diagonals and its constant.
"""

from fractions import Fraction
from math import isqrt


def sqrt(q: Fraction) -> Fraction:
    """The exact square root of a rational that is the square of one."""
    q = Fraction(q)
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if q < 0 or num * num != q.numerator or den * den != q.denominator:
        raise ValueError(f"{q} has no rational square root")
    return Fraction(num, den)


def diag(*entries) -> tuple:
    return tuple(map(Fraction, entries))


# Means of commuting positive matrices, entry by entry.
def arithmetic(a: tuple, b: tuple) -> tuple:
    return tuple((x + y) / 2 for x, y in zip(a, b))


def harmonic(a: tuple, b: tuple) -> tuple:
    return tuple(2 * x * y / (x + y) for x, y in zip(a, b))


def geometric(a: tuple, b: tuple) -> tuple:
    return tuple(sqrt(x * y) for x, y in zip(a, b))


def ntrace_1(a: tuple) -> tuple:
    """The normalized trace tr(X)/n, a unital map onto the 1x1 matrices."""
    return (sum(a) / len(a),)


def polya_szego(A, B, m, M, phi):
    """phi(A) # phi(B) <= (M+m)/(2 sqrt(Mm)) phi(A # B)."""
    c = (M + m) / (2 * sqrt(M * m))
    return geometric(phi(A), phi(B)), tuple(c * y for y in phi(geometric(A, B))), c


def kantorovich_f(A, B, m, M, phi, tau, sigma, f):
    """f(phi(A)) tau f(phi(B)) <= (M+m)^2/(4Mm) f(phi(A sigma B))."""
    c = (M + m) ** 2 / (4 * M * m)
    lhs = tau(tuple(map(f, phi(A))), tuple(map(f, phi(B))))
    return lhs, tuple(c * y for y in map(f, phi(sigma(A, B)))), c


def midpoint(A, B, s, t):
    """(sqrt(st) A + B)/2 <= (sqrt(s)+sqrt(t))/2 (A # B)."""
    c = (sqrt(s) + sqrt(t)) / 2
    lhs = tuple((sqrt(s * t) * a + b) / 2 for a, b in zip(A, B))
    return lhs, tuple(c * y for y in geometric(A, B)), c
