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


def identity(a: tuple) -> tuple:
    return a


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


def _half_sum(s, t) -> Fraction:
    return (sqrt(s) + sqrt(t)) / 2


def sandwich_lemma(A, B, s, t):
    """c1 (A nabla B) <= A # B <= c2 (A ! B), as its two statements: the
    lower (c1 (A nabla B), A # B, c1) and the upper (A # B, c2 (A ! B), c2)."""
    half_sum = _half_sum(s, t)
    c1, c2 = (1 / half_sum, half_sum) if s * t >= 1 else (
        sqrt(s * t) / half_sum, half_sum / sqrt(s * t))
    sharp = geometric(A, B)
    return ((tuple(c1 * y for y in arithmetic(A, B)), sharp, c1),
            (sharp, tuple(c2 * y for y in harmonic(A, B)), c2))


def _sandwich_constant(s, t) -> Fraction:
    """C(s,t), which branches on st vs 1."""
    return _half_sum(s, t) ** 2 / (1 if s * t >= 1 else s * t)


def _diaz_metcalf_constant(s, t) -> Fraction:
    """The Diaz-Metcalf constant, which branches on sqrt(st) vs 1."""
    root_st = sqrt(s * t)
    return _half_sum(s, t) ** 2 / (1 if root_st >= 1 else root_st)


def main_monotone(A, B, s, t, phi, tau, sigma, f):
    """phi(f(A)) tau phi(f(B)) <= C(s,t) phi(f(A sigma B))."""
    c = _sandwich_constant(s, t)
    lhs = tau(phi(tuple(map(f, A))), phi(tuple(map(f, B))))
    return lhs, tuple(c * y for y in phi(tuple(map(f, sigma(A, B))))), c


def main_decreasing(A, B, s, t, phi, tau, sigma, g):
    """phi(g(A tau B)) <= C(s,t) (phi(g(A)) sigma phi(g(B)))."""
    c = _sandwich_constant(s, t)
    base = sigma(phi(tuple(map(g, A))), phi(tuple(map(g, B))))
    return phi(tuple(map(g, tau(A, B)))), tuple(c * y for y in base), c


def diaz_metcalf(A, B, s, t, phi, tau, sigma, f):
    """phi(f(sqrt(st) A)) tau phi(f(B)) <= C phi(f(A sigma B))."""
    c = _diaz_metcalf_constant(s, t)
    lhs = tau(phi(tuple(f(sqrt(s * t) * a) for a in A)), phi(tuple(map(f, B))))
    return lhs, tuple(c * y for y in phi(tuple(map(f, sigma(A, B))))), c


def klamkin_mclenaghan(A, B, s, t, phi, sigma, f):
    """P^(-1/2) G P^(-1/2) - P^(1/2) F^(-1) P^(1/2) <= (c - 2) I - (T^(1/2) - T^(-1/2))^2,
    with P = phi(f(A sigma B)), F = phi(f(sqrt(st) A)), G = phi(f(B)),
    T = P^(-1/2) F P^(-1/2) and c twice the Diaz-Metcalf constant."""
    c = 2 * _diaz_metcalf_constant(s, t)
    P = phi(tuple(map(f, sigma(A, B))))
    F = phi(tuple(f(sqrt(s * t) * a) for a in A))
    G = phi(tuple(map(f, B)))
    lhs = tuple(g / p - p / x for p, x, g in zip(P, F, G))
    T = tuple(x / p for p, x in zip(P, F))
    return lhs, tuple(c - 2 - (sqrt(y) - 1 / sqrt(y)) ** 2 for y in T), c


def strengthened_remark(A, B, s, t, phi, tau, sigma, f):
    """phi(f(A)) tau phi(f(B)) <= phi(f(sqrt(st) A)) tau phi(f(B))
    <= ((sqrt(s)+sqrt(t))/2)^2 phi(f(A sigma B)), for sqrt(st) >= 1, as
    ``(left, middle, rhs, c)``."""
    c = _half_sum(s, t) ** 2
    fb = phi(tuple(map(f, B)))
    left = tau(phi(tuple(map(f, A))), fb)
    middle = tau(phi(tuple(f(sqrt(s * t) * a) for a in A)), fb)
    return left, middle, tuple(c * y for y in phi(tuple(map(f, sigma(A, B))))), c
