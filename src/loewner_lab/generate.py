"""Deterministic seeded generation of matrix instances.

The random stream is a counter-free SplitMix-style 64-bit generator with a
documented state advance, so a seed printed in a report can be replayed:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z ^ (z >> 31)

Uniform doubles take the top 53 bits; normals come from the Box-Muller
transform of two uniforms.  Per-trial seeds are derived by hashing the
master seed with the trial coordinates, so trials are order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, NotPositiveDefiniteError
from .spectral import SymMatrix, as_sym, decompose, spectrum_bounds

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# mix64's constants as numpy scalars, for the bulk stream.
_GAMMA64, _MIX1, _MIX2 = (np.uint64(c) for c in (GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with integer coordinates into a fresh 64-bit seed."""
    acc = master & MASK64
    for p in parts:
        acc = mix64((acc + GAMMA + (p & MASK64)) & MASK64)
    return acc


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a string; stable across runs and platforms."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & MASK64
    return acc


class SplitMix64:
    """SplitMix-style generator; the integer stream is platform-portable."""

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = ((self.next_u64() >> 11) + 0.5) * 2.0**-53  # strictly inside (0, 1)
        return lo + (hi - lo) * u

    def log_uniform(self, lo: float, hi: float) -> float:
        if not 0 < lo <= hi:
            raise ValueError("log_uniform needs 0 < lo <= hi")
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def normal(self) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def _unit_block(self, n: int) -> np.ndarray:
        """The next n ``uniform()`` draws, from one uint64 block with wrapping arithmetic."""
        z = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA64 + np.uint64(self._state)
        self._state = (self._state + n * GAMMA) & MASK64
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        return (((z ^ (z >> 31)) >> 11).astype(np.float64) + 0.5) * 2.0**-53

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n ``uniform(lo, hi)`` draws, bit for bit."""
        return lo + (hi - lo) * self._unit_block(n)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols ``normal()`` draws in row-major order, bit for bit.

        Box-Muller stays per element in libm, whose results numpy's SIMD
        log/sin/cos need not match, and hands on its spare as ``normal`` does.
        """
        n = rows * cols
        out = [self._spare] if self._spare is not None and n else []
        u = self._unit_block((n - len(out) + 1) // 2 * 2).tolist()
        log, sqrt, cos, sin, pi = math.log, math.sqrt, math.cos, math.sin, math.pi
        for u1, u2 in zip(u[::2], u[1::2]):
            r = sqrt(-2.0 * log(u1))
            out += (r * cos(2.0 * pi * u2), r * sin(2.0 * pi * u2))
        if n:
            self._spare = out.pop() if len(out) > n else None
        return np.array(out).reshape(rows, cols)

    def choice_index(self, n: int) -> int:
        return self.next_u64() % n


def random_orthogonal(dim: int, rng: SplitMix64) -> np.ndarray:
    """Orthogonal factor of the QR decomposition of a standard-normal matrix."""
    q, r = np.linalg.qr(rng.normal_matrix(dim, dim))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _spd(rng: SplitMix64, dim: int, lam_lo: float, lam_hi: float) -> SymMatrix:
    lam = rng.uniforms(dim, lam_lo, lam_hi)
    q = random_orthogonal(dim, rng)
    return SymMatrix(q.T @ np.diag(lam) @ q)


def random_spd(dim: int, lam_lo: float, lam_hi: float, seed: int) -> SymMatrix:
    """Random SPD matrix with spectrum drawn uniformly from [lam_lo, lam_hi].

    The recommended eigenvalue range is within [1e-3, 1e3], to respect the
    condition cap of the means module.
    """
    if not 0 < lam_lo <= lam_hi:
        raise ValueError(f"need 0 < lam_lo <= lam_hi, got [{lam_lo!r}, {lam_hi!r}]")
    if dim < 1:
        raise ValueError("dim must be positive")
    return _spd(SplitMix64(seed), dim, lam_lo, lam_hi)


def estimate_sandwich(A: SymMatrix, B: SymMatrix) -> tuple[float, float]:
    """Tightest scalars (s*, t*) with s* A <= B <= t* A.

    These are the extreme eigenvalues of A^(-1/2) B A^(-1/2).  The answer
    for the first partner B is remembered on A, so the generator's check and
    the certificate's check of the same pair solve it once.
    """
    A, B = as_sym(A), as_sym(B)
    memo = A._sandwich  # read once: the slot is written at most once
    if memo is not None and memo[0] is B:
        return memo[1]
    dec = decompose(A)
    if float(dec.eigenvalues[0]) <= 0.0:
        raise NotPositiveDefiniteError("first argument must be positive definite")
    bounds = spectrum_bounds(SymMatrix(dec.inv_root @ B.data @ dec.inv_root))
    if memo is None:
        object.__setattr__(A, "_sandwich", (B, bounds))
    return bounds


@dataclass(frozen=True)
class SandwichPair:
    """A PD pair with certified sandwich scalars: s A <= B <= t A."""

    A: SymMatrix
    B: SymMatrix
    s: float
    t: float

    def verify(self, tol_rel: float = 1e-9) -> None:
        s_star, t_star = estimate_sandwich(self.A, self.B)
        tol = tol_rel * max(1.0, self.t)
        if s_star < self.s - tol or t_star > self.t + tol:
            raise HypothesisError(
                f"sandwich condition violated: tightest [{s_star:.6g}, {t_star:.6g}] "
                f"outside claimed [{self.s:.6g}, {self.t:.6g}]"
            )


@dataclass(frozen=True)
class BoundedPair:
    """A PD pair with two-sided scalar bounds: m I <= A, B <= M I."""

    A: SymMatrix
    B: SymMatrix
    m: float
    M: float

    def verify(self, tol_rel: float = 1e-9) -> None:
        tol = tol_rel * max(1.0, self.M)
        for name, X in (("A", self.A), ("B", self.B)):
            lo, hi = spectrum_bounds(X)
            if lo < self.m - tol or hi > self.M + tol:
                raise HypothesisError(
                    f"bounds violated for {name}: spectrum [{lo:.6g}, {hi:.6g}] "
                    f"outside [{self.m:.6g}, {self.M:.6g}]"
                )


def _sandwich_pair(
    rng: SplitMix64,
    dim: int,
    s: float,
    t: float,
    a_lo: float = 0.25,
    a_hi: float = 4.0,
) -> SandwichPair:
    A = _spd(rng, dim, a_lo, a_hi)
    C = _spd(rng, dim, s, t)
    root = decompose(A).root
    B = SymMatrix(root @ C.data @ root)
    pair = SandwichPair(A=A, B=B, s=float(s), t=float(t))
    pair.verify()
    return pair


def random_sandwich_pair(dim: int, s: float, t: float, seed: int) -> SandwichPair:
    """Seeded pair satisfying s A <= B <= t A, built as B = A^(1/2) C A^(1/2)
    with C drawn with spectrum in [s, t]."""
    if not 0 < s <= t:
        raise ValueError(f"need 0 < s <= t, got s={s!r}, t={t!r}")
    return _sandwich_pair(SplitMix64(seed), dim, s, t)


def _bounded_pair(rng: SplitMix64, dim: int, m: float, M: float) -> BoundedPair:
    A = _spd(rng, dim, m, M)
    B = _spd(rng, dim, m, M)
    pair = BoundedPair(A=A, B=B, m=float(m), M=float(M))
    pair.verify()
    return pair


def random_bounded_pair(dim: int, m: float, M: float, seed: int) -> BoundedPair:
    """Seeded independent pair with both spectra in [m, M], 0 < m < M."""
    if not 0 < m < M:
        raise ValueError(f"need 0 < m < M, got m={m!r}, M={M!r}")
    return _bounded_pair(SplitMix64(seed), dim, m, M)


def quadratic_form_slack(
    X: SymMatrix, Y: SymMatrix, samples: int = 1000, seed: int = 0
) -> float:
    """Brute-force Loewner oracle: min of v^T (Y - X) v over random unit vectors.

    Always an upper bound on lambda_min(Y - X); used to cross-check the
    eigensolver-based comparison, never to replace it.
    """
    X, Y = as_sym(X), as_sym(Y)
    diff = (Y - X).data
    rng = SplitMix64(seed)
    best = math.inf
    for _ in range(samples):
        v = rng.normal_matrix(1, diff.shape[0])[0]
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            continue
        v /= norm
        best = min(best, float(v @ diff @ v))
    return best
