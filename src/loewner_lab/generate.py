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
from .spectral import (
    SpectralDecomposition,
    SymMatrix,
    as_sym,
    decompose,
    decompose_stack,
    spectrum_bounds,
    stack_root,
    sym_entries,
)

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

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n ``uniform(lo, hi)`` draws, bit for bit; the one-stream ``uniform_rows``."""
        return uniform_rows([self], n, lo, hi)[0]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols ``normal()`` draws in row-major order, bit for bit; the
        one-stream ``normal_rows``."""
        return normal_rows([self], rows * cols)[0].reshape(rows, cols)

    def choice_index(self, n: int) -> int:
        return self.next_u64() % n


def _unit_rows(rngs, n: int) -> np.ndarray:
    """The next n ``uniform()`` draws of each stream, from one (streams, n)
    uint64 block with wrapping arithmetic."""
    states = np.array([rng._state for rng in rngs], dtype=np.uint64)
    for rng in rngs:
        rng._state = (rng._state + n * GAMMA) & MASK64
    z = states[:, None] + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA64
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return (((z ^ (z >> 31)) >> 11).astype(np.float64) + 0.5) * 2.0**-53


def uniform_rows(rngs, n: int, lo=0.0, hi=1.0) -> np.ndarray:
    """n ``uniform(lo, hi)`` draws of each stream, as a (streams, n) block;
    ``lo`` and ``hi`` are scalars or one value per stream."""
    lo = np.asarray(lo, dtype=float).reshape(-1, 1)
    hi = np.asarray(hi, dtype=float).reshape(-1, 1)
    return lo + (hi - lo) * _unit_rows(rngs, n)


def normal_rows(rngs, n: int) -> np.ndarray:
    """n ``normal()`` draws of each stream, as a (streams, n) block, bit for bit.

    The streams advance in lockstep, so all of them hold a Box-Muller spare
    or none does; each hands on its own spare as ``normal`` does.  log, cos
    and sin stay per element in libm, whose results numpy's SIMD versions
    need not match; numpy's products and square roots are correctly
    rounded, as Python's are.
    """
    spares = [rng._spare for rng in rngs]
    held = [z for z in spares if z is not None]
    if held and len(held) < len(spares):
        raise ValueError("streams drawn as one block must advance in lockstep")
    head = 1 if held and n else 0
    pairs = (n - head + 1) // 2
    u = _unit_rows(rngs, 2 * pairs)
    count = len(rngs) * pairs
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[:, 0::2].ravel().tolist()), float, count))
    angle = ((2.0 * math.pi) * u[:, 1::2]).ravel().tolist()
    out = np.empty((len(rngs), head + 2 * pairs))
    if head:
        out[:, 0] = held
    for col, fn in ((head, math.cos), (head + 1, math.sin)):
        out[:, col::2] = (r * np.fromiter(map(fn, angle), float, count)).reshape(len(rngs), pairs)
    if n:
        tail = out[:, n].tolist() if out.shape[1] > n else [None] * len(rngs)
        for rng, z in zip(rngs, tail):
            rng._spare = z
    return out[:, :n]


def random_orthogonal(dim: int, rng) -> np.ndarray:
    """Orthogonal factor of the QR decomposition of a standard-normal matrix.

    ``rng`` is one SplitMix64 stream, or a list of streams, for which the
    factors come as one (streams, dim, dim) stack from one QR call.
    """
    one = isinstance(rng, SplitMix64)
    rngs = [rng] if one else rng
    q, r = np.linalg.qr(normal_rows(rngs, dim * dim).reshape(len(rngs), dim, dim))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    q = q * signs[:, None, :]
    return q[0] if one else q


def _spd(rng, dim: int, lam_lo, lam_hi):
    """Q^T diag(lam) Q with lam uniform in [lam_lo, lam_hi] and Q from
    ``random_orthogonal``.

    For one SplitMix64 stream this is the SymMatrix; for a list of streams
    it is the stack of their entries as ``sym_entries`` returns them, and
    ``lam_lo``, ``lam_hi`` may give one value per stream.
    """
    one = isinstance(rng, SplitMix64)
    rngs = [rng] if one else rng
    lam = uniform_rows(rngs, dim, lam_lo, lam_hi)
    q = random_orthogonal(dim, rngs)
    diag = np.zeros((len(rngs), dim, dim))
    diag[:, range(dim), range(dim)] = lam
    a = sym_entries(q.swapaxes(1, 2) @ diag @ q)
    return SymMatrix.stack(a)[0] if one else a


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


def _positive_definite(dec: SpectralDecomposition) -> None:
    if float(dec.eigenvalues[0]) <= 0.0:
        raise NotPositiveDefiniteError("first argument must be positive definite")


def _sandwich_bounds(As, Bs, inv_root: np.ndarray, b: np.ndarray) -> list:
    """(s*, t*) of each pair, from the stacks of A^(-1/2) and of the entries
    of B, each remembered on its A for the first partner B."""
    inner = sym_entries(inv_root @ b @ inv_root)
    Xs = SymMatrix.stack(inner)
    decompose_stack(Xs, inner)
    out = []
    for A, B, X in zip(As, Bs, Xs):
        out.append(spectrum_bounds(X))
        if A._sandwich is None:
            object.__setattr__(A, "_sandwich", (B, out[-1]))
    return out


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
    _positive_definite(dec)
    return _sandwich_bounds([A], [B], dec.inv_root[None], B.data[None])[0]


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


def _sandwich_pair(rngs, dim: int, s, t, a_lo: float = 0.25, a_hi: float = 4.0) -> list:
    """One verified SandwichPair per stream, all drawn as one stack; ``s``
    and ``t`` hold one value per stream."""
    a = _spd(rngs, dim, a_lo, a_hi)
    c = _spd(rngs, dim, s, t)
    As = SymMatrix.stack(a)
    w, q = decompose_stack(As, a)
    decs = [decompose(A) for A in As]  # raises for the first A that missed the contract
    root = stack_root(decs, w, q)
    b = sym_entries(root @ c @ root)
    Bs = SymMatrix.stack(b)
    for dec in decs:
        _positive_definite(dec)
    _sandwich_bounds(As, Bs, stack_root(decs, w, q, inverse=True), b)
    pairs = [SandwichPair(A=A, B=B, s=float(lo), t=float(hi))
             for A, B, lo, hi in zip(As, Bs, s, t)]
    for pair in pairs:
        pair.verify()
    return pairs


def random_sandwich_pair(dim: int, s: float, t: float, seed: int) -> SandwichPair:
    """Seeded pair satisfying s A <= B <= t A, built as B = A^(1/2) C A^(1/2)
    with C drawn with spectrum in [s, t]."""
    if not 0 < s <= t:
        raise ValueError(f"need 0 < s <= t, got s={s!r}, t={t!r}")
    return _sandwich_pair([SplitMix64(seed)], dim, [s], [t])[0]


def _bounded_pair(rngs, dim: int, m, M) -> list:
    """One verified BoundedPair per stream, all drawn as one stack; ``m``
    and ``M`` hold one value per stream."""
    a = _spd(rngs, dim, m, M)
    b = _spd(rngs, dim, m, M)
    As, Bs = SymMatrix.stack(a), SymMatrix.stack(b)
    decompose_stack(As, a)
    decompose_stack(Bs, b)
    pairs = [BoundedPair(A=A, B=B, m=float(lo), M=float(hi))
             for A, B, lo, hi in zip(As, Bs, m, M)]
    for pair in pairs:
        pair.verify()
    return pairs


def random_bounded_pair(dim: int, m: float, M: float, seed: int) -> BoundedPair:
    """Seeded independent pair with both spectra in [m, M], 0 < m < M."""
    if not 0 < m < M:
        raise ValueError(f"need 0 < m < M, got m={m!r}, M={M!r}")
    return _bounded_pair([SplitMix64(seed)], dim, [m], [M])[0]


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
