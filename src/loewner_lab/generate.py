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
from .spectral import LOEWNER_TOL_REL, SymStack, decompose, inner_matrix, spectrum_bounds

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# mix64's constants as numpy scalars, for the bulk stream.
_GAMMA64, _MIX1, _MIX2 = (np.uint64(c) for c in (GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
# The spectrum range of A in a sandwich pair and of both matrices of a free pair.
A_SPECTRUM = (0.25, 4.0)


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


def derive_seeds(master: int, parts: tuple, last: list) -> list:
    """``derive_seed(master, *parts, x)`` for each x of ``last``: the shared
    parts are mixed once, and the last step runs over all of ``last`` as one
    uint64 array with wrapping arithmetic."""
    acc = np.uint64((derive_seed(master, *parts) + GAMMA) & MASK64)
    return _mix64(np.array([x & MASK64 for x in last], dtype=np.uint64) + acc).tolist()


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


def _mix64(z: np.ndarray) -> np.ndarray:
    """``mix64`` of each entry of a uint64 array, with wrapping arithmetic."""
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def _unit_rows(rngs, n: int) -> np.ndarray:
    """The next n ``uniform()`` draws of each stream, from one (streams, n)
    uint64 block with wrapping arithmetic."""
    states = np.array([rng._state for rng in rngs], dtype=np.uint64)
    for rng, state in zip(rngs, (states + np.uint64(n * GAMMA & MASK64)).tolist()):
        rng._state = state
    z = states[:, None] + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA64
    return ((_mix64(z) >> 11).astype(np.float64) + 0.5) * 2.0**-53


def uniform_rows(rngs, n: int, lo=0.0, hi=1.0) -> np.ndarray:
    """n ``uniform(lo, hi)`` draws of each stream, as a (streams, n) block;
    ``lo`` and ``hi`` are scalars or one value per stream."""
    lo = np.asarray(lo, dtype=float).reshape(-1, 1)
    hi = np.asarray(hi, dtype=float).reshape(-1, 1)
    return lo + (hi - lo) * _unit_rows(rngs, n)


def log_uniform_rows(rngs, *ranges: tuple) -> np.ndarray:
    """One ``log_uniform(lo, hi)`` draw per ``(lo, hi)`` of ``ranges`` from
    each stream, in that order, as a (streams, ranges) block, bit for bit;
    exp stays per element in libm, as ``normal_rows`` keeps log."""
    for lo, hi in ranges:
        if not 0 < lo <= hi:
            raise ValueError("log_uniform needs 0 < lo <= hi")
    lo, hi = (np.array([math.log(x) for x in col]) for col in zip(*ranges))
    x = lo + (hi - lo) * _unit_rows(rngs, len(ranges))
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


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


def _compose(q: np.ndarray, lam: np.ndarray) -> SymStack:
    """Q^T diag(lam) Q for each slice of the (k, n, n) factors ``q`` and the
    (k, n) spectra ``lam``, as one SymStack."""
    diag = np.zeros(q.shape)
    diag[:, range(q.shape[-1]), range(q.shape[-1])] = lam
    return SymStack(q.swapaxes(1, 2) @ diag @ q)


def _sandwiched(A: SymStack, C: SymStack) -> SymStack:
    """A^(1/2) C A^(1/2) for each slice, from A's remembered decomposition."""
    root = decompose(A).root
    return SymStack(root @ C.data @ root)


def _spd(rngs, dim: int, lam_lo, lam_hi, corner: tuple | None = None) -> SymStack:
    """Q^T diag(lam) Q for each stream, as one SymStack, with lam uniform in
    [lam_lo, lam_hi] and Q from ``random_orthogonal``; ``lam_lo`` and
    ``lam_hi`` are scalars or one value per stream.

    A ``corner`` (x, y) pins slice 0 to diag(x, y, x, y, ...): its stream
    makes the same draws as the others, and the slice discards them.
    """
    lam = uniform_rows(rngs, dim, lam_lo, lam_hi)
    q = random_orthogonal(dim, rngs)
    if corner is not None:
        lam[0] = [corner[j % 2] for j in range(dim)]
        q[0] = np.eye(dim)
    return _compose(q, lam)


def random_spd(dim: int, lam_lo: float, lam_hi: float, seed: int) -> SymStack:
    """Random SPD matrix with spectrum drawn uniformly from [lam_lo, lam_hi],
    as a stack of one slice.

    The recommended eigenvalue range is within [1e-3, 1e3], to respect the
    condition cap of the means module.
    """
    if not 0 < lam_lo <= lam_hi:
        raise ValueError(f"need 0 < lam_lo <= lam_hi, got [{lam_lo!r}, {lam_hi!r}]")
    if dim < 1:
        raise ValueError("dim must be positive")
    return _spd([SplitMix64(seed)], dim, lam_lo, lam_hi)


def estimate_sandwich(A: SymStack, B: SymStack) -> tuple:
    """The arrays of tightest scalars (s*, t*) with s* A <= B <= t* A over
    the slices of two stacks.

    These are the extreme eigenvalues of A^(-1/2) B A^(-1/2), which
    ``inner_matrix`` remembers on A, solved, for the first partner B: the
    sandwich cell's check and the means of the same pair solve it once.
    """
    if (decompose(A).eigenvalues[:, 0] <= 0.0).any():
        raise NotPositiveDefiniteError("first argument must be positive definite")
    return spectrum_bounds(inner_matrix(A, B))


def _slices(X: SymStack, *values) -> zip:
    """The values' rows as Python floats, one per slice of X: each value is
    a number for every slice, or a sequence or array with one per slice."""
    return zip(*(np.broadcast_to(v, len(X)).tolist() for v in values))


@dataclass(frozen=True)
class SandwichPair:
    """Two stacks of PD pairs with certified sandwich scalars: s A <= B <= t A,
    with s and t one number or one per slice."""

    A: SymStack
    B: SymStack
    s: float
    t: float

    def verify(self, tol_rel: float = LOEWNER_TOL_REL) -> None:
        """Raise for the first slice whose tightest scalars leave [s, t], or
        are not numbers."""
        for lo, hi, s, t in _slices(self.A, *estimate_sandwich(self.A, self.B), self.s, self.t):
            tol = max(1e-12, tol_rel * max(1.0, t))
            if not (lo >= s - tol and hi <= t + tol):
                raise HypothesisError(f"sandwich hypothesis fails: tightest [{lo:.6g}, {hi:.6g}] "
                                      f"outside [{s:.6g}, {t:.6g}]")


@dataclass(frozen=True)
class BoundedPair:
    """Two stacks of PD pairs with two-sided scalar bounds: m I <= A, B <= M I,
    with m and M one number or one per slice."""

    A: SymStack
    B: SymStack
    m: float
    M: float

    def verify(self, tol_rel: float = LOEWNER_TOL_REL) -> None:
        """Raise for A's first slice whose spectrum leaves [m, M], then for B's."""
        for name, X in (("A", self.A), ("B", self.B)):
            verify_spectrum(name, X, self.m, self.M, tol_rel)


def verify_spectrum(name: str, X: SymStack, m, M, tol_rel: float = LOEWNER_TOL_REL) -> None:
    """Raise for the first slice of X whose spectrum leaves [m, M], or is not
    a number; ``m`` and ``M`` are scalars or one value per slice."""
    for lo, hi, m_k, M_k in _slices(X, *spectrum_bounds(X), m, M):
        tol = max(1e-12, tol_rel * max(1.0, M_k))
        if not (lo >= m_k - tol and hi <= M_k + tol):
            raise HypothesisError(f"bound hypothesis fails for {name}: spectrum "
                                  f"[{lo:.6g}, {hi:.6g}] outside [{m_k:.6g}, {M_k:.6g}]")


def _sandwich_pair(rngs, dim: int, s, t, corner: bool = False) -> tuple:
    """The stacks (A, B) of one sandwich pair per stream, with the spectrum
    of A in ``A_SPECTRUM`` and B = A^(1/2) C A^(1/2), C with spectrum in
    [s, t]; ``s`` and ``t`` hold one value per stream.

    A ``corner`` pins slice 0 to the commuting boundary pair A = diag(1, 4,
    1, ...), C = diag(t, s, t, ...).  The pair is built, not verified: A
    keeps its decomposition, from which the sandwich cell's check solves
    the inner matrix that the certificates of the same stacks read again.
    """
    A = _spd(rngs, dim, *A_SPECTRUM, (1.0, 4.0) if corner else None)
    return A, _sandwiched(A, _spd(rngs, dim, s, t, (t[0], s[0]) if corner else None))


def _bounded_pair(rngs, dim: int, m, M, corner: bool = False) -> tuple:
    """The stacks (A, B) of one independent pair per stream, both spectra
    in [m, M]; ``m`` and ``M`` hold one value per stream.  A ``corner``
    pins slice 0 to the commuting boundary pair with anti-aligned spectra:
    m, M, m, ... for A and M, m, M, ... for B.  The pair is built, not
    verified: the bounded cell's check decomposes A and B."""
    a_corner, b_corner = ((m[0], M[0]), (M[0], m[0])) if corner else (None, None)
    return _spd(rngs, dim, m, M, a_corner), _spd(rngs, dim, m, M, b_corner)
