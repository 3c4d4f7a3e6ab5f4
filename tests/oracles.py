"""Test references beside the library: a matrix as a stack of one slice,
one instance through the evaluator, seeded pairs drawn one at a time, a
brute-force Loewner oracle, and the kernel screens as loops over the grid."""

import math
from types import SimpleNamespace

import numpy as np

from loewner_lab.certificates import BOUNDED, ROWS, SANDWICH, check_stack
from loewner_lab.generate import BoundedPair, SandwichPair, SplitMix64
from loewner_lab.kernels import (DOMINANCE_TOL, SYMMETRY_RTOL, DominanceVerdict,
                                 default_grid)
from loewner_lab.spectral import LOEWNER_TOL_REL, SymStack


def one(entries) -> SymStack:
    """The n x n matrix ``entries`` as a stack of one slice."""
    return SymStack(np.asarray(entries, dtype=float)[None])


def certify(row, A, B, *bounds, constant_multiplier=1.0, tol_rel=LOEWNER_TOL_REL, **picks):
    """The certificate of one instance of ``row`` (a row or its id): the
    one-trial ``Sides`` that ``check_stack`` gives for a stack of one trial,
    or the tuple of them when a trial has more than one, so each scalar of
    the certificate is entry 0 of its column.  A and B are one-slice stacks
    (None where the row's cell holds none), ``bounds`` are the cell's
    bounds, and each pick, ``phi`` for the row's map, is given once."""
    row = ROWS[row] if isinstance(row, str) else row
    sides = check_stack(row, A, B, [bounds], {name: [v] for name, v in picks.items()},
                        constant_multiplier=constant_multiplier, tol_rel=tol_rel).sides
    return sides[0] if len(sides) == 1 else tuple(sides)


def sandwich_pair(dim: int, s: float, t: float, seed: int) -> SandwichPair:
    """A seeded pair with s A <= B <= t A, drawn as one trial of a sandwich
    cell and verified (which remembers the scalars on A)."""
    A, B, _ = SANDWICH.draw([SplitMix64(seed)], dim, SimpleNamespace(s=s, t=t))
    pair = SandwichPair(A, B, float(s), float(t))
    pair.verify()
    return pair


def bounded_pair(dim: int, m: float, M: float, seed: int) -> BoundedPair:
    """A seeded independent pair with both spectra in [m, M], drawn as one
    trial of a bounded cell and verified."""
    A, B, _ = BOUNDED.draw([SplitMix64(seed)], dim, SimpleNamespace(m=m, M=M))
    pair = BoundedPair(A, B, float(m), float(M))
    pair.verify()
    return pair


def quadratic_form_slack(X, Y, samples: int = 1000, seed: int = 0) -> float:
    """Brute-force Loewner oracle: min of v^T (Y - X) v over random unit
    vectors, for two one-slice stacks.

    Always an upper bound on lambda_min(Y - X); used to cross-check the
    eigensolver-based comparison, never to replace it.  The vectors are the
    rows of one ``normal_matrix(samples, n)`` draw, and all the quadratic
    forms are evaluated at once.
    """
    diff = (Y - X).data[0]
    v = SplitMix64(seed).normal_matrix(samples, diff.shape[0])
    norms = np.linalg.norm(v, axis=1)
    v = v[norms != 0.0] / norms[norms != 0.0, None]
    forms = np.einsum("ij,jk,ik->i", v, diff, v)
    return float(forms.min()) if forms.size else math.inf


def kernel_dominance_loop(k1, k2) -> DominanceVerdict:
    """``kernels.kernel_dominance`` as a loop over the default grid, one
    point at a time: the first smallest k2(t) - k1(t) (a nan gap is never
    smaller, so the loop skips it)."""
    grid = default_grid().tolist()
    worst_t, margin = grid[0], math.inf
    for t in grid:
        gap = float(k2.fn(t)) - float(k1.fn(t))
        if gap < margin:
            margin, worst_t = gap, t
    return DominanceVerdict(holds=margin >= -DOMINANCE_TOL, worst_t=worst_t, margin=margin)


def is_symmetric_kernel_loop(kernel) -> bool:
    """``kernels.is_symmetric_kernel`` as a loop over the default grid that
    stops at the first point where k(t) and t * k(1/t) differ (a nan never
    differs)."""
    for t in default_grid().tolist():
        kt = float(kernel.fn(t))
        if abs(kt - t * float(kernel.fn(1.0 / t))) > SYMMETRY_RTOL * (1.0 + kt):
            return False
    return True
