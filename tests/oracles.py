"""Test references beside the library: a matrix as a stack of one slice,
one instance through the evaluator, seeded pairs drawn one at a time, and a
brute-force Loewner oracle."""

import math

import numpy as np

from loewner_lab.certificates import ROWS, check_stack
from loewner_lab.generate import (BoundedPair, SandwichPair, SplitMix64, _bounded_pair,
                                  _sandwich_pair)
from loewner_lab.spectral import LOEWNER_TOL_REL, SymStack


def one(entries) -> SymStack:
    """The n x n matrix ``entries`` as a stack of one slice."""
    return SymStack(np.asarray(entries, dtype=float)[None])


def certify(row, A, B, *bounds, constant_multiplier=1.0, tol_rel=LOEWNER_TOL_REL, **picks):
    """The certificate of one instance of ``row`` (a row or its id), as
    ``check_stack`` gives it for a stack of one trial, or the tuple of them
    when a trial has more than one.  A and B are one-slice stacks (None
    where the row's cell holds none), ``bounds`` are the cell's bounds,
    and each pick the row names, ``phi`` for its map, is given once."""
    row = ROWS[row] if isinstance(row, str) else row
    per_trial = {"phi", *(name for name, *_ in row.picks)}
    picks = {name: [v] if name in per_trial else v for name, v in picks.items()}
    certs = check_stack(row, A, B, [bounds], picks, constant_multiplier=constant_multiplier,
                        tol_rel=tol_rel).certificates(0)
    return certs[0] if len(certs) == 1 else tuple(certs)


def sandwich_pair(dim: int, s: float, t: float, seed: int) -> SandwichPair:
    """A seeded pair with s A <= B <= t A, drawn as one trial of a sandwich
    cell and verified (which remembers the scalars on A)."""
    A, B = _sandwich_pair([SplitMix64(seed)], dim, [s], [t])
    pair = SandwichPair(A, B, float(s), float(t))
    pair.verify()
    return pair


def bounded_pair(dim: int, m: float, M: float, seed: int) -> BoundedPair:
    """A seeded independent pair with both spectra in [m, M], drawn as one
    trial of a bounded cell and verified."""
    A, B = _bounded_pair([SplitMix64(seed)], dim, [m], [M])
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
