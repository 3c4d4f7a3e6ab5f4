"""Structural catalog of positive linear maps and their application.

A map is one ``MapSpec``, described by what it does rather than by an
abstract matrix representation: each family (Kraus sum, of which a
congruence is one term; pinching, normalized trace, nonnegative mixture) has
one builder that checks its parts and sets the map's label, dimensions and
image.  Positivity is a consequence of the structure; unitality is checked,
never assumed.  ``MapSpec.apply`` maps a SymStack slice by slice, with one
BLAS call per product for the whole stack, and a single matrix is a stack of
one slice; ``apply_each`` gives each slice its own map, with one BLAS call
per product for each distinct map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .spectral import SymStack, _frozen, by_distinct, op_norm, parse_spec, per_slice

UNITALITY_TOL = 1e-10
# The largest instance dimension (SuiteConfig's dims), which bounds each family's size parameter.
MAX_DIM = 16


@dataclass(frozen=True, eq=False)
class MapSpec:
    """A structurally described positive linear map, as its family's builder
    makes it: its label, its dimensions and ``image``, which maps a
    ``(k, n, n)`` entry array to the array of its k images (None: the
    identity).  Maps are told apart by identity."""

    label: str
    input_dim: int
    output_dim: int
    image: Callable | None = field(default=None, repr=False)

    def apply(self, X: SymStack) -> SymStack:
        """The image of each slice of a stack; under the identity, X itself,
        with what it has solved."""
        if X.dim != self.input_dim:
            raise DimensionMismatchError(f"map {self.label!r} expects dim {self.input_dim}, "
                                         f"got {X.dim}")
        return X if self.image is None else SymStack(self.image(X.data))


def IdentityMap(dim: int, label: str = "identity") -> MapSpec:
    return MapSpec(label, dim, dim)


def KrausSumMap(vs: tuple, label: str = "kraus") -> MapSpec:
    """X -> sum_i V_i^T X V_i with all V_i of one nonempty R x C shape; the
    congruence X -> V^T X V is the sum of one term.

    The vertically stacked V_i must have full column rank (trivial kernel) so
    that positive definiteness is preserved.
    """
    vs = tuple(np.array(v, dtype=float) for v in vs)
    shape = vs[0].shape if vs else ()
    if len(shape) != 2 or 0 in shape or any(v.shape != shape for v in vs):
        raise ValueError(f"need nonempty 2-d Kraus terms of one shape, got shapes "
                         f"{[v.shape for v in vs]}")
    # min(rows, cols) singular values: factors with more columns than rows lack rank
    sv = np.linalg.svd(np.vstack(vs), compute_uv=False)
    if sv.size < shape[1] or sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise ValueError("stacked Kraus terms must have full column rank")

    def image(data):
        acc = np.zeros((len(data), shape[1], shape[1]))
        for v in vs:
            acc += v.T @ data @ v
        return acc

    return MapSpec(label, *shape, image)


def PinchingMap(blocks: tuple, label: str = "pinching") -> MapSpec:
    """Block-diagonal pinching for a partition of the index set."""
    blocks = tuple(tuple(int(i) for i in b) for b in blocks)
    flat = [i for b in blocks for i in b]
    n = len(flat)
    if n == 0 or sorted(flat) != list(range(n)):
        raise ValueError("blocks must partition the index range exactly")
    if not all(blocks):
        raise ValueError(f"blocks must each hold at least one index, got {blocks}")
    mask = np.zeros((n, n))
    for b in blocks:
        mask[np.ix_(b, b)] = 1.0
    return MapSpec(label, n, n, lambda data: data * mask)


def NormalizedTraceMap(in_dim: int, out_dim: int, label: str = "ntrace") -> MapSpec:
    """X -> (tr X / n) * I_k."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError("dimensions must be positive")
    return MapSpec(label, in_dim, out_dim, lambda data: (
        np.trace(data, axis1=-2, axis2=-1) / in_dim)[:, None, None] * np.eye(out_dim))


def MixtureMap(weights: tuple, components: tuple, label: str = "mixture") -> MapSpec:
    """Nonnegative combination of maps with matching dimensions.

    Weights need not sum to one: positive linear maps form a cone.
    """
    weights = tuple(float(w) for w in weights)
    components = tuple(components)
    if len(weights) != len(components) or not components:
        raise ValueError("need matching, nonempty weights and components")
    if not all(0 <= w < math.inf for w in weights):
        raise ValueError("weights must be nonnegative" if all(map(math.isfinite, weights))
                         else f"weights must be finite numbers, got {weights}")
    if sum(weights) <= 0:
        raise ValueError("weights must have positive sum")
    dims = {(c.input_dim, c.output_dim) for c in components}
    if len(dims) != 1:
        raise ValueError("components must share input and output dimensions")
    (input_dim, output_dim), = dims

    def image(data):
        X = _stack(data)
        acc = np.zeros((len(data), output_dim, output_dim))
        for w, comp in zip(weights, components):
            acc += w * comp.apply(X).data
        return acc

    return MapSpec(label, input_dim, output_dim, image)


def apply_each(phis, X: SymStack) -> SymStack:
    """Each slice of X under its own map of ``phis`` (one per slice, or one
    for all), all of one output dimension: each distinct map is applied
    once, to its slices, and the images are put back in slice order."""
    phis = per_slice(phis, X)
    if len({id(phi) for phi in phis}) == 1:
        return phis[0].apply(X)  # under the identity, X itself, with what it has solved
    return _stack(by_distinct(phis, lambda phi, rows: phi.apply(_stack(rows)).data, X.data))


def _stack(entries: np.ndarray) -> SymStack:
    """The SymStack of entries that are symmetric already, without a copy."""
    return SymStack.__new__(SymStack)._fill(_frozen(entries))


@dataclass(frozen=True)
class UnitalityVerdict:
    is_unital: bool
    deviation: float


def check_unital(phi: MapSpec) -> UnitalityVerdict:
    """Measure ||phi(I) - I||_op; unital iff it clears UNITALITY_TOL."""
    image = phi.apply(SymStack.identity(phi.input_dim))
    deviation = float(op_norm(image - SymStack.identity(phi.output_dim))[0])
    return UnitalityVerdict(is_unital=deviation <= UNITALITY_TOL, deviation=deviation)


def _identity(arg: str, dim: int, rng, spec: str) -> MapSpec:
    if ":" in spec:
        raise ValueError(f"map 'identity' takes no argument, got {arg!r}")
    return IdentityMap(dim)


def _ntrace(arg: str, dim: int, rng, spec: str) -> MapSpec:
    k = dim if arg.strip().lower() == "full" else int(arg)
    if not 1 <= k <= MAX_DIM:  # before np.eye(k) is allocated
        raise ValueError(f"ntrace output dimension must lie in [1, {MAX_DIM}], got {k}")
    return NormalizedTraceMap(dim, k, label=f"ntrace:{k}")


def _congruence(arg: str, dim: int, rng, spec: str) -> MapSpec:
    sub, _, shape = arg.partition(":")
    if sub.strip().lower() != "random":
        raise ValueError(f"unknown congruence form {spec!r}")
    rows, _, cols = shape.partition("x") if shape else (dim, "x", dim)
    r, c = int(rows), int(cols)
    if r != dim:
        raise ValueError(f"congruence rows {r} must equal the instance dim {dim}")
    if c < 0 or c > MAX_DIM:  # before the factor is drawn; a factor of 0 columns is empty
        raise ValueError(f"congruence columns must lie in [1, {MAX_DIM}], got {c}")
    if rng is None:
        raise ValueError("random congruence map needs an rng")
    return KrausSumMap((rng.normal_matrix(r, c),), label=f"congruence:random:{r}x{c}")


def _kraus(arg: str, dim: int, rng, spec: str) -> MapSpec:
    n = int(arg)
    if not 1 <= n <= MAX_DIM**2:  # Choi: a CP map on M_n has a Kraus sum of at most n^2 terms
        raise ValueError(f"kraus term count must lie in [1, {MAX_DIM**2}], got {n}")
    if rng is None:
        raise ValueError("random kraus map needs an rng")
    return KrausSumMap(tuple(rng.normal_matrix(dim, dim) for _ in range(n)), label=f"kraus:{n}")


def _pinching(arg: str, dim: int, rng, spec: str) -> MapSpec:
    if arg.strip().lower() in ("", "halves"):
        first = max(1, dim // 2)
        sizes = [first, dim - first] if dim - first > 0 else [first]
    else:
        sizes = [int(x) for x in arg.split(",")]
    if sum(sizes) != dim:
        raise ValueError(f"pinching block sizes {sizes} must sum to dim {dim}")
    if min(sizes) < 0:  # before a block's range is built
        raise ValueError(f"pinching block sizes {sizes} must be nonnegative")
    blocks = tuple(tuple(range(end - size, end)) for size, end in zip(sizes, accumulate(sizes)))
    return PinchingMap(blocks, label=f"pinching:{','.join(str(s) for s in sizes)}")


def _mix(arg: str, dim: int, rng, spec: str) -> MapSpec:
    weights, comps = [], []
    for part in arg.split("+"):
        w, _, sub = part.partition("@")
        weights.append(float(w))
        comps.append(parse_map(sub, dim, rng))
    return MixtureMap(tuple(weights), tuple(comps), label=f"mix:{arg}")


_MAP_FAMILIES = {"identity": _identity, "ntrace": _ntrace, "congruence": _congruence,
                 "kraus": _kraus, "pinching": _pinching, "mix": _mix}


def parse_map(spec: str, dim: int, rng=None) -> MapSpec:
    """Build a map from its CLI token for a given input dimension: the
    builder of its family in ``_MAP_FAMILIES`` takes the token's argument,
    the dimension, ``rng`` (which random factors draw from) and the token.

    Vocabulary: ``identity``, ``ntrace:k`` (``ntrace:full`` for k = dim),
    ``congruence:random:RxC``, ``kraus:n``, ``pinching:b1,b2,...`` (block
    sizes), ``mix:w@spec+w@spec``.
    """
    return parse_spec("map", spec, _MAP_FAMILIES, dim, rng, spec)


DEFAULT_MAP_SPECS = (
    "identity",
    "ntrace:1",
    "ntrace:full",
    "pinching:halves",
    "congruence:random",
    "kraus:2",
)
