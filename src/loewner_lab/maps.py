"""Structural catalog of positive linear maps and their application.

Each map is described by what it does (congruence, Kraus sum, pinching,
normalized trace, nonnegative mixture) rather than by an abstract matrix
representation.  Positivity is a consequence of the structure; unitality is
checked, never assumed.  ``apply`` maps a SymStack slice by slice, with one
BLAS call per product for the whole stack, and a single matrix is a stack of
one slice; ``apply_each`` gives each slice its own map, with one BLAS call
per product for each distinct map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .spectral import SymStack, _frozen, by_distinct, op_norm, parse_spec, per_slice

UNITALITY_TOL = 1e-10


class MapSpec:
    """Base class for structurally described positive linear maps; each map
    sets its ``input_dim`` and ``output_dim`` once, as it is built."""

    input_dim: int
    output_dim: int
    label: str

    def _set_dims(self, input_dim: int, output_dim: int) -> None:
        object.__setattr__(self, "input_dim", input_dim)
        object.__setattr__(self, "output_dim", output_dim)

    def apply(self, X: SymStack) -> SymStack:
        """The image of each slice of a stack."""
        raise NotImplementedError

    def _check_input(self, X: SymStack) -> SymStack:
        if X.dim != self.input_dim:
            raise DimensionMismatchError(
                f"map {self.label!r} expects dim {self.input_dim}, got {X.dim}"
            )
        return X


@dataclass(frozen=True, eq=False)
class IdentityMap(MapSpec):
    dim: int
    label: str = "identity"

    def __post_init__(self):
        self._set_dims(self.dim, self.dim)

    def apply(self, X: SymStack) -> SymStack:
        return self._check_input(X)


@dataclass(frozen=True, eq=False)
class CongruenceMap(MapSpec):
    """X -> V^T X V for a full-column-rank rectangular V."""

    v: np.ndarray
    label: str = "congruence"

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("V must be a nonempty 2-d matrix")
        sv = np.linalg.svd(v, compute_uv=False)  # min(rows, cols) values: a wide V lacks rank
        if sv.size < v.shape[1] or sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise ValueError("V must have full column rank")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        self._set_dims(*v.shape)

    def apply(self, X: SymStack) -> SymStack:
        X = self._check_input(X)
        return SymStack(self.v.T @ X.data @ self.v)


@dataclass(frozen=True, eq=False)
class KrausSumMap(MapSpec):
    """X -> sum_i V_i^T X V_i with all V_i of equal shape.

    The vertically stacked V_i must have trivial kernel so that positive
    definiteness is preserved.
    """

    vs: tuple
    label: str = "kraus"

    def __post_init__(self):
        vs = tuple(np.array(v, dtype=float) for v in self.vs)
        if not vs:
            raise ValueError("need at least one Kraus term")
        shape = vs[0].shape
        if any(v.ndim != 2 or v.shape != shape for v in vs):
            raise ValueError("all Kraus terms must share one rectangular shape")
        sv = np.linalg.svd(np.vstack(vs), compute_uv=False)
        if sv.size < shape[1] or sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise ValueError("stacked Kraus terms must have full column rank")
        for v in vs:
            v.setflags(write=False)
        object.__setattr__(self, "vs", vs)
        self._set_dims(*shape)

    def apply(self, X: SymStack) -> SymStack:
        X = self._check_input(X)
        acc = np.zeros(_image_shape(self, X))
        for v in self.vs:
            acc += v.T @ X.data @ v
        return SymStack(acc)


@dataclass(frozen=True, eq=False)
class PinchingMap(MapSpec):
    """Block-diagonal pinching for a partition of the index set."""

    blocks: tuple
    label: str = "pinching"
    _mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        flat = [i for b in blocks for i in b]
        n = len(flat)
        if n == 0 or sorted(flat) != list(range(n)):
            raise ValueError("blocks must partition the index range exactly")
        if not all(blocks):
            raise ValueError(f"blocks must each hold at least one index, got {blocks}")
        mask = np.zeros((n, n))
        for b in blocks:
            idx = np.array(b)
            mask[np.ix_(idx, idx)] = 1.0
        mask.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_mask", mask)
        self._set_dims(n, n)

    def apply(self, X: SymStack) -> SymStack:
        X = self._check_input(X)
        return SymStack(X.data * self._mask)


@dataclass(frozen=True, eq=False)
class NormalizedTraceMap(MapSpec):
    """X -> (tr X / n) * I_k."""

    in_dim: int
    out_dim: int
    label: str = "ntrace"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("dimensions must be positive")
        self._set_dims(self.in_dim, self.out_dim)

    def apply(self, X: SymStack) -> SymStack:
        X = self._check_input(X)
        value = np.trace(X.data, axis1=-2, axis2=-1) / self.in_dim
        return SymStack(value[:, None, None] * np.eye(self.out_dim))


@dataclass(frozen=True, eq=False)
class MixtureMap(MapSpec):
    """Nonnegative combination of maps with matching dimensions.

    Weights need not sum to one: positive linear maps form a cone.
    """

    weights: tuple
    components: tuple
    label: str = "mixture"

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        components = tuple(self.components)
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
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)
        self._set_dims(*dims.pop())

    def apply(self, X: SymStack) -> SymStack:
        X = self._check_input(X)
        acc = np.zeros(_image_shape(self, X))
        for w, comp in zip(self.weights, self.components):
            acc += w * comp.apply(X).data
        return SymStack(acc)


def _image_shape(phi: MapSpec, X: SymStack) -> tuple:
    return len(X), phi.output_dim, phi.output_dim


def apply_each(phis, X: SymStack) -> SymStack:
    """Each slice of X under its own map of ``phis`` (one per slice, or one
    for all), all of one output dimension: each distinct map is applied
    once, to its slices, and the images are put back in slice order."""
    phis = per_slice(phis, X)
    if len({id(phi) for phi in phis}) == 1:
        return phis[0].apply(X)  # under the identity, X itself, with what it has solved
    images = by_distinct(phis, lambda phi, rows: phi.apply(_stack(rows)).data, X.data)
    return _stack(images)


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


def _ntrace(arg: str, dim: int, rng, spec: str) -> MapSpec:
    k = dim if arg.strip().lower() == "full" else int(arg)
    return NormalizedTraceMap(dim, k, label=f"ntrace:{k}")


def _congruence(arg: str, dim: int, rng, spec: str) -> MapSpec:
    sub, _, shape = arg.partition(":")
    if sub.strip().lower() != "random":
        raise ValueError(f"unknown congruence form {spec!r}")
    if shape:
        rows, _, cols = shape.partition("x")
        r, c = int(rows), int(cols)
    else:
        r, c = dim, dim
    if r != dim:
        raise ValueError(f"congruence rows {r} must equal the instance dim {dim}")
    if rng is None:
        raise ValueError("random congruence map needs an rng")
    return CongruenceMap(rng.normal_matrix(r, c), label=f"congruence:random:{r}x{c}")


def _kraus(arg: str, dim: int, rng, spec: str) -> MapSpec:
    n = int(arg)
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
    blocks, start = [], 0
    for size in sizes:
        blocks.append(tuple(range(start, start + size)))
        start += size
    return PinchingMap(tuple(blocks), label=f"pinching:{','.join(str(s) for s in sizes)}")


def _mix(arg: str, dim: int, rng, spec: str) -> MapSpec:
    weights, comps = [], []
    for part in arg.split("+"):
        w, _, sub = part.partition("@")
        weights.append(float(w))
        comps.append(parse_map(sub, dim, rng))
    return MixtureMap(tuple(weights), tuple(comps), label=f"mix:{arg}")


_MAP_FAMILIES = {"identity": lambda arg, dim, rng, spec: IdentityMap(dim), "ntrace": _ntrace,
                 "congruence": _congruence, "kraus": _kraus, "pinching": _pinching, "mix": _mix}


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
