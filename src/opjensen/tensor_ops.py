"""Bipartite tensor-product spaces and weighted trace machinery.

Compression by a ⊗ 1, and the left/right slice maps that collapse one tensor
factor against a positive functional given by its density. A weighted
partial trace is the slice against w·1. The first tensor factor is always
the slow (outer) index.

Weighted traces model finite direct sums of matrix factors: on a block
algebra with blocks n_k and weights w_k > 0, the trace of a block-diagonal x
is sum_k w_k * Tr(x_k). A tensor factor is a single block with one weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UsageError, require_within
from .linalg_core import as_complex

__all__ = [
    "MAX_DIM",
    "TensorSpace",
    "BlockAlgebra",
    "require_dims",
    "require_trace_weights",
    "conjugate_compress",
    "slice_map",
]


MAX_DIM = 64  # the largest tensor-factor, map or block dimension (64 x 64 acts on C^4096)


def require_dims(**dims: int) -> None:
    """Refuse, as a DimensionError naming it, a dimension outside 1..MAX_DIM."""
    for name, d in dims.items():
        require_within(name, d, 1, MAX_DIM, DimensionError)


def require_trace_weights(*weights: float) -> None:
    """Refuse, as a usage error, trace weights that are not positive and finite."""
    if not all(0 < w < math.inf for w in weights):
        raise UsageError(f"trace weights must be positive and finite, got {list(weights)}")


@dataclass(frozen=True)
class TensorSpace:
    d1: int
    d2: int

    def __post_init__(self) -> None:
        require_dims(d1=self.d1, d2=self.d2)

    @property
    def total_dim(self) -> int:
        return self.d1 * self.d2

    def reshape4(self, x: np.ndarray) -> np.ndarray:
        """View a (d1 d2) x (d1 d2) matrix as a 4-index tensor [i1,i2,j1,j2]."""
        if x.shape != (self.total_dim, self.total_dim):
            raise DimensionError(
                f"matrix shape {x.shape} does not match space {self.d1}x{self.d2}"
            )
        return x.reshape(self.d1, self.d2, self.d1, self.d2)

    def operand(self, x, factor: int, name: str) -> np.ndarray:
        """`x` as a complex matrix acting on tensor factor 1 or 2, which must
        be d_i x d_i; any other shape is a DimensionError naming `name`."""
        m = as_complex(x)
        d = self.d1 if factor == 1 else self.d2
        if m.shape != (d, d):
            raise DimensionError(f"{name} has shape {m.shape}, expected ({d}, {d}) on factor {factor}")
        return m


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of matrix factors M_{n_k} with positive, finite trace weights w_k."""

    block_dims: tuple[int, ...]
    trace_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))
        object.__setattr__(self, "trace_weights", tuple(float(w) for w in self.trace_weights))
        if len(self.block_dims) != len(self.trace_weights):
            raise DimensionError("block_dims and trace_weights must have equal length")
        if not self.block_dims:
            raise DimensionError("a block algebra needs at least one block")
        for d in self.block_dims:
            require_dims(block_dims=d)
        require_trace_weights(*self.trace_weights)

    @classmethod
    def single(cls, dim: int, weight: float = 1.0) -> "BlockAlgebra":
        return cls((dim,), (weight,))

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def blocks(self, x: np.ndarray) -> list[np.ndarray]:
        a = as_complex(x)
        if a.shape != (self.total_dim, self.total_dim):
            raise DimensionError(
                f"matrix shape {a.shape} does not match algebra of total dim {self.total_dim}"
            )
        ends = list(itertools.accumulate(self.block_dims))
        return [a[end - d:end, end - d:end] for d, end in zip(self.block_dims, ends)]

    def trace(self, x: np.ndarray) -> float:
        """Weighted trace sum_k w_k Tr(x_k) of a (block-diagonal) element."""
        total = 0.0 + 0.0j
        for w, blk in zip(self.trace_weights, self.blocks(x)):
            total += w * np.trace(blk)
        return float(total.real)


def conjugate_compress(x, a, space: TensorSpace) -> np.ndarray:
    """(a* (x) 1) X (a (x) 1) for a acting on the first factor."""
    xm = as_complex(x)
    space.reshape4(xm)  # refuses a shape that does not match the space
    e = np.kron(space.operand(a, 1, "a"), np.eye(space.d2, dtype=np.complex128))
    return e.conj().T @ xm @ e


def slice_map(x, density, side: str, space: TensorSpace) -> np.ndarray:
    """Slice one tensor factor against the functional omega(y) = Tr(D y)
    given by its Hermitian density D.

    side='right': R_omega with omega on the second factor,
        R(a (x) b) = a * omega(b), output on the first factor.
    side='left':  L_omega with omega on the first factor,
        L(a (x) b) = omega(a) * b, output on the second factor.

    D = w·1 gives the partial trace weighted by w (the weighted trace
    w Tr of a single-block factor), and a density matrix gives the slice by
    a state. Computed as a contraction of x against conj(D) = D^T; a density
    whose shape does not match the sliced factor raises DimensionError.
    Linear and *-compatible; positive densities give positivity-preserving
    slices.
    """
    t = space.reshape4(as_complex(x))
    dens = space.operand(density, 2 if side == "right" else 1, "density").conj()
    if side == "right":
        return np.einsum("lk,iljk->ij", dens, t)
    if side == "left":
        return np.einsum("lk,likj->ij", dens, t)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
