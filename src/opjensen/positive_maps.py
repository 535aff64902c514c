"""Positive, unital, and contractive linear maps on matrix algebras.

Two representations: Kraus families {V_k} acting as x |-> sum_k V_k* x V_k,
and a generic action matrix on column-major vectorized inputs (needed for
maps with no Kraus form, such as the transpose). Generators produce the map
kinds the campaigns exercise, including positive-but-not-completely-positive
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .linalg_core import (
    as_complex,
    frob,
    hermitian_eigvals,
    random_hermitian,
    random_isometry,
    random_unitary,
)
from .tensor_ops import TensorSpace, require_dims, require_trace_weights

__all__ = [
    "PositiveMap",
    "MAP_KINDS",
    "KIND_FLAGS",
    "Flags",
    "apply_map",
    "choi_matrix",
    "identity_map",
    "transpose_map",
    "slice_compress_map",
    "random_positive_map",
]


class Flags(NamedTuple):
    """Whether a map is positive, unital and contractive."""

    positive: bool
    unital: bool
    contractive: bool


# The flags each kind's maps are built with: the kinds that are not unital
# are contractive only.
KIND_FLAGS = {
    "ucp_stinespring": Flags(True, True, True),
    "transpose": Flags(True, True, True),
    "pinching": Flags(True, True, True),
    "scaled_contractive": Flags(True, False, True),
    "zero": Flags(True, False, True),
}
MAP_KINDS = tuple(KIND_FLAGS)

_FLAG_TOL = 1e-10  # slack of the numerically derived map flags


@dataclass(frozen=True)
class PositiveMap:
    """A linear map between matrix algebras with construction-time flags.

    Exactly one of `kraus` / `action` is set. Kraus maps act as
    sum_k V_k* x V_k with V_k of shape (in_dim, out_dim); generic maps act on
    column-major vectorizations through an (out_dim^2 x in_dim^2) matrix.
    Positivity is claimed: `claimed_positive` records what the construction
    guarantees. Unitality and contractivity are measured on Phi(1) by
    `unital_contractive`.
    """

    kind: str
    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...] | None = None
    action: np.ndarray | None = field(default=None, repr=False)
    claimed_positive: bool = True

    def __post_init__(self) -> None:
        require_dims(in_dim=self.in_dim, out_dim=self.out_dim)
        if (self.kraus is None) == (self.action is None):
            raise ValueError("exactly one of kraus/action must be provided")
        if self.kraus is not None:
            ops = tuple(as_complex(v) for v in self.kraus)
            for v in ops:
                if v.shape != (self.in_dim, self.out_dim):
                    raise DimensionError(
                        f"Kraus operator shape {v.shape} != ({self.in_dim}, {self.out_dim})"
                    )
            object.__setattr__(self, "kraus", ops)
        else:
            act = as_complex(self.action)
            if act.shape != (self.out_dim ** 2, self.in_dim ** 2):
                raise DimensionError(
                    f"action shape {act.shape} != ({self.out_dim ** 2}, {self.in_dim ** 2})"
                )
            object.__setattr__(self, "action", act)

    def on_identity(self) -> np.ndarray:
        return apply_map(self, np.eye(self.in_dim))

    def unital_contractive(self) -> tuple[bool, bool]:
        """Numerical (unital, contractive) flags from Phi(1).

        Unitality from ||Phi(1) - 1||_F; contractivity from the largest
        eigenvalue of Phi(1), which characterizes it for positive maps.
        """
        one_img = self.on_identity()
        unital = frob(one_img - np.eye(self.out_dim)) <= _FLAG_TOL
        lam_max = float(hermitian_eigvals(one_img)[-1])
        return unital, lam_max <= 1.0 + _FLAG_TOL


def _vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization, fixed project-wide for generic maps."""
    return x.flatten(order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def apply_map(phi: PositiveMap, x) -> np.ndarray:
    xm = as_complex(x)
    if xm.shape != (phi.in_dim, phi.in_dim):
        raise DimensionError(f"input shape {xm.shape} != ({phi.in_dim}, {phi.in_dim})")
    if phi.kraus is not None:
        out = np.zeros((phi.out_dim, phi.out_dim), dtype=np.complex128)
        for v in phi.kraus:
            out += v.conj().T @ xm @ v
        return out
    return _unvec(phi.action @ _vec(xm), phi.out_dim)


def choi_matrix(phi: PositiveMap) -> np.ndarray:
    """sum_ij E_ij (x) Phi(E_ij); positive semidefinite iff Phi is CP."""
    d = phi.in_dim
    n = phi.out_dim
    choi = np.zeros((d * n, d * n), dtype=np.complex128)
    basis = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            basis[i, j] = 1.0
            block = apply_map(phi, basis)
            choi[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
            basis[i, j] = 0.0
    return choi


def identity_map(dim: int) -> PositiveMap:
    return PositiveMap(
        kind="identity", in_dim=dim, out_dim=dim,
        kraus=(np.eye(dim, dtype=np.complex128),),
    )


def transpose_map(dim: int) -> PositiveMap:
    """The transpose: positive and unital but not completely positive."""
    act = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            # vec index of entry (m, n) is m + n*dim; transpose sends (i, j) -> (j, i)
            act[j + i * dim, i + j * dim] = 1.0
    return PositiveMap(kind="transpose", in_dim=dim, out_dim=dim, action=act)


def pinching_map(projections: list[np.ndarray]) -> PositiveMap:
    ps = tuple(as_complex(p) for p in projections)
    dim = ps[0].shape[0]
    return PositiveMap(kind="pinching", in_dim=dim, out_dim=dim, kraus=ps)


def slice_compress_map(a, space: TensorSpace, w1: float) -> PositiveMap:
    """X |-> w1 * (Tr_1 (x) id)[(a* (x) 1) X (a (x) 1)] as a Kraus map.

    Completely positive; unital exactly when the weighted trace
    w1 * Tr(a* a) equals 1, contractive when it is <= 1.
    """
    am = space.operand(a, 1, "a")
    require_trace_weights(w1)
    eye2 = np.eye(space.d2, dtype=np.complex128)
    root = np.sqrt(w1)
    ops = tuple(root * np.kron(am[:, i:i + 1], eye2) for i in range(space.d1))
    return PositiveMap(kind="slice_compress", in_dim=space.total_dim, out_dim=space.d2, kraus=ops)


def _random_partition(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split range(n) into 2..min(4, n) consecutive nonempty groups."""
    if n == 1:
        return [np.array([0])]
    k = int(rng.integers(2, min(4, n) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
    bounds = [0] + cuts + [n]
    return [np.arange(a, b) for a, b in zip(bounds, bounds[1:])]


def random_positive_map(kind: str, in_dim: int, out_dim: int, rng: np.random.Generator) -> PositiveMap:
    """Random map of one of the supported kinds, drawn from `rng`.

    ucp_stinespring: V*(x (x) 1_e)V for a Haar isometry V (unital, CP).
    transpose:       positive and unital, not CP (negative Choi eigenvalue).
    pinching:        from a random resolution of the identity (unital, CP).
    scaled_contractive: c * Psi for a UCP Psi, c uniform in (0, 1).
    zero:            the zero map (positive and contractive, not unital).
    expansive:       c * Psi for a UCP Psi, c uniform in [1.25, 2) (positive,
                     neither unital nor contractive).
    nonpositive_unital: a random Hermitian block matrix read as the values on
                     matrix units, made unital by a trace term (generically
                     not positive).

    The last two break a hypothesis on purpose, for ablation searches, and
    are not in MAP_KINDS, so campaigns refuse them. transpose, pinching and
    nonpositive_unital map M_in_dim to itself and ignore `out_dim`; the map's
    `out_dim` is the dimension it maps into.
    """
    require_dims(in_dim=in_dim, out_dim=out_dim)
    if kind == "transpose":
        return transpose_map(in_dim)
    if kind == "zero":
        return PositiveMap(
            kind="zero", in_dim=in_dim, out_dim=out_dim,
            kraus=(np.zeros((in_dim, out_dim), dtype=np.complex128),),
        )
    if kind == "pinching":
        u = random_unitary(in_dim, rng)
        ps = []
        for group in _random_partition(in_dim, rng):
            cols = u[:, group]
            ps.append(cols @ cols.conj().T)
        return pinching_map(ps)
    if kind == "nonpositive_unital":
        n = in_dim
        # Block (i, j) of c, entry (m, mm), is the value on matrix unit e_ij at
        # row m + mm*n, column i + j*n of the column-major action matrix.
        # Adding (1 - Phi(1)) / n to each Phi(e_ii) makes the map unital.
        c = random_hermitian(n * n, rng)
        act = c.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)
        r = np.eye(n) - _unvec(act @ _vec(np.eye(n, dtype=np.complex128)), n)
        act4 = act.reshape(n, n, n, n)
        for i in range(n):
            act4[:, :, i, i] += (r / n).T
        return PositiveMap(kind=kind, in_dim=n, out_dim=n, action=act, claimed_positive=False)
    if kind in ("ucp_stinespring", "scaled_contractive", "expansive"):
        env = 2
        while in_dim * env < out_dim:
            env += 1
        isometry = random_isometry(in_dim * env, out_dim, rng)
        ops = tuple(
            np.ascontiguousarray(isometry[k::env, :]) for k in range(env)
        )
        if kind == "ucp_stinespring":
            return PositiveMap(kind=kind, in_dim=in_dim, out_dim=out_dim, kraus=ops)
        contractive = kind == "scaled_contractive"
        c = float(rng.uniform()) if contractive else 1.0 + float(rng.uniform(0.25, 1.0))
        scaled = tuple(np.sqrt(c) * v for v in ops)
        return PositiveMap(kind=kind, in_dim=in_dim, out_dim=out_dim, kraus=scaled)
    raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
