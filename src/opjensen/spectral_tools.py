"""Spectral calculus beyond plain diagonalization.

Spectral projections with eigenvalue clustering, Jordan decomposition,
generalized singular-number step functions, the Murray-von Neumann spectral
pre-order, monotone/sign splitting of convex functions, pinchings, and the
projection-lattice rank identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (
    BoundaryAmbiguityError,
    ConvexityError,
    DimensionError,
    PartitionError,
)
from .intervals import Interval
from .linalg_core import (
    DEFAULT_TOL,
    SpectralDecomposition,
    ToleranceConfig,
    as_complex,
    frob,
    hermitian_eig,
    hermitian_eigvals,
    require_square,
)
from .tensor_ops import BlockAlgebra

if TYPE_CHECKING:
    from .convex_catalog import ScalarFunction


# ---------------------------------------------------------------------------
# Spectral projections and Jordan decomposition
# ---------------------------------------------------------------------------

def _cluster_tol(w: np.ndarray, tol: ToleranceConfig) -> float:
    """Width within which eigenvalues of the spectrum w count as one cluster:
    eig_cluster_tol * max(1, |w|_max)."""
    return tol.eig_cluster_tol * max(1.0, float(np.max(np.abs(w))) if len(w) else 0.0)


def _cluster_eigenvalues(w: np.ndarray, cluster_tol: float) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters separated by > cluster_tol.

    Returns index arrays, one per cluster.
    """
    n = len(w)
    clusters = []
    start = 0
    for i in range(1, n):
        if w[i] - w[i - 1] > cluster_tol:
            clusters.append(np.arange(start, i))
            start = i
    clusters.append(np.arange(start, n))
    return clusters


def spectral_projection(
    h,
    interval: Interval,
    tol: ToleranceConfig = DEFAULT_TOL,
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Projection onto the eigenspaces of h with eigenvalues in `interval`.

    Eigenvalues are clustered within eig_cluster_tol * max(1, |spec|) and
    membership is decided on the cluster mean. A cluster that touches a
    finite endpoint of the interval within the cluster tolerance raises
    BoundaryAmbiguityError: the caller must perturb the endpoint or resample.
    """
    dec = decomp if decomp is not None else hermitian_eig(h)
    w = dec.eigenvalues
    ctol = _cluster_tol(w, tol)
    keep = np.zeros(len(w), dtype=bool)
    for idx in _cluster_eigenvalues(w, ctol):
        lo_val, hi_val = float(w[idx[0]]), float(w[idx[-1]])
        for endpoint in interval.finite_endpoints():
            if lo_val - ctol <= endpoint <= hi_val + ctol:
                raise BoundaryAmbiguityError(
                    f"eigenvalue cluster [{lo_val!r}, {hi_val!r}] straddles "
                    f"interval endpoint {endpoint!r} within tolerance {ctol:.3e}"
                )
        rep = float(np.mean(w[idx]))
        if interval.contains(rep):
            keep[idx] = True
    u = dec.eigenvectors[:, keep]
    return u @ u.conj().T


def snap_away_from_spectrum(value: float, eigenvalues: np.ndarray, cluster_tol: float) -> float:
    """Move a spectral-window endpoint rightward off eigenvalue clusters.

    Spectral projections reject endpoints within the cluster tolerance c of
    an eigenvalue; this resolves the ambiguity deterministically: each value
    in [lo - 3c, hi + 6c) of a cluster [lo, hi], clusters taken in ascending
    order, moves to hi + 6c. Each such step is non-decreasing, so the whole
    map is too, and a sorted boundary list stays sorted; the result sits at
    least 3c from every cluster.
    """
    if not math.isfinite(value) or len(eigenvalues) == 0:
        return value
    w = np.sort(np.asarray(eigenvalues, dtype=float))
    margin = 3.0 * cluster_tol
    for idx in _cluster_eigenvalues(w, cluster_tol):
        target = float(w[idx[-1]]) + margin + margin
        if float(w[idx[0]]) - margin <= value < target:
            value = target
    return value


def jordan_split(h) -> tuple[np.ndarray, np.ndarray]:
    """Jordan decomposition h = pos - neg with pos, neg >= 0 and pos*neg = 0."""
    dec = hermitian_eig(h)
    return (dec.with_eigenvalues(np.clip(dec.eigenvalues, 0.0, None)),
            dec.with_eigenvalues(np.clip(-dec.eigenvalues, 0.0, None)))


# ---------------------------------------------------------------------------
# Generalized singular numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepFunction:
    """Nonincreasing, right-continuous step function with compact support.

    Value values[i] is taken on [breakpoints[i], breakpoints[i+1]); the
    function is 0 from breakpoints[-1] on.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values) + 1:
            raise ValueError("need exactly one more breakpoint than values")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ValueError("breakpoints must be ascending")
        if any(v < 0 for v in self.values):
            raise ValueError("values must be nonnegative")
        if list(self.values) != sorted(self.values, reverse=True):
            raise ValueError("values must be nonincreasing")

    def __call__(self, t: float) -> float:
        if t < self.breakpoints[0]:
            raise ValueError(f"step function defined for t >= {self.breakpoints[0]}")
        for i, v in enumerate(self.values):
            if self.breakpoints[i] <= t < self.breakpoints[i + 1]:
                return v
        return 0.0

    def integral(self) -> float:
        return sum(
            v * (self.breakpoints[i + 1] - self.breakpoints[i])
            for i, v in enumerate(self.values)
        )


def singular_value_function(x, algebra: BlockAlgebra) -> StepFunction:
    """mu_t of a block-diagonal element: the decreasing rearrangement of the
    singular values, each occupying a t-interval of its block's trace weight.
    """
    pieces: list[tuple[float, float]] = []
    for w, blk in zip(algebra.trace_weights, algebra.blocks(x)):
        for s in np.linalg.svd(blk, compute_uv=False):
            pieces.append((float(s), w))
    pieces.sort(key=lambda vs: -vs[0])
    cutoff = 1e-13 * pieces[0][0] if pieces else 0.0
    breakpoints = [0.0]
    values = []
    for val, width in pieces:
        if val <= cutoff:
            break
        values.append(val)
        breakpoints.append(breakpoints[-1] + width)
    return StepFunction(tuple(breakpoints), tuple(values))


# ---------------------------------------------------------------------------
# Spectral pre-order
# ---------------------------------------------------------------------------

def _block_spectra(x, algebra: BlockAlgebra) -> list[np.ndarray]:
    """Eigenvalues of each block of x."""
    return [hermitian_eigvals(blk) for blk in algebra.blocks(x)]


def _preorder_s_grid(spectra: list[np.ndarray], cluster_tol: float) -> list[float]:
    """Midpoints between consecutive distinct eigenvalues of the merged
    spectrum, plus one point below the minimum.

    Counting functions only change at eigenvalues, so this grid is exhaustive.
    """
    merged = np.sort(np.concatenate([s for s in spectra if len(s)]))
    if len(merged) == 0:
        return [0.0]
    reps = [float(np.mean(merged[idx])) for idx in _cluster_eigenvalues(merged, cluster_tol)]
    grid = [reps[0] - 1.0]
    for a, b in zip(reps, reps[1:]):
        grid.append(0.5 * (a + b))
    return grid


def preorder_violation(
    a,
    b,
    algebra: BlockAlgebra,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> dict | None:
    """First witness of a failure of the spectral pre-order a <~ b, or None.

    a <~ b holds when, for every level s and every block k, the number of
    eigenvalues of a_k above s does not exceed the number for b_k; in a
    direct sum of matrix factors, Murray-von Neumann subequivalence of the
    spectral projections is exactly this blockwise rank inequality.
    """
    spec_a = _block_spectra(a, algebra)
    spec_b = _block_spectra(b, algebra)
    ctol = _cluster_tol(np.concatenate(spec_a + spec_b), tol)
    for s in _preorder_s_grid(spec_a + spec_b, ctol):
        for k, (wa, wb) in enumerate(zip(spec_a, spec_b)):
            count_a = int(np.sum(wa > s))
            count_b = int(np.sum(wb > s))
            if count_a > count_b:
                return {"s": s, "block": k, "count_a": count_a, "count_b": count_b}
    return None


# ---------------------------------------------------------------------------
# Monotone/sign splitting of convex functions
# ---------------------------------------------------------------------------

def _ternary_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    width_target = 1e-12 * (hi - lo)
    a, b = lo, hi
    while b - a > width_target:
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if f(m1) < f(m2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def _bisect_zero(f: Callable[[float], float], lo: float, hi: float, increasing: bool) -> float:
    """Zero of a monotone f with a sign change on [lo, hi]."""
    width_target = 1e-14 * max(abs(lo), abs(hi), 1.0)
    a, b = lo, hi
    while b - a > width_target:
        m = 0.5 * (a + b)
        fm = f(m)
        if (fm < 0.0) == increasing:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _grid_convexity_check(f: Callable[[float], float], lo: float, hi: float) -> None:
    ts = np.linspace(lo, hi, 65)
    fs = np.array([f(float(t)) for t in ts])
    scale = max(1.0, float(np.max(np.abs(fs))))
    mids = 0.5 * (fs[:-2] + fs[2:])
    if np.any(fs[1:-1] > mids + 1e-9 * scale):
        i = int(np.argmax(fs[1:-1] - mids)) + 1
        raise ConvexityError(
            f"function is not convex near t = {float(ts[i])!r}: midpoint inequality fails"
        )


def monotone_sign_split(
    f: "ScalarFunction", working: Interval
) -> tuple[Interval | None, Interval | None, Interval | None, Interval | None]:
    """Split a compact interval at the minimizer and sign changes of f.

    f must be continuous and convex on the working interval; non-convexity
    detected on a sampling grid raises ConvexityError. The result is four
    slots, each a maximal piece on which f has constant sign and direction,
    or None where that piece is empty:
    0 nonnegative-decreasing, 1 nonpositive-decreasing,
    2 nonpositive-increasing, 3 nonnegative-increasing.
    Pieces are [start, end) except the last, which is closed, so the
    nonempty slots partition the interval.
    """
    if not working.is_bounded():
        raise ValueError("monotone_sign_split needs a compact working interval")
    lo, hi = working.lo, working.hi
    if lo == hi:
        raise ValueError("working interval is degenerate")
    _grid_convexity_check(f, lo, hi)
    t_min = _ternary_min(f, lo, hi)
    f_min = f(t_min)
    f_lo = f(lo)
    f_hi = f(hi)
    span = hi - lo

    pieces: list[Interval | None] = [None, None, None, None]
    if f_min >= 0.0:
        # No negative part: decreasing nonnegative piece, then increasing.
        if t_min - lo <= 1e-9 * span:
            pieces[3] = Interval.closed(lo, hi)
        elif hi - t_min <= 1e-9 * span:
            pieces[0] = Interval.closed(lo, hi)
        else:
            pieces[0] = Interval.half_open(lo, t_min)
            pieces[3] = Interval.closed(t_min, hi)
        return tuple(pieces)

    z_down = _bisect_zero(f, lo, t_min, increasing=False) if f_lo > 0.0 else lo
    z_up = _bisect_zero(f, t_min, hi, increasing=True) if f_hi > 0.0 else hi
    if z_down > lo:
        pieces[0] = Interval.half_open(lo, z_down)
    if t_min > z_down:
        pieces[1] = Interval.half_open(z_down, t_min)
    if z_up > t_min:
        pieces[2] = Interval.half_open(t_min, z_up)
    if f_hi > 0.0:
        pieces[3] = Interval.closed(z_up, hi)
    elif z_up == hi and pieces[2] is not None:
        # Close the final negative piece so the split covers the interval.
        pieces[2] = Interval.closed(t_min, hi)
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Pinching and the projection-lattice rank identity
# ---------------------------------------------------------------------------

def pinching(x, projections: list[np.ndarray]) -> np.ndarray:
    """sum_i p_i x p_i for a resolution of the identity {p_i}.

    Unital, positive, and trace-preserving. Raises PartitionError if the
    projections are not mutually orthogonal or do not sum to 1 within 1e-10 n.
    """
    a = require_square(as_complex(x))
    n = a.shape[0]
    ps = [as_complex(p) for p in projections]
    total = sum(ps)
    if frob(total - np.eye(n)) > 1e-10 * n:
        raise PartitionError("projections do not sum to the identity")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if frob(ps[i] @ ps[j]) > 1e-10 * n:
                raise PartitionError(f"projections {i} and {j} are not orthogonal")
    out = np.zeros_like(a)
    for p in ps:
        out += p @ a @ p
    return out


def kaplansky_verify(p, q) -> bool:
    """Rank form of the parallelogram identity for a projection pair:
    rank(p v q) - rank(p) == rank(q) - rank(p ^ q).

    p and q must equal their adjoints and squares within
    1e-10 * max(1, ||.||_F). The join is the support of p + q; the meet is
    the complement of the support of (1-p) + (1-q). A rank counts the
    singular values above 1e-11 * s_max and above 1e-10: projections are
    O(1) objects, so sums that vanish up to float dust count as zero.
    """
    pm = as_complex(p)
    qm = as_complex(q)
    if pm.shape != qm.shape:
        raise DimensionError("projections must have equal shape")
    for m in (pm, qm):
        bound = 1e-10 * max(1.0, frob(m))
        if (m.ndim != 2 or m.shape[0] != m.shape[1]
                or frob(m - m.conj().T) > bound or frob(m @ m - m) > bound):
            raise ValueError("kaplansky_verify requires two (numerical) projections")
    n = pm.shape[0]

    def rank(x: np.ndarray) -> int:
        s = np.linalg.svd(x, compute_uv=False)
        return int(np.sum(s > max(1e-11 * s.max(initial=0.0), 1e-10)))

    meet_rank = n - rank(2.0 * np.eye(n) - pm - qm)
    return rank(pm + qm) - rank(pm) == rank(qm) - meet_rank
