"""Dense complex matrix arithmetic.

Hermitian eigendecomposition (cyclic complex Jacobi), Hermitian spectra
(LAPACK, through `np.linalg.eigvalsh`), functional calculus, and seeded
random generators for every kind of test object the verification campaigns
consume. A query that needs only the spectrum uses LAPACK; a full
decomposition (eigenvectors too) still uses Jacobi. A polynomial function
(one whose `poly` coefficients are set) is evaluated as a matrix polynomial
and skips the eigensolver.

Conventions fixed project-wide:
  * the FIRST tensor factor is the slow (outer) index;
  * randomness flows through numpy PCG64 generators derived from explicit
    integer entropy tuples, so a generator called with the same dims on the
    stream of the same entropy always reproduces the same object.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, DomainError, NonHermitianError, NumericError, require_within

if TYPE_CHECKING:
    from .convex_catalog import ScalarFunction

_MAX_SWEEPS = 100
_OFF_DIAG_FACTOR = 1e-14
_HERMITIZE_REJECT = 1e-8
# The least eig_cluster_tol, 100x the Jacobi stopping factor: below it the
# eigensolver's rounding splits repeated eigenvalues, and the pre-order lemma
# and the pinching chain FAIL on that noise (18 of 800 small trials at 1e-15,
# 99 at 1e-16, none at 1e-14; at 0 a trial resampled until it gave up).
_MIN_EIG_CLUSTER_TOL = 1e-12
MAX_DIM = 64  # the largest tensor-factor, map or block dimension (64 x 64 acts on C^4096)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances threaded through every check."""

    atol: float = 1e-9
    rtol: float = 1e-9
    eig_cluster_tol: float = 1e-10

    def __post_init__(self) -> None:
        for value in (self.atol, self.rtol, self.eig_cluster_tol):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerances must be finite and nonnegative, got {value!r}")
        if self.eig_cluster_tol < _MIN_EIG_CLUSTER_TOL:
            raise ValueError(f"eig_cluster_tol must be at least {_MIN_EIG_CLUSTER_TOL!r}, "
                             f"got {self.eig_cluster_tol!r}")

    def bound(self, *values: float) -> float:
        """One-sided pass margin: atol + rtol * max(1, |values|...)."""
        scale = 1.0
        for v in values:
            scale = max(scale, abs(v))
        return self.atol + self.rtol * scale


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order, eigenvectors as unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T

    def with_eigenvalues(self, values) -> np.ndarray:
        """U diag(values) U* on these eigenvectors, symmetrized to (M + M*)/2
        so the result is exactly self-adjoint."""
        u = self.eigenvectors
        out = (u * values) @ u.conj().T
        return 0.5 * (out + out.conj().T)


def as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise NumericError("matrix contains non-finite entries")
    return a


def require_square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_shape(m: np.ndarray, shape: tuple[int, ...], name: str, where: str = "") -> np.ndarray:
    """`m`, or a DimensionError naming `name` when its shape is not `shape`;
    `where` says what the shape belongs to (" on factor 1", say)."""
    if m.shape != shape:
        raise DimensionError(f"{name} has shape {m.shape}, expected {shape}{where}")
    return m


def require_dims(most: int = MAX_DIM, /, **dims: int) -> None:
    """Refuse, as a DimensionError naming it, a dimension that is not an
    integer from 1 to `most` (MAX_DIM unless given); a bool is not one."""
    for name, d in dims.items():
        if isinstance(d, bool) or not isinstance(d, numbers.Integral):
            raise DimensionError(f"{name} must be from 1 to {most}, got {d!r:.40}")
        require_within(name, d, 1, most, DimensionError)


def frob(m: np.ndarray) -> float:
    """Frobenius norm by numpy's own formula, without the dispatch of
    `np.linalg.norm`; bitwise equal to it for float64, complex128 and
    integer input."""
    x = np.asarray(m).ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    if x.dtype.kind != "f":
        x = x.astype(float)
    return math.sqrt(x.dot(x))


def hermitize(m) -> np.ndarray:
    """Replace m by (m + m*)/2; reject if the correction is too large.

    The correction bound is relative to ||m||_F, so genuine misuse (a
    non-self-adjoint argument) raises instead of being silently symmetrized.
    """
    a = require_square(as_complex(m))
    h = 0.5 * (a + a.conj().T)
    correction = frob(a - h)
    # an exactly self-adjoint m, the usual case, needs no norm to compare with
    if correction and correction > _HERMITIZE_REJECT * max(frob(a), 1e-300):
        raise NonHermitianError(
            f"matrix is not self-adjoint: ||M - M*||_F/2 = {correction:.3e} "
            f"exceeds {_HERMITIZE_REJECT:.1e} * ||M||_F"
        )
    return h


def symmetrize(m) -> np.ndarray:
    """(m + m*)/2 with no misuse check, for quantities Hermitian by
    construction whose asymmetry is float dust."""
    a = require_square(as_complex(m))
    return 0.5 * (a + a.conj().T)


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0)
    return frob(off)


def _round_robin_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rounds of disjoint (p, q) pairs covering every pair exactly once.

    Circle-method tournament schedule; fixed and deterministic per n.
    """
    players: list[int | None] = list(range(n)) + ([None] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            x, y = players[i], players[m - 1 - i]
            if x is not None and y is not None:
                pairs.append((min(x, y), max(x, y)))
        rounds.append(tuple(pairs))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


_SCHEDULE_CACHE: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Each sweep visits every strict-upper pair exactly once, in a fixed
    round-robin order of mutually disjoint pairs; the rotations of one round
    commute, so they are applied as a single unitary. Stops once the
    off-diagonal Frobenius mass drops below 1e-14 * ||a||_F; raises after
    100 sweeps without convergence.
    """
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v
    norm = frob(a)
    if norm == 0.0:
        return np.zeros(n), v
    target = _OFF_DIAG_FACTOR * norm
    skip = target / (2.0 * n)
    rounds = _SCHEDULE_CACHE.get(n)
    if rounds is None:
        rounds = _SCHEDULE_CACHE.setdefault(n, _round_robin_pairs(n))
    eye = np.eye(n, dtype=np.complex128)
    converged = False
    for _ in range(_MAX_SWEEPS):
        if _offdiag_norm(a) <= target:
            converged = True
            break
        for pairs in rounds:
            u = None
            rotated = []
            for p, q in pairs:
                apq = a[p, q]
                g = abs(apq)
                if g <= skip:
                    continue
                alpha = a[p, p].real
                beta = a[q, q].real
                tau = (alpha - beta) / (2.0 * g)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase = apq / g
                if u is None:
                    u = eye.copy()
                u[p, p] = c
                u[p, q] = -s * phase
                u[q, p] = s * phase.conjugate()
                u[q, q] = c
                rotated.append((p, q))
            if u is None:
                continue
            a = u.conj().T @ a @ u
            v = v @ u
            for p, q in rotated:
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    if not converged and _offdiag_norm(a) > target:
        raise NumericError(
            f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {_offdiag_norm(a):.3e}, target {target:.3e})"
        )
    w = np.real(np.diag(a)).copy()
    order = np.argsort(w, kind="stable")
    return w[order], np.ascontiguousarray(v[:, order])


def hermitian_eig(m) -> SpectralDecomposition:
    """Eigendecomposition of a self-adjoint matrix, eigenvalues ascending.

    The input is symmetrized to (m + m*)/2 first; a correction larger than
    1e-8 * ||m||_F is rejected as misuse. Deterministic for identical input.
    """
    h = hermitize(m)
    w, v = _jacobi(h)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def hermitian_eigvals(m) -> np.ndarray:
    """Eigenvalues of a self-adjoint matrix, ascending, by LAPACK.

    For queries that read only the spectrum. The input is symmetrized and
    checked exactly as by `hermitian_eig`; a LAPACK convergence failure is
    a NumericError.
    """
    h = hermitize(m)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK eigvalsh failed: {exc}") from None


def matrix_function(
    m,
    f: "ScalarFunction",
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Functional calculus f(m) for self-adjoint m, exactly self-adjoint.

    A polynomial f (one with `f.poly`, defined on the whole real line) is
    evaluated as the matrix polynomial of (m + m*)/2, with no eigensolve.
    Otherwise f(m) = U f(Lambda) U*: every eigenvalue must lie in f's
    domain, and eigenvalues within float dust (1e-12 relative) of a closed
    endpoint are clamped onto it. Passing a precomputed decomposition takes
    the spectral route on it and skips the eigensolve.
    """
    if decomp is None and f.poly is not None:
        return _polynomial(hermitize(m), f.poly)
    dec = decomp if decomp is not None else hermitian_eig(m)
    return dec.with_eigenvalues([f(_fit_to_domain(t, f)) for t in dec.eigenvalues.tolist()])


def _polynomial(h: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """sum_k coeffs[k] h^k by Horner's rule (coefficients lowest degree
    first), symmetrized to (P + P*)/2 as `with_eigenvalues` does."""
    out = np.zeros_like(h)
    np.einsum("ii->i", out)[:] = coeffs[-1]  # a writable view of the diagonal
    for c in reversed(coeffs[:-1]):
        out = out @ h
        np.einsum("ii->i", out)[:] += c
    return 0.5 * (out + out.conj().T)


def _fit_to_domain(t: float, f: "ScalarFunction") -> float:
    dom = f.domain
    if dom.contains(t):
        return t
    for endpoint, is_open in ((dom.lo, dom.lo_open), (dom.hi, dom.hi_open)):
        if math.isfinite(endpoint) and not is_open:
            if abs(t - endpoint) <= 1e-12 * max(1.0, abs(endpoint)):
                return endpoint
    raise DomainError(
        f"eigenvalue {t!r} lies outside the domain {dom} of function {f.name!r}"
    )


# ---------------------------------------------------------------------------
# Seeded random test objects; a generator's dim is at most MAX_DIM ** 2, the
# dimension of the largest tensor-product space
# ---------------------------------------------------------------------------

def rng_stream(*entropy: int) -> np.random.Generator:
    """A PCG64 stream keyed by an integer tuple.

    Distinct tuples give independent streams; the same tuple always gives the
    same stream, which is what makes parallel campaigns replayable.
    """
    return np.random.default_rng(np.random.SeedSequence([int(e) for e in entropy]))


def stream_token(*entropy: int) -> int:
    """Deterministic 64-bit label for the stream keyed by `entropy`."""
    ss = np.random.SeedSequence([int(e) for e in entropy])
    return int(ss.generate_state(1, np.uint64)[0])


def random_stream(*entropy: int) -> tuple[np.random.Generator, int]:
    """`(rng_stream(*entropy), stream_token(*entropy))`, from one SeedSequence."""
    ss = np.random.SeedSequence([int(e) for e in entropy])
    return np.random.default_rng(ss), int(ss.generate_state(1, np.uint64)[0])


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    shape = (rows,) if cols is None else (rows, cols)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    require_dims(MAX_DIM ** 2, dim=dim)
    g = complex_gaussian(rng, dim, dim)
    return 0.5 * (g + g.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    require_dims(MAX_DIM ** 2, dim=dim)
    g = complex_gaussian(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Strict contraction: Gaussian matrix scaled to operator norm 1/(1+u)."""
    require_dims(MAX_DIM ** 2, dim=dim)
    g = complex_gaussian(rng, dim, dim)
    u = rng.uniform()
    return g / (np.linalg.norm(g, 2) * (1.0 + u))


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed isometry (rows >= cols): QR of a Gaussian matrix,
    diagonal phases fixed."""
    q, r = np.linalg.qr(complex_gaussian(rng, rows, cols))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    require_dims(MAX_DIM ** 2, dim=dim)
    return random_isometry(dim, dim, rng)


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    require_dims(MAX_DIM ** 2, dim=dim)
    v = complex_gaussian(rng, dim)
    return v / np.linalg.norm(v)


def random_l2_normalized(dim: int, rng: np.random.Generator, weight: float = 1.0) -> np.ndarray:
    """Random a with weighted trace w * Tr(a* a) = 1."""
    require_dims(MAX_DIM ** 2, dim=dim)
    g = complex_gaussian(rng, dim, dim)
    norm_sq = weight * float(np.trace(g.conj().T @ g).real)
    return g / math.sqrt(norm_sq)


def psd_sqrt(m, decomp: SpectralDecomposition | None = None) -> np.ndarray:
    """Positive square root of a positive semidefinite matrix; eigenvalues
    below 1e-14 ||m||_F, the eigensolvers' rounding, count as 0, so the root
    of that noise (1e-8 of the norm) does not make it depend on the basis of
    a null space. Passing m's decomposition skips the eigensolve."""
    dec = decomp if decomp is not None else hermitian_eig(m)
    w = dec.eigenvalues
    return dec.with_eigenvalues(np.sqrt(np.where(w > 1e-14 * frob(w), w, 0.0)))
