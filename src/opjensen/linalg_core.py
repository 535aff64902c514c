"""Dense complex matrix arithmetic.

Hermitian eigendecomposition (cyclic complex Jacobi), Hermitian spectra
(LAPACK, through `np.linalg.eigvalsh`), functional calculus, Kronecker
products, and seeded random generators for every kind of test object the
verification campaigns consume. A query that needs only the spectrum uses
LAPACK; a full decomposition (eigenvectors too) still uses Jacobi. A
polynomial function (one whose `poly` coefficients are set) is evaluated as
a matrix polynomial and skips the eigensolver.

Conventions fixed project-wide:
  * the FIRST tensor factor is the slow (outer) index;
  * randomness flows through numpy PCG64 generators derived from explicit
    integer entropy tuples, so a generator called with the same dims on the
    stream of the same entropy always reproduces the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, DomainError, NonHermitianError, NumericError

if TYPE_CHECKING:
    from .convex_catalog import ScalarFunction

_MAX_SWEEPS = 100
_OFF_DIAG_FACTOR = 1e-14
_HERMITIZE_REJECT = 1e-8


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


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices with the first factor as the slow
    (outer) index; the products `np.kron` forms, without its dispatch."""
    a, b = as_complex(a), as_complex(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"kron takes two matrices, got shapes {a.shape} and {b.shape}")
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def opnorm(m) -> float:
    """Largest singular value of a matrix (what `np.linalg.norm(m, 2)`
    computes, without its dispatch)."""
    a = as_complex(m)
    return float(np.linalg.svd(a, compute_uv=False).max()) if a.size else 0.0


# ---------------------------------------------------------------------------
# Seeded random test objects
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


def _check_dim(dim: int) -> int:
    if int(dim) < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    return int(dim)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    shape = (rows,) if cols is None else (rows, cols)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    d = _check_dim(dim)
    g = complex_gaussian(rng, d, d)
    return 0.5 * (g + g.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    d = _check_dim(dim)
    g = complex_gaussian(rng, d, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Strict contraction: Gaussian matrix scaled to operator norm 1/(1+u)."""
    d = _check_dim(dim)
    g = complex_gaussian(rng, d, d)
    u = rng.uniform()
    return g / (opnorm(g) * (1.0 + u))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Gaussian matrix, diagonal phases fixed."""
    d = _check_dim(dim)
    q, r = np.linalg.qr(complex_gaussian(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    d = _check_dim(dim)
    v = complex_gaussian(rng, d)
    return v / np.linalg.norm(v)


def random_l2_normalized(dim: int, rng: np.random.Generator, weight: float = 1.0) -> np.ndarray:
    """Random a with weighted trace w * Tr(a* a) = 1."""
    d = _check_dim(dim)
    g = complex_gaussian(rng, d, d)
    norm_sq = weight * float(np.trace(g.conj().T @ g).real)
    return g / math.sqrt(norm_sq)


def psd_sqrt(m, decomp: SpectralDecomposition | None = None) -> np.ndarray:
    """Positive square root of a positive semidefinite matrix, negative
    eigenvalues clipped to 0. Passing m's decomposition skips the eigensolve."""
    dec = decomp if decomp is not None else hermitian_eig(m)
    return dec.with_eigenvalues(np.sqrt(np.clip(dec.eigenvalues, 0.0, None)))
