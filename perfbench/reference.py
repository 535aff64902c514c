"""Independent reference for `check_cfl`.

Recomputes both sides of the density-matrix partial-trace inequality

    lhs = Tr f(Tr_1((rho^(1/2) x 1) H (rho^(1/2) x 1)))
    rhs = Tr(rho^(1/2) Tr_2(f(H)) rho^(1/2))

with LAPACK (`numpy.linalg.eigh`) and einsum partial traces, sharing no code
with the package's eigensolver, functional calculus or tensor helpers. The
first tensor factor is the slow (outer) index, as in the package.
"""

from __future__ import annotations

import numpy as np

FUNCTIONS = {
    "square": lambda t: t * t,
    "abs": np.abs,
    "quartic": lambda t: t ** 4,
    "exp": np.exp,
    "hinge:0": lambda t: np.maximum(t, 0.0),
}
DIMS = [(d1, d2) for d1 in (2, 3, 4) for d2 in (2, 3, 4)]
REL_TOL = 1e-10


def _apply(h: np.ndarray, f) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * f(w)) @ v.conj().T


def cfl_sides(h: np.ndarray, rho: np.ndarray, fname: str, d1: int, d2: int) -> tuple[float, float]:
    f = FUNCTIONS[fname]
    root = _apply(rho, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    lifted = np.kron(root, np.eye(d2))
    compressed = (lifted.conj().T @ h @ lifted).reshape(d1, d2, d1, d2)
    tr1 = np.einsum("ijik->jk", compressed)
    lhs = float(np.sum(f(np.linalg.eigvalsh(0.5 * (tr1 + tr1.conj().T)))))
    tr2 = np.einsum("ijkj->ik", _apply(h, f).reshape(d1, d2, d1, d2))
    rhs = float(np.trace(root @ tr2 @ root).real)
    return lhs, rhs


def sample(seed: int, count: int):
    """`count` seeded (H, rho, function, d1, d2) instances cycling over the
    acceptance-01 dims and functions."""
    rng = np.random.default_rng([seed, 0xCF1])
    for i in range(count):
        d1, d2 = DIMS[i % len(DIMS)]
        fname = list(FUNCTIONS)[(i // len(DIMS)) % len(FUNCTIONS)]
        n = d1 * d2
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (g + g.conj().T)
        r = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
        rho = r @ r.conj().T
        rho /= np.trace(rho).real
        yield h, rho, fname, d1, d2


def check_against_package(opjensen, seed: int, count: int) -> tuple[int, list[str], float]:
    """Compare the package's check_cfl with the reference on `count` instances.

    Returns (instances compared, failure messages, worst relative difference).
    """
    failures: list[str] = []
    worst = 0.0
    for i, (h, rho, fname, d1, d2) in enumerate(sample(seed, count)):
        f = opjensen.convex_catalog.parse_function_spec(fname)
        report = opjensen.check_cfl(h, rho, f, opjensen.TensorSpace(d1, d2))
        lhs, rhs = cfl_sides(h, rho, fname, d1, d2)
        bad = []
        for side, ours, theirs in (("lhs", lhs, report.lhs), ("rhs", rhs, report.rhs)):
            diff = abs(ours - theirs) / max(1.0, abs(ours), abs(theirs))
            worst = max(worst, diff)
            if diff > REL_TOL:
                bad.append(f"{side}: package {theirs!r} vs reference {ours!r}")
        if bad:
            failures.append(f"check_cfl reference #{i} ({fname}, {d1}x{d2}) " + "; ".join(bad))
    return count, failures, worst

