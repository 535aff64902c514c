"""Spectral projections, Jordan split, pre-order, monotone split, pinching."""

import numpy as np
import pytest

from opjensen.convex_catalog import get_function
from opjensen.errors import BoundaryAmbiguityError, ConvexityError, DimensionError, PartitionError
from opjensen.intervals import Interval
from opjensen.linalg_core import (
    DEFAULT_TOL,
    complex_gaussian,
    frob,
    hermitian_eig,
    random_hermitian,
    random_unitary,
    rng_stream,
)
from opjensen.spectral_tools import (
    jordan_split,
    kaplansky_verify,
    monotone_sign_split,
    pinching,
    preorder_violation,
    singular_value_function,
    snap_away_from_spectrum,
    spectral_projection,
)
from opjensen.tensor_ops import BlockAlgebra


def matrix_sign_newton(h, iters=60):
    """Independent sign-function oracle: Newton iteration X <- (X + X^-1)/2."""
    x = np.array(h, dtype=complex)
    for _ in range(iters):
        x = 0.5 * (x + np.linalg.inv(x))
    return x


def test_spectral_projection_diagonal():
    p = spectral_projection(np.diag([1.0, 2.0, 3.0]), Interval.greater_than(1.5))
    assert np.allclose(p, np.diag([0.0, 1.0, 1.0]))


def test_spectral_projection_full_line():
    h = random_hermitian(4, rng_stream(2))
    p = spectral_projection(h, Interval.real_line())
    assert np.allclose(p, np.eye(4))


def test_spectral_projection_sign_oracle():
    h = random_hermitian(4, rng_stream(13))
    p = spectral_projection(h, Interval.greater_than(0.0))
    expected = 0.5 * (matrix_sign_newton(h) + np.eye(4))
    assert frob(p - expected) <= 1e-9


def test_spectral_projection_is_projection():
    h = random_hermitian(5, rng_stream(29))
    p = spectral_projection(h, Interval.greater_than(0.0))
    assert frob(p @ p - p) <= 1e-10
    assert frob(p - p.conj().T) <= 1e-10


def test_spectral_projection_rank_matches_count():
    rng = rng_stream(37)
    for _ in range(25):
        h = random_hermitian(6, rng)
        s = float(rng.uniform(-1.0, 1.0))
        w = hermitian_eig(h).eigenvalues
        if np.min(np.abs(w - s)) < 1e-6:
            continue
        p = spectral_projection(h, Interval.greater_than(s))
        assert round(float(np.trace(p).real)) == int(np.sum(w > s))


def test_spectral_projection_boundary_ambiguity():
    with pytest.raises(BoundaryAmbiguityError):
        spectral_projection(np.diag([0.0, 1.0]), Interval.greater_than(0.0))


def test_snap_away_from_spectrum():
    w = np.array([0.0, 0.0, 1.0])
    moved = snap_away_from_spectrum(0.0, w, 1e-10)
    assert moved > 3e-10 and moved < 1e-8
    assert snap_away_from_spectrum(0.5, w, 1e-10) == 0.5


def test_jordan_split_diagonal():
    pos, neg = jordan_split(np.diag([3.0, -2.0]))
    assert np.allclose(pos, np.diag([3.0, 0.0]))
    assert np.allclose(neg, np.diag([0.0, 2.0]))


def test_jordan_split_psd_input():
    rng = rng_stream(41)
    g = complex_gaussian(rng, 3, 3)
    h = g @ g.conj().T
    pos, neg = jordan_split(h)
    assert frob(pos - h) <= 1e-10 * max(1.0, frob(h))
    assert frob(neg) <= 1e-10 * max(1.0, frob(h))


def test_jordan_split_trace_arithmetic():
    h = random_hermitian(3, rng_stream(17))
    pos, neg = jordan_split(h)
    assert np.isclose(np.trace(pos).real - np.trace(neg).real, np.trace(h).real, atol=1e-10)
    assert frob(pos - neg - h) <= 1e-11 * max(1.0, frob(h))
    assert frob(pos @ neg) <= 1e-10 * max(1.0, frob(h)) ** 2


def test_jordan_minimality_against_random_decompositions():
    # any other decomposition h = p - n with p, n >= 0 has larger positive trace
    rng = rng_stream(43)
    for _ in range(25):
        h = random_hermitian(4, rng)
        pos, _ = jordan_split(h)
        g = complex_gaussian(rng, 4, 4)
        r = g @ g.conj().T
        p_other = pos + r
        assert np.trace(pos).real <= np.trace(p_other).real + 1e-9


def test_singular_value_function_diagonal():
    alg = BlockAlgebra.single(2, 1.0)
    mu = singular_value_function(np.diag([3.0, 1.0]), alg)
    assert mu(0.0) == 3.0 and mu(0.99) == 3.0
    assert mu(1.0) == 1.0 and mu(1.99) == 1.0
    assert mu(2.0) == 0.0


def test_singular_value_function_zero_matrix():
    alg = BlockAlgebra.single(3, 2.0)
    mu = singular_value_function(np.zeros((3, 3)), alg)
    assert mu.integral() == 0.0
    assert mu(0.5) == 0.0


def test_singular_value_function_rank_deficient_block():
    # an exactly singular block must not contribute dust steps
    alg = BlockAlgebra((2, 2), (0.7, 1.3))
    x = np.zeros((4, 4), dtype=complex)
    x[:2, :2] = np.diag([2.0, 0.0])
    g = complex_gaussian(rng_stream(57), 2, 1)
    x[2:, 2:] = g @ g.conj().T  # rank one
    mu = singular_value_function(x, alg)
    assert len(mu.values) == 2
    expected = 0.7 * 2.0 + 1.3 * float(np.trace(x[2:, 2:]).real)
    assert np.isclose(mu.integral(), expected, rtol=1e-10)


def test_singular_value_integral_equals_weighted_trace():
    # integral of mu_t recovers the weighted trace of |x| on a two-block algebra
    rng = rng_stream(23)
    alg = BlockAlgebra((2, 3), (0.3, 2.5))
    x = np.zeros((5, 5), dtype=complex)
    x[:2, :2] = random_hermitian(2, rng)
    x[2:, 2:] = random_hermitian(3, rng)
    mu = singular_value_function(x, alg)
    expected = 0.0
    for w, blk in zip(alg.trace_weights, alg.blocks(x)):
        sv = np.abs(hermitian_eig(blk).eigenvalues)
        expected += w * float(np.sum(sv))
    assert np.isclose(mu.integral(), expected, rtol=1e-10)


def test_preorder_examples():
    alg = BlockAlgebra.single(2)
    assert preorder_violation(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]), alg) is None
    h = random_hermitian(2, rng_stream(4))
    assert preorder_violation(h, h, alg) is None
    bad = preorder_violation(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]), alg)
    assert bad is not None and 1.0 < bad["s"] < 2.0


def test_preorder_blockwise():
    alg = BlockAlgebra((1, 1), (1.0, 1.0))
    # globally fine but fails in the first block at s between 1 and 2
    a = np.diag([2.0, 0.0])
    b = np.diag([1.0, 5.0])
    assert preorder_violation(a, b, alg) is not None
    assert preorder_violation(np.diag([1.0, 4.0]), b, alg) is None


def test_preorder_soundness_for_traces():
    # a <~ b with a, b >= 0 forces tau(a) <= tau(b)
    rng = rng_stream(47)
    alg = BlockAlgebra.single(3, 1.7)
    for _ in range(40):
        g1 = complex_gaussian(rng, 3, 3)
        g2 = complex_gaussian(rng, 3, 3)
        a = g1 @ g1.conj().T
        b = g2 @ g2.conj().T
        if preorder_violation(a, b, alg) is None:
            assert alg.trace(a) <= alg.trace(b) + 1e-9 * max(1.0, alg.trace(b))


def test_monotone_split_square():
    split = monotone_sign_split(get_function("square"), Interval.closed(-2.0, 2.0))
    assert split[1] is None and split[2] is None
    assert split[0] is not None and split[3] is not None
    assert abs(split[3].lo) < 1e-6  # the minimizer


def test_monotone_split_shifted_square():
    split = monotone_sign_split(get_function("shifted_square", (-1.0,)), Interval.closed(-2.0, 2.0))
    pieces = [(slot, p) for slot, p in enumerate(split) if p is not None]
    assert len(pieces) == 4
    assert abs(split[2].lo) < 1e-6  # the minimizer
    assert abs(split[3].lo - 1.0) < 1e-9  # the zero crossing
    assert abs(pieces[0][1].hi + 1.0) < 1e-9  # sign change at -1
    # pieces tile the working interval
    assert pieces[0][1].lo == -2.0 and pieces[-1][1].hi == 2.0
    for (_, left), (_, right) in zip(pieces, pieces[1:]):
        assert left.hi == right.lo


def test_monotone_split_hinge():
    split = monotone_sign_split(get_function("hinge", (0.0,)), Interval.closed(-1.0, 1.0))
    assert split[1] is None and split[2] is None
    last = split[3]
    assert last is not None and abs(last.lo) < 1e-6 and last.hi == 1.0


# Sign and direction of f on each slot of a monotone sign split.
SLOT_SIGN_DIRECTION = {0: (1, "dec"), 1: (-1, "dec"), 2: (-1, "inc"), 3: (1, "inc")}


def test_monotone_split_signs_sampled():
    f = get_function("shifted_square", (-1.0,))
    split = monotone_sign_split(f, Interval.closed(-2.0, 2.0))
    for slot, piece in enumerate(split):
        if piece is None:
            continue
        ts = np.linspace(piece.lo, piece.hi, 41)[1:-1]
        vals = np.array([f(t) for t in ts])
        sign, direction = SLOT_SIGN_DIRECTION[slot]
        if sign > 0:
            assert np.all(vals >= -1e-9)
        else:
            assert np.all(vals <= 1e-9)
        diffs = np.diff(vals)
        if direction == "dec":
            assert np.all(diffs <= 1e-9)
        else:
            assert np.all(diffs >= -1e-9)


@pytest.mark.parametrize("name, params, lo, hi", [
    ("square", (), -2.0, 2.0), ("shifted_square", (-1.0,), -2.0, 2.0), ("hinge", (), -1.0, 1.0),
    ("exp", (), 0.0, 1.0),
])
def test_monotone_split_is_four_slots(name, params, lo, hi):
    split = monotone_sign_split(get_function(name, params), Interval.closed(lo, hi))
    assert type(split) is tuple and len(split) == 4
    assert all(piece is None or isinstance(piece, Interval) for piece in split)


def test_monotone_split_rejects_nonconvex():
    f = get_function("square")
    concave = type(f)(
        "negsquare", (), lambda t: -t * t, f.domain, False, False, True
    )
    with pytest.raises(ConvexityError):
        monotone_sign_split(concave, Interval.closed(-1.0, 1.0))


def test_pinching_trivial_resolution():
    x = random_hermitian(3, rng_stream(5))
    assert np.allclose(pinching(x, [np.eye(3)]), x)


def test_pinching_coordinate_pairs():
    x = random_hermitian(4, rng_stream(29))
    p1 = np.diag([1.0, 1.0, 0.0, 0.0])
    p2 = np.diag([0.0, 0.0, 1.0, 1.0])
    out = pinching(x, [p1, p2])
    assert np.allclose(out[:2, 2:], 0.0)
    assert np.allclose(out[2:, :2], 0.0)
    assert np.allclose(out[:2, :2], x[:2, :2])
    assert np.isclose(np.trace(out), np.trace(x), atol=1e-12)


def test_pinching_idempotent_unital_positive():
    rng = rng_stream(31)
    u = random_unitary(4, rng)
    ps = [u[:, :1] @ u[:, :1].conj().T, u[:, 1:] @ u[:, 1:].conj().T]
    x = random_hermitian(4, rng)
    once = pinching(x, ps)
    twice = pinching(once, ps)
    assert frob(once - twice) <= 1e-11 * max(1.0, frob(once))
    assert np.allclose(pinching(np.eye(4), ps), np.eye(4))
    g = complex_gaussian(rng, 4, 4)
    w = hermitian_eig(pinching(g @ g.conj().T, ps)).eigenvalues
    assert w[0] >= -1e-11 * frob(g) ** 2


def test_pinching_rejects_bad_resolution():
    with pytest.raises(PartitionError):
        pinching(np.eye(2), [np.diag([1.0, 0.0])])
    with pytest.raises(PartitionError):
        pinching(np.eye(2), [np.diag([1.0, 0.0]), np.eye(2)])


def test_kaplansky_trivial_pairs():
    p = np.diag([1.0, 0.0])
    q = np.diag([0.0, 1.0])
    assert kaplansky_verify(p, p)
    assert kaplansky_verify(p, q)


def test_kaplansky_random_pairs():
    rng = rng_stream(31)
    for _ in range(150):
        d = int(rng.integers(2, 7))
        u = random_unitary(d, rng)
        v = random_unitary(d, rng)
        kp = int(rng.integers(1, d + 1))
        kq = int(rng.integers(1, d + 1))
        p = u[:, :kp] @ u[:, :kp].conj().T
        q = v[:, :kq] @ v[:, :kq].conj().T
        assert kaplansky_verify(p, q)


def test_kaplansky_rejects_non_projection():
    with pytest.raises(ValueError):
        kaplansky_verify(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))


def _projection(columns) -> np.ndarray:
    q, _ = np.linalg.qr(np.asarray(columns, dtype=complex))
    return q @ q.conj().T


@pytest.mark.parametrize("p, q", [
    # p = q: join and meet are p
    (_projection([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
     _projection([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])),
    # q = 1 - p: join is 1, meet is 0
    (_projection([[1.0], [1.0], [0.0]]), np.eye(3) - _projection([[1.0], [1.0], [0.0]])),
    # two planes in C^3 sharing exactly the direction e1: join is 1, meet has rank 1
    (_projection([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
     _projection([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])),
    # d = 1
    (np.eye(1), np.zeros((1, 1))),
], ids=["equal", "complement", "planes-sharing-a-line", "d1"])
def test_kaplansky_known_join_and_meet(p, q):
    assert kaplansky_verify(p, q)
    assert kaplansky_verify(q, p)


def test_kaplansky_refuses_near_projection():
    p = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        kaplansky_verify(p + 1e-6 * np.diag([1.0, 0.0, 0.0]), p)
    with pytest.raises(ValueError):
        kaplansky_verify(p, p + 1e-6 * np.ones((3, 3)))
    with pytest.raises(DimensionError):
        kaplansky_verify(p, np.eye(2))
