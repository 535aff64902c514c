"""Positive map representations, generators, and flag checking."""

import math

import numpy as np
import pytest

from opjensen.errors import DimensionError, UsageError
from opjensen.linalg_core import (
    complex_gaussian,
    frob,
    hermitian_eig,
    hermitian_eigvals,
    random_hermitian,
    random_l2_normalized,
    rng_stream,
    symmetrize,
)
from opjensen.positive_maps import (
    KIND_FLAGS,
    MAP_KINDS,
    Flags,
    PositiveMap,
    apply_map,
    choi_matrix,
    identity_map,
    random_positive_map,
    slice_compress_map,
    transpose_map,
)
from opjensen.tensor_ops import TensorSpace, conjugate_compress, slice_map


def _measured_flags(phi: PositiveMap, trials: int, seed: int) -> Flags:
    """Positivity sampled on random rank-deficient inputs g g*, with
    unitality and contractivity from `phi.unital_contractive()`."""
    rng = rng_stream(seed)
    positive = True
    for _ in range(trials):
        g = complex_gaussian(rng, phi.in_dim, phi.in_dim)
        w = hermitian_eigvals(symmetrize(apply_map(phi, g @ g.conj().T)))
        positive = positive and w[0] >= -1e-10 * max(1.0, float(np.max(np.abs(w))))
    return Flags(positive, *phi.unital_contractive())


def test_identity_map():
    x = random_hermitian(3, rng_stream(1))
    assert np.allclose(apply_map(identity_map(3), x), x)


def test_single_kraus_isometry():
    rng = rng_stream(2)
    q, _ = np.linalg.qr(complex_gaussian(rng, 3, 2))
    phi = PositiveMap(kind="conjugation", in_dim=3, out_dim=2, kraus=(q,))
    x = random_hermitian(3, rng)
    assert np.allclose(apply_map(phi, x), q.conj().T @ x @ q)


def test_transpose_map_action():
    tp = transpose_map(2)
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(apply_map(tp, x), x.T)
    h = random_hermitian(2, rng_stream(3))
    assert np.allclose(apply_map(tp, h), h.T)


def test_apply_map_hermiticity_preserving():
    for kind in MAP_KINDS:
        phi = random_positive_map(kind, 3, 2, rng_stream(11))
        h = random_hermitian(3, rng_stream(4))
        out = apply_map(phi, h)
        assert frob(out - out.conj().T) <= 1e-11 * max(1.0, frob(out))
        # adjoint compatibility on a non-Hermitian input
        g = complex_gaussian(rng_stream(5), 3, 3)
        lhs = apply_map(phi, g.conj().T)
        rhs = apply_map(phi, g).conj().T
        assert frob(lhs - rhs) <= 1e-11 * max(1.0, frob(rhs))


def test_apply_map_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_map(identity_map(3), np.eye(2))


def test_slice_compress_unitality():
    space = TensorSpace(3, 2)
    w1 = 0.3
    a = random_l2_normalized(3, rng_stream(7), w1)
    phi = slice_compress_map(a, space, w1)
    assert frob(phi.on_identity() - np.eye(2)) <= 1e-10


def test_slice_compress_elementary_tensor():
    rng = rng_stream(8)
    space = TensorSpace(2, 3)
    a = complex_gaussian(rng, 2, 2)
    big_a = random_hermitian(2, rng)
    big_b = random_hermitian(3, rng)
    w1 = 1.7
    phi = slice_compress_map(a, space, w1)
    out = apply_map(phi, np.kron(big_a, big_b))
    expected = w1 * np.trace(a.conj().T @ big_a @ a) * big_b
    assert frob(out - expected) <= 1e-11 * max(1.0, frob(expected))


def test_slice_compress_identity_image():
    rng = rng_stream(9)
    space = TensorSpace(2, 2)
    a = complex_gaussian(rng, 2, 2)
    w1 = 0.6
    phi = slice_compress_map(a, space, w1)
    c = w1 * np.trace(a.conj().T @ a).real
    assert frob(phi.on_identity() - c * np.eye(2)) <= 1e-11 * max(1.0, c)


def test_slice_compress_matches_partial_trace_composition():
    rng = rng_stream(10)
    space = TensorSpace(3, 2)
    a = complex_gaussian(rng, 3, 3)
    w1 = 2.5
    phi = slice_compress_map(a, space, w1)
    x = random_hermitian(6, rng)
    composed = slice_map(conjugate_compress(x, a, space), w1 * np.eye(3), "left", space)
    assert frob(apply_map(phi, x) - composed) <= 1e-11 * max(1.0, frob(composed))


@pytest.mark.parametrize("w1", [0.0, -1.0, math.inf, math.nan])
def test_slice_compress_refuses_a_weight_that_is_not_positive_and_finite(w1):
    with pytest.raises(UsageError, match="trace weights must be positive and finite"):
        slice_compress_map(np.eye(2), TensorSpace(2, 2), w1)


def test_ucp_stinespring_unital_many_seeds():
    for s in range(100):
        phi = random_positive_map("ucp_stinespring", 3, 2, rng_stream(s))
        assert frob(phi.on_identity() - np.eye(2)) <= 1e-10


def test_transpose_positive_but_not_cp():
    tp = random_positive_map("transpose", 2, 2, rng_stream(0))
    flags = _measured_flags(tp, trials=25, seed=1)
    assert flags.unital and flags.contractive and flags.positive
    choi = choi_matrix(tp)
    w = hermitian_eig(choi).eigenvalues
    assert w[0] < -0.99  # negative Choi eigenvalue: not completely positive


def test_ucp_choi_is_psd():
    phi = random_positive_map("ucp_stinespring", 2, 3, rng_stream(5))
    w = hermitian_eig(choi_matrix(phi)).eigenvalues
    assert w[0] >= -1e-10


def test_zero_map_flags():
    phi = random_positive_map("zero", 3, 3, rng_stream(0))
    x = random_hermitian(3, rng_stream(12))
    assert np.allclose(apply_map(phi, x), 0.0)
    flags = _measured_flags(phi, trials=16, seed=0)
    assert flags.contractive and not flags.unital and flags.positive


def test_scaled_contractive_flags_many_seeds():
    for s in range(40):
        phi = random_positive_map("scaled_contractive", 3, 2, rng_stream(s))
        flags = _measured_flags(phi, trials=4, seed=s)
        assert flags.contractive and flags.positive
        assert not flags.unital


def test_pinching_map_flags():
    phi = random_positive_map("pinching", 4, 4, rng_stream(9))
    flags = _measured_flags(phi, trials=10, seed=2)
    assert flags.unital and flags.contractive and flags.positive
    x = random_hermitian(4, rng_stream(13))
    out = apply_map(phi, x)
    assert np.isclose(np.trace(out), np.trace(x), atol=1e-11)


def test_contractivity_iff_identity_image_dominated():
    # for positive maps: contractive exactly when Phi(1) <= 1
    for kind in MAP_KINDS:
        for s in (0, 1):
            phi = random_positive_map(kind, 2, 2, rng_stream(s))
            flags = _measured_flags(phi, trials=4, seed=s)
            lam_max = float(hermitian_eig(phi.on_identity()).eigenvalues[-1])
            assert flags.contractive == (lam_max <= 1.0 + 1e-10)
            assert flags.contractive  # every generated kind here is contractive


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_kind_flags_are_the_generated_maps_flags(kind):
    # campaign cells are filtered by KIND_FLAGS, the checks read the flags a
    # map measures: the two agree on every generated map
    for in_dim, out_dim in ((1, 1), (2, 2), (2, 3), (3, 2), (4, 4)):
        for s in range(5):
            phi = random_positive_map(kind, in_dim, out_dim, rng_stream(s))
            assert _measured_flags(phi, trials=8, seed=s) == KIND_FLAGS[kind], (in_dim, out_dim, s)


@pytest.mark.parametrize("in_dim, out_dim", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 4)])
def test_ablation_kinds_break_their_hypothesis(in_dim, out_dim):
    # expansive: positive, Phi(1) = c 1 with c in [1.25, 2), so neither
    # unital nor contractive; nonpositive_unital: unital, positivity unclaimed
    for s in range(5):
        phi = random_positive_map("expansive", in_dim, out_dim, rng_stream(s))
        assert _measured_flags(phi, trials=8, seed=s) == Flags(True, False, False)
        c = float(phi.on_identity()[0, 0].real)
        assert 1.25 <= c < 2.0
        assert frob(phi.on_identity() - c * np.eye(out_dim)) <= 1e-12
        assert phi.claimed_positive
        phi = random_positive_map("nonpositive_unital", in_dim, out_dim, rng_stream(s))
        assert (phi.in_dim, phi.out_dim) == (in_dim, in_dim)
        assert phi.unital_contractive()[0]
        assert not phi.claimed_positive
    for kind in ("expansive", "nonpositive_unital"):
        assert kind not in MAP_KINDS and kind not in KIND_FLAGS


def test_positive_map_requires_exactly_one_rep():
    with pytest.raises(ValueError):
        PositiveMap(kind="bad", in_dim=2, out_dim=2)
    with pytest.raises(ValueError):
        PositiveMap(
            kind="bad", in_dim=2, out_dim=2,
            kraus=(np.eye(2),), action=np.eye(4),
        )


def test_unknown_kind():
    with pytest.raises(ValueError):
        random_positive_map("bogus", 2, 2, rng_stream(0))
