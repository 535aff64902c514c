"""Compressions, slice maps (a weighted partial trace is the slice against
w 1), and weighted block traces."""

import math

import numpy as np
import pytest

from opjensen import tensor_ops
from opjensen.errors import DimensionError, UsageError
from opjensen.linalg_core import (
    complex_gaussian,
    frob,
    hermitian_eig,
    random_density,
    random_hermitian,
    rng_stream,
)
from opjensen.tensor_ops import (
    BlockAlgebra,
    TensorSpace,
    conjugate_compress,
    slice_map,
)

SPACE22 = TensorSpace(2, 2)
SPACE23 = TensorSpace(2, 3)


def test_conjugate_compress_left_diagonal():
    # (a* (x) 1)(a (x) 1) = a*a (x) 1
    out = conjugate_compress(np.eye(4), np.diag([1.0, 2.0]), SPACE22)
    assert np.allclose(out, np.diag([1.0, 1.0, 4.0, 4.0]))


def test_conjugate_compress_by_identity_is_identity():
    x = random_hermitian(6, rng_stream(10))
    assert np.allclose(conjugate_compress(x, np.eye(2), SPACE23), x)


def test_factor_dimension_mismatch():
    with pytest.raises(DimensionError):
        conjugate_compress(np.eye(4), np.eye(3), SPACE22)
    with pytest.raises(DimensionError):
        conjugate_compress(np.eye(6), np.eye(3), SPACE23)
    for side, density in (("right", np.eye(2) / 2), ("left", np.eye(3) / 3)):
        with pytest.raises(DimensionError):
            slice_map(np.eye(6), density, side, SPACE23)


def test_dimensions_are_bounded_in_a_short_message():
    bound = tensor_ops.MAX_DIM
    assert TensorSpace(bound, bound).total_dim == bound * bound  # builds no matrix
    for bad, shown in ((0, "0"), (bound + 1, str(bound + 1)),
                       (10 ** 300, "an integer of 301 digits")):
        for make in (lambda d: TensorSpace(2, d), lambda d: BlockAlgebra((2, d), (1.0, 1.0))):
            with pytest.raises(DimensionError) as err:
                make(bad)
            assert str(err.value).endswith(f"must be from 1 to {bound}, got {shown}")
            assert len(str(err.value)) < 200


def test_conjugate_compress_identity_and_zero():
    x = random_hermitian(4, rng_stream(4))
    assert np.allclose(conjugate_compress(x, np.eye(2), SPACE22), x)
    assert np.allclose(conjugate_compress(x, np.zeros((2, 2)), SPACE22), 0.0)


def test_conjugate_compress_elementary_tensor():
    rng = rng_stream(3)
    a = complex_gaussian(rng, 2, 2)
    big_a = complex_gaussian(rng, 2, 2)
    big_b = complex_gaussian(rng, 2, 2)
    out = conjugate_compress(np.kron(big_a, big_b), a, SPACE22)
    assert np.allclose(out, np.kron(a.conj().T @ big_a @ a, big_b))


def test_conjugate_compress_keeps_hermitian():
    x = random_hermitian(4, rng_stream(8))
    a = complex_gaussian(rng_stream(9), 2, 2)
    out = conjugate_compress(x, a, SPACE22)
    assert frob(out - out.conj().T) <= 1e-12 * max(1.0, frob(out))


def test_partial_trace_elementary_tensor():
    # the partial trace over the second factor is the right slice against 1
    rng = rng_stream(21)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    out = slice_map(np.kron(a, b), np.eye(3), "right", SPACE23)
    assert np.allclose(out, a * np.trace(b))


def test_partial_trace_identity():
    out = slice_map(np.eye(6), np.eye(2), "left", SPACE23)
    assert np.allclose(out, 2.0 * np.eye(3))


def test_partial_trace_full_trace_oracle():
    # slicing by w1 1, then tracing the remaining factor with weight w2,
    # recovers the full weighted trace
    x = random_hermitian(4, rng_stream(11))
    w1, w2 = 0.3, 2.5
    pt = slice_map(x, w1 * np.eye(2), "left", SPACE22)
    assert np.isclose(w2 * np.trace(pt), w1 * w2 * np.trace(x))


def test_partial_trace_star_compatibility():
    x = complex_gaussian(rng_stream(12), 6, 6)
    for side, density in (("left", 0.7 * np.eye(2)), ("right", 1.3 * np.eye(3))):
        lhs = slice_map(x.conj().T, density, side, SPACE23)
        rhs = slice_map(x, density, side, SPACE23).conj().T
        assert frob(lhs - rhs) <= 1e-12 * max(1.0, frob(rhs))


def test_partial_trace_positivity():
    rng = rng_stream(13)
    g = complex_gaussian(rng, 6, 6)
    x = g @ g.conj().T
    for side, density in (("left", np.eye(2)), ("right", np.eye(3))):
        out = slice_map(x, density, side, SPACE23)
        w = hermitian_eig(out).eigenvalues
        assert w[0] >= -1e-11 * frob(x)


def test_partial_trace_duality_with_embeddings():
    rng = rng_stream(14)
    x = complex_gaussian(rng, 6, 6)
    y = complex_gaussian(rng, 3, 3)
    w1, w2 = 0.4, 1.7
    lhs = w2 * np.trace(slice_map(x @ np.kron(np.eye(2), y), w1 * np.eye(2), "left", SPACE23))
    rhs = w1 * w2 * np.trace(x @ np.kron(np.eye(2), y))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_slice_normalized_trace():
    rng = rng_stream(15)
    a = complex_gaussian(rng, 2, 2)
    b = complex_gaussian(rng, 3, 3)
    out = slice_map(np.kron(a, b), np.eye(3) / 3.0, "right", SPACE23)
    assert np.allclose(out, a * np.trace(b) / 3.0)


def test_slice_bimodule_identity():
    rng = rng_stream(5)
    x = complex_gaussian(rng, 4, 4)
    a = complex_gaussian(rng, 2, 2)
    b = complex_gaussian(rng, 2, 2)
    rho = random_density(2, rng)
    lhs = slice_map(np.kron(a, np.eye(2)) @ x @ np.kron(b, np.eye(2)), rho, "right", SPACE22)
    rhs = a @ slice_map(x, rho, "right", SPACE22) @ b
    assert frob(lhs - rhs) <= 1e-10 * max(1.0, frob(rhs))


def test_left_slice_equals_compress_then_trace():
    # the density w1 a a*, i.e. y -> w1 Tr(a* y a), slices like compressing then tracing
    rng = rng_stream(9)
    x = complex_gaussian(rng, 4, 4)
    a = complex_gaussian(rng, 2, 2)
    w1 = 0.6
    lhs = slice_map(x, w1 * (a @ a.conj().T), "left", SPACE22)
    rhs = slice_map(conjugate_compress(x, a, SPACE22), w1 * np.eye(2), "left", SPACE22)
    assert frob(lhs - rhs) <= 1e-12 * max(1.0, frob(rhs))


def _slice_identity_inputs(space: TensorSpace, seed: int):
    """Seeded complex X and a, Hermitian D1 and D2 over the space."""
    rng = rng_stream(seed)
    return (complex_gaussian(rng, space.total_dim, space.total_dim),
            complex_gaussian(rng, space.d1, space.d1),
            random_hermitian(space.d1, rng), random_hermitian(space.d2, rng))


@pytest.mark.parametrize("space", [TensorSpace(2, 3), TensorSpace(3, 2)], ids=["2x3", "3x2"])
def test_slicing_the_compression_against_d1_is_slicing_against_a_d1_a_star(space):
    # the first-factor partial trace is cyclic: Tr_1((D1 a* (x) 1) X (a (x) 1))
    # = Tr_1((a D1 a* (x) 1) X)
    x, a, d1, _ = _slice_identity_inputs(space, 31)
    lhs = slice_map(conjugate_compress(x, a, space), d1, "left", space)
    rhs = slice_map(x, a @ d1 @ a.conj().T, "left", space)
    assert frob(lhs - rhs) <= 1e-12 * max(1.0, frob(rhs))


@pytest.mark.parametrize("space", [TensorSpace(2, 3), TensorSpace(3, 2)], ids=["2x3", "3x2"])
def test_right_slice_compressed_by_a_is_the_left_slice_against_a_d1_a_star(space):
    # Tr(D1 a* R_D2(X) a) = Tr(D2 L_{a D1 a*}(X)), both Tr((a D1 a* (x) D2) X)
    x, a, d1, d2 = _slice_identity_inputs(space, 32)
    lhs = np.trace(d1 @ a.conj().T @ slice_map(x, d2, "right", space) @ a)
    rhs = np.trace(d2 @ slice_map(x, a @ d1 @ a.conj().T, "left", space))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_positive_functional_gives_positive_slice():
    rng = rng_stream(16)
    g = complex_gaussian(rng, 6, 6)
    x = g @ g.conj().T
    out = slice_map(x, random_density(3, rng), "right", SPACE23)
    w = hermitian_eig(0.5 * (out + out.conj().T)).eigenvalues
    assert w[0] >= -1e-11 * max(1.0, frob(x))


def test_block_algebra_weighted_trace():
    alg = BlockAlgebra((2, 3), (0.5, 2.0))
    x = np.diag([1.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
    assert np.isclose(alg.trace(x), 0.5 * 2 + 2.0 * 3)
    assert alg.total_dim == 5 and len(alg.block_dims) == 2


def test_block_algebra_trace_weighs_each_block():
    # sum_k w_k Tr(x_k) at weights (0.3, 2.5): 0.3 * (1 + 2) + 2.5 * (3 + 4 + 5)
    alg = BlockAlgebra((2, 3), (0.3, 2.5))
    assert alg.trace(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])) == 0.3 * 3.0 + 2.5 * 12.0


def test_block_algebra_validation():
    with pytest.raises(Exception):
        BlockAlgebra((2, 3), (0.5,))
    with pytest.raises(Exception):
        BlockAlgebra((2,), (0.0,))


@pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
def test_block_algebra_trace_weights_must_be_positive_and_finite(w):
    with pytest.raises(UsageError, match="trace weights must be positive and finite"):
        BlockAlgebra((2, 3), (1.0, w))
