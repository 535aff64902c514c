"""Eigensolver, functional calculus, Kronecker products, random generators."""

import math

import numpy as np
import pytest

from opjensen import linalg_core
from opjensen.convex_catalog import ScalarFunction, get_function, parse_function_spec
from opjensen.errors import DimensionError, DomainError, NonHermitianError, NumericError
from opjensen.intervals import Interval, REAL_LINE
from opjensen.linalg_core import (
    SpectralDecomposition,
    as_complex,
    complex_gaussian,
    frob,
    hermitian_eig,
    hermitian_eigvals,
    kron,
    matrix_function,
    opnorm,
    psd_sqrt,
    random_contraction,
    random_density,
    random_hermitian,
    random_l2_normalized,
    random_stream,
    random_unitary,
    rng_stream,
    stream_token,
)


def cubic_roots(b, c, d):
    """Real roots of t^3 + b t^2 + c t + d via the trigonometric formula.

    Independent oracle for 3x3 Hermitian eigenvalues (always three real
    roots for a characteristic polynomial of a Hermitian matrix).
    """
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    if abs(p) < 1e-14:
        t = -np.cbrt(q)
        return sorted([t - b / 3.0] * 3)
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - b / 3.0 for k in range(3)]
    return sorted(roots)


def char_poly_coeffs(h):
    """Coefficients (b, c, d) of det(tI - H) = t^3 + b t^2 + c t + d."""
    tr = np.trace(h).real
    tr2 = np.trace(h @ h).real
    det = np.linalg.det(h).real
    b = -tr
    c = 0.5 * (tr * tr - tr2)
    d = -det
    return b, c, d


def test_pauli_x_eigenvalues():
    dec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_diagonal_input_is_permutation():
    dec = hermitian_eig(np.diag([3.0, -2.0]))
    assert np.allclose(dec.eigenvalues, [-2.0, 3.0])
    assert np.allclose(np.abs(dec.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])


def test_eigenvalues_match_characteristic_polynomial_oracle():
    h = random_hermitian(3, rng_stream(42))
    expected = cubic_roots(*char_poly_coeffs(h))
    dec = hermitian_eig(h)
    assert np.allclose(dec.eigenvalues, expected, atol=1e-10)


def test_reconstruction_and_unitarity_random():
    rng = rng_stream(1001)
    for _ in range(150):
        d = int(rng.integers(1, 13))
        m = random_hermitian(d, rng)
        dec = hermitian_eig(m)
        scale = max(1.0, frob(m))
        assert frob(dec.reconstruct() - m) <= 1e-11 * scale
        assert frob(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(d)) <= 1e-11
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eig_deterministic():
    m = random_hermitian(5, rng_stream(7))
    d1 = hermitian_eig(m)
    d2 = hermitian_eig(m)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eigenvalues_cross_checked_against_lapack():
    # independent solver route for the whole spectrum, not just 3x3
    rng = rng_stream(311)
    for _ in range(60):
        d = int(rng.integers(2, 13))
        m = random_hermitian(d, rng)
        ours = hermitian_eig(m).eigenvalues
        lapack = np.linalg.eigvalsh(m)
        assert np.allclose(ours, lapack, atol=1e-12 * max(1.0, frob(m)))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionError):
        hermitian_eig(np.ones((2, 3)))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _eigvals_cases():
    """Random, repeated-eigenvalue, rank-deficient, zero and 1x1 inputs."""
    rng = rng_stream(419)
    cases = [random_hermitian(int(d), rng) for d in rng.integers(2, 13, size=40)]
    for spectrum in ([1.0, 1.0, 2.0, 2.0, 2.0], [-3.0] * 4, [0.5, 0.5, 0.5 + 1e-13, 7.0]):
        u = random_unitary(len(spectrum), rng)
        cases.append((u * spectrum) @ u.conj().T)
    for d, rank in ((4, 1), (5, 2), (6, 3)):
        g = complex_gaussian(rng, d, rank)
        cases.append(g @ g.conj().T)
    cases += [np.zeros((3, 3)), np.zeros((1, 1)), np.array([[-2.5]]),
              random_hermitian(1, rng)]
    return cases


def test_eigvals_equal_eig_spectrum():
    for m in _eigvals_cases():
        w = hermitian_eigvals(m)
        assert w.dtype == np.float64 and w.shape == (m.shape[0],)
        assert np.all(np.diff(w) >= 0)
        ref = hermitian_eig(m).eigenvalues
        assert np.max(np.abs(w - ref)) <= 1e-12 * max(1.0, frob(m))


_MISUSE_CASES = [
    (np.ones((2, 3)), DimensionError),
    (np.ones(3), DimensionError),
    (np.ones((2, 2, 2)), DimensionError),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), NonHermitianError),
    (np.array([[1.0, 1.0], [1.0 + 1e-6, 1.0]]), NonHermitianError),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), NumericError),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), NumericError),
    (np.array([[1.0, 1.0], [1.0 + 1e-12, 1.0]]), None),  # float dust is symmetrized
    (np.zeros((0, 0)), None),
]


@pytest.mark.parametrize("m, error", _MISUSE_CASES)
def test_eigvals_raise_where_eig_raises(m, error):
    if error is None:
        assert np.allclose(hermitian_eigvals(m), hermitian_eig(m).eigenvalues,
                           rtol=0, atol=1e-12)
        return
    for solver in (hermitian_eig, hermitian_eigvals):
        with pytest.raises(error):
            solver(m)


def test_matrix_function_square_of_pauli_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(matrix_function(x, get_function("square")), np.eye(2))


def test_matrix_function_abs_diagonal():
    out = matrix_function(np.diag([3.0, -2.0]), get_function("abs"))
    assert np.allclose(out, np.diag([3.0, 2.0]))


def test_matrix_function_exp_series_oracle():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    series = np.zeros((2, 2))
    term = np.eye(2)
    for k in range(1, 40):
        series = series + term
        term = term @ x / k
    out = matrix_function(x, get_function("exp"))
    assert np.allclose(out, series, atol=1e-13)
    assert np.allclose(out, [[np.cosh(1), np.sinh(1)], [np.sinh(1), np.cosh(1)]])


def test_matrix_function_identity_and_constant():
    m = random_hermitian(4, rng_stream(3))
    ident = matrix_function(m, get_function("linear", (1.0,)))
    assert frob(ident - m) <= 1e-11 * max(1.0, frob(m))
    const = matrix_function(m, get_function("const", (2.5,)))
    assert np.allclose(const, 2.5 * np.eye(4))


def test_matrix_function_unitary_covariance():
    rng = rng_stream(17)
    m = random_hermitian(4, rng)
    u = random_unitary(4, rng)
    f = get_function("exp")
    lhs = matrix_function(u @ m @ u.conj().T, f)
    rhs = u @ matrix_function(m, f) @ u.conj().T
    assert frob(lhs - rhs) <= 1e-10 * max(1.0, frob(rhs))


def test_matrix_function_commutes_with_input():
    m = random_hermitian(5, rng_stream(23))
    out = matrix_function(m, get_function("quartic"))
    assert frob(out @ m - m @ out) <= 1e-10 * max(1.0, frob(m) * frob(out))


def test_matrix_function_domain_error_names_eigenvalue():
    with pytest.raises(DomainError) as exc:
        matrix_function(np.diag([1.0, -3.0]), get_function("inv"))
    assert "-3" in str(exc.value)


def test_matrix_function_clamps_closed_endpoint_dust():
    # PSD up to float dust: the dust sits on the closed endpoint of [0, inf)
    for dust in (-1e-14, -1e-13):
        out = matrix_function(np.diag([dust, 1.0]), get_function("power", (1.5,)))
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


def test_matrix_function_rejects_beyond_endpoint_dust():
    with pytest.raises(DomainError):
        matrix_function(np.diag([-1e-6, 1.0]), get_function("power", (1.5,)))


@pytest.mark.parametrize("spec", ["power:1.5", "power:3", "entropy"])
def test_matrix_function_refuses_an_eigenvalue_1e_9_below_a_closed_endpoint(spec):
    # float dust is 1e-12 relative; 1e-9 below the endpoint 0 is outside the domain
    with pytest.raises(DomainError, match="outside the domain"):
        matrix_function(np.diag([-1e-9, 1.0]), parse_function_spec(spec))


@pytest.mark.parametrize("eigenvalues, root", [
    ([4.0, -1.0], [2.0, 0.0]),
    ([-0.25, 9.0, 0.0], [0.0, 3.0, 0.0]),
    ([-4.0, -1e-3], [0.0, 0.0]),
])
def test_psd_sqrt_clips_negative_eigenvalues_to_zero(eigenvalues, root):
    assert np.array_equal(psd_sqrt(np.diag(eigenvalues)), np.diag(root))


# Catalog functions with coefficients, several parameters each.
_POLY_SPECS = (
    "square", "quartic", "shifted_square:-1", "shifted_square:2.5",
    "linear:1", "linear:-0.75", "const:0.7", "const:-3",
)


def _route_cases():
    """The `_eigvals_cases` inputs plus a 1e-6...1e6 scale sweep."""
    m = random_hermitian(5, rng_stream(823))
    return _eigvals_cases() + [scale * m for scale in 10.0 ** np.arange(-6, 7)]


@pytest.mark.parametrize("spec", _POLY_SPECS)
def test_polynomial_route_equals_spectral_route(spec):
    f = parse_function_spec(spec)
    assert f.poly is not None
    for m in _route_cases():
        out = matrix_function(m, f)
        ref = matrix_function(m, f, decomp=hermitian_eig(m))
        assert out.dtype == np.complex128 and out.shape == m.shape
        assert np.array_equal(out, out.conj().T)
        assert frob(out - ref) <= 1e-12 * max(1.0, frob(ref)), (spec, m.shape)


def test_polynomial_route_exact_on_zero_matrix():
    for d in (1, 2, 5):
        zero = np.zeros((d, d))
        for c in (0.7, -3.0, 0.0):
            assert np.array_equal(matrix_function(zero, get_function("const", (c,))),
                                  c * np.eye(d))
        assert np.array_equal(matrix_function(zero, get_function("shifted_square", (1.0,))),
                              np.eye(d))
        assert np.array_equal(matrix_function(zero, get_function("quartic")), zero)


@pytest.mark.parametrize("m, error", _MISUSE_CASES)
def test_polynomial_route_raises_where_spectral_route_raises(m, error):
    for f in [get_function("abs")] + [parse_function_spec(s) for s in _POLY_SPECS]:
        if error is None:
            matrix_function(m, f)  # both routes accept it
            continue
        with pytest.raises(error):
            matrix_function(m, f)


def test_polynomial_route_makes_no_eigensolve(monkeypatch):
    # with the eigensolver unavailable, every function with coefficients
    # still works; abs and exp, and any call that passes decomp=, go
    # through the spectral route
    m = random_hermitian(4, rng_stream(829))
    dec = hermitian_eig(m)
    expected = {spec: matrix_function(m, parse_function_spec(spec), decomp=dec)
                for spec in _POLY_SPECS}
    calls = []

    def no_eigensolve(x):
        calls.append(x)
        raise AssertionError("hermitian_eig called")

    monkeypatch.setattr(linalg_core, "hermitian_eig", no_eigensolve)
    for spec, ref in expected.items():
        out = matrix_function(m, parse_function_spec(spec))
        assert frob(out - ref) <= 1e-12 * max(1.0, frob(ref)), spec
    assert not calls
    for name in ("abs", "exp"):
        with pytest.raises(AssertionError, match="hermitian_eig called"):
            matrix_function(m, get_function(name))
    assert len(calls) == 2
    # decomp= takes the spectral route on the decomposition given, even
    # for a polynomial: a different spectrum shows in the result
    shifted = SpectralDecomposition(dec.eigenvalues + 1.0, dec.eigenvectors)
    out = matrix_function(m, get_function("square"), decomp=shifted)
    assert frob(out - shifted.with_eigenvalues(shifted.eigenvalues ** 2)) <= 1e-12 * frob(out)
    assert len(calls) == 2


_G = complex_gaussian(rng_stream(5), 6, 6)


@pytest.mark.parametrize("m", [
    _G,
    np.asfortranarray(_G),
    _G[::2, 1::2],
    _G.conj().T,
    _G.real.copy(),
    np.asfortranarray(_G.real),
    _G.real[1:, ::3],
    np.arange(-6, 6).reshape(3, 4),
    np.zeros((0, 0)),
], ids=["c-order", "fortran", "strided", "transposed", "real", "real-fortran",
        "real-strided", "integer", "empty"])
def test_frob_bitwise_equal_to_numpy_norm(m):
    assert frob(m) == float(np.linalg.norm(m))


@pytest.mark.parametrize("a,b", [
    (_G[:2, :3], _G[2:, 3:]),
    (-_G[:3, :1], np.eye(2)),
    (np.eye(3), _G.T[:2, :2]),
    (np.arange(4.0).reshape(2, 2), -np.ones((1, 3))),
])
def test_kron_and_opnorm_bitwise_equal_to_numpy(a, b):
    k = kron(a, b)
    ref = np.kron(a.astype(complex), b.astype(complex))
    assert k.shape == ref.shape and k.tobytes() == ref.tobytes()
    assert opnorm(k) == float(np.linalg.norm(k, 2))


def test_kron_rejects_vectors():
    with pytest.raises(DimensionError):
        kron(np.ones(2), np.eye(2))


@pytest.mark.parametrize("bad", [
    complex(x, 0.0) for x in (math.nan, math.inf, -math.inf)
] + [complex(0.0, x) for x in (math.nan, math.inf, -math.inf)])
def test_as_complex_rejects_non_finite_parts(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(NumericError):
        as_complex(m)


@pytest.mark.parametrize("entropy", [(0,), (7, 3), (12345, 39, 2), (2 ** 40, 0, 1)])
def test_random_stream_matches_rng_stream_and_token(entropy):
    rng, token = random_stream(*entropy)
    ref = rng_stream(*entropy)
    assert token == stream_token(*entropy)
    assert np.array_equal(rng.standard_normal(16), ref.standard_normal(16))
    assert rng.integers(1 << 62) == ref.integers(1 << 62)


def test_kron_diagonal_examples():
    assert np.allclose(kron(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 1.0, 2.0, 2.0]))
    assert np.allclose(kron(np.eye(2), np.diag([1.0, 2.0])), np.diag([1.0, 2.0, 1.0, 2.0]))


def test_kron_trace_identity():
    rng = rng_stream(7)
    a = random_hermitian(3, rng)
    b = random_hermitian(3, rng)
    assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))


def test_kron_mixed_product_and_associativity():
    rng = rng_stream(31)
    a, c = (random_hermitian(2, rng) for _ in range(2))
    b, d = (random_hermitian(3, rng) for _ in range(2))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert frob(lhs - rhs) <= 1e-12 * max(1.0, frob(rhs))
    e = random_hermitian(2, rng)
    assert np.allclose(kron(kron(a, b), e), kron(a, kron(b, e)))


def test_random_density_properties():
    for s in range(100):
        rho = random_density(2, rng_stream(s))
        w = hermitian_eig(rho).eigenvalues
        assert w[0] >= -1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


def test_random_contraction_norm():
    for s in range(100):
        a = random_contraction(3, rng_stream(s))
        assert np.linalg.norm(a, 2) < 1.0


def test_random_unitary_unitarity():
    u = random_unitary(4, rng_stream(5))
    assert frob(u.conj().T @ u - np.eye(4)) <= 1e-12


def test_random_l2_normalized_weighted():
    a = random_l2_normalized(3, rng_stream(11), 0.3)
    assert abs(0.3 * np.trace(a.conj().T @ a).real - 1.0) <= 1e-12


def test_random_instance_deterministic():
    a = random_hermitian(4, rng_stream(123))
    b = random_hermitian(4, rng_stream(123))
    assert np.array_equal(a, b)
    c = random_hermitian(4, rng_stream(124))
    assert not np.array_equal(a, c)


def test_random_instance_dim_zero_raises():
    with pytest.raises(DimensionError):
        random_hermitian(0, rng_stream(1))


def test_custom_scalar_function_domain():
    half = ScalarFunction(
        "halfline", (), lambda t: t, Interval.at_least(0.0), True, True, True
    )
    assert half.domain.contains(0.0) and not half.domain.contains(-1e-9)
    assert REAL_LINE.contains(-1e300)


def test_tolerance_config_validation():
    from opjensen.linalg_core import ToleranceConfig

    with pytest.raises(ValueError):
        ToleranceConfig(atol=-1e-9)
    for field in ("atol", "rtol", "eig_cluster_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ToleranceConfig(**{field: bad})
    tol = ToleranceConfig()
    assert tol.bound() == tol.atol + tol.rtol
    assert tol.bound(100.0) == tol.atol + tol.rtol * 100.0
