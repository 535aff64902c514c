"""Scalar function catalog metadata and the convexity checkers."""

import pickle

import numpy as np
import pytest

from opjensen.convex_catalog import (
    ScalarFunction,
    catalog_names,
    check_operator_convex,
    get_function,
    parse_function_spec,
)
from opjensen.errors import ConvexityError, UnknownFunctionError
from opjensen.intervals import REAL_LINE, Interval
from opjensen.linalg_core import (
    hermitian_eig,
    matrix_function,
    random_contraction,
    random_hermitian,
    rng_stream,
)
from opjensen.spectral_tools import monotone_sign_split


def test_square_metadata():
    f = get_function("square")
    assert f(3.0) == 9.0
    assert f.is_convex and f.is_operator_convex and f.vanishes_at_zero


def test_shifted_square_metadata():
    f = get_function("shifted_square", (1.0,))
    assert f(0.0) == 1.0
    assert not f.vanishes_at_zero
    assert f.is_operator_convex


def test_abs_quartic_exp_flags():
    assert not get_function("abs").is_operator_convex
    assert not get_function("quartic").is_operator_convex
    f = get_function("exp")
    assert not f.is_operator_convex and not f.vanishes_at_zero


def test_hinge_flags():
    assert get_function("hinge", (0.0,)).vanishes_at_zero
    assert get_function("hinge", (-1.0,)).vanishes_at_zero is False
    assert get_function("hinge", (2.0,)).vanishes_at_zero


def test_power_validity():
    f = get_function("power", (1.5,))
    assert f.is_operator_convex
    assert not get_function("power", (3.0,)).is_operator_convex
    with pytest.raises(UnknownFunctionError):
        get_function("power", (0.5,))


def test_restricted_domains():
    inv = get_function("inv")
    assert not inv.defined_at_zero()
    assert inv.domain.contains(0.5) and not inv.domain.contains(0.0)
    ent = get_function("entropy")
    assert ent(0.0) == 0.0 and ent.defined_at_zero()


def test_unknown_name_lists_catalog():
    with pytest.raises(UnknownFunctionError) as exc:
        get_function("bogus")
    msg = str(exc.value)
    for name in catalog_names():
        assert name in msg


def test_unknown_function_error_prints_unquoted():
    # still a KeyError, but its message prints as written, without quotes
    with pytest.raises(KeyError) as exc:
        get_function("bogus")
    assert str(exc.value).startswith("unknown function 'bogus'; valid names: abs, ")


def test_parse_function_spec():
    f = parse_function_spec("hinge:0.5")
    assert f.name == "hinge" and f.params == (0.5,)
    assert parse_function_spec("square").params == ()
    assert parse_function_spec("shifted_square:-1").params == (-1.0,)


@pytest.mark.parametrize("spec", [
    "exp:2", "square:3", "power:1.5,2", "hinge:0,1", "const:1,5", "shifted_square",
    "power", "const",
])
def test_spec_takes_exactly_its_parameters(spec):
    # extra parameters were dropped without a word: exp:2 ran exp
    with pytest.raises(UnknownFunctionError):
        parse_function_spec(spec)


@pytest.mark.parametrize("param", ["1", True, float("nan"), float("inf"), -float("inf")])
def test_get_function_refuses_parameters_that_are_not_finite_numbers(param):
    # a witness's params reach get_function unparsed: "1" and true ran as 1.0
    with pytest.raises(UnknownFunctionError, match="finite real numbers"):
        get_function("shifted_square", [param])


def test_get_function_takes_integer_and_numpy_parameters():
    assert get_function("shifted_square", [2]).params == (2.0,)
    assert get_function("power", (np.float64(1.5),)).params == (1.5,)


@pytest.mark.parametrize("spec, label", [
    ("hinge", "hinge:0.0"), ("hinge:0.5", "hinge:0.5"), ("linear", "linear:1.0"),
    ("power:1.5", "power:1.5"), ("const:-1", "const:-1.0"), ("square", "square"),
])
def test_defaults_fill_the_label(spec, label):
    assert parse_function_spec(spec).label == label


def test_label_round_trip():
    f = get_function("shifted_square", (-1.0,))
    assert parse_function_spec(f.label).params == f.params


def test_pickles_as_catalog_key():
    # campaign tasks carry functions to pool workers by pickling them
    for spec in ("square", "hinge:0.5", "shifted_square:-1", "power:1.5", "inv", "linear"):
        f = parse_function_spec(spec)
        g = pickle.loads(pickle.dumps(f))
        assert (g.label, g.domain, g.is_operator_convex, g.vanishes_at_zero, g(0.7)) == \
            (f.label, f.domain, f.is_operator_convex, f.vanishes_at_zero, f(0.7))


# Parameters to instantiate each parametrized catalog entry with.
_PARAM_SAMPLES = {
    "hinge": [(0.0,), (0.5,)],
    "shifted_square": [(-1.0,), (0.0,), (2.5,)],
    "power": [(1.5,), (2.0,), (3.0,)],
    "linear": [(1.0,), (-0.75,), (0.0,)],
    "const": [(0.7,), (-3.0,), (0.0,)],
}


def test_poly_coefficients_agree_with_scalar_function():
    # only functions on the whole real line carry coefficients, and there the
    # polynomial is the function
    grid = np.linspace(-5.0, 5.0, 1001).tolist()
    carriers = set()
    for name in catalog_names():
        for params in _PARAM_SAMPLES.get(name, [()]):
            f = get_function(name, params)
            if f.poly is None:
                continue
            carriers.add(name)
            assert f.domain == REAL_LINE, f.label
            assert all(isinstance(c, float) for c in f.poly)
            for t in grid:
                value = 0.0
                for c in reversed(f.poly):
                    value = value * t + c
                assert abs(f(t) - value) <= 1e-14 * abs(f(t)), (f.label, t)
    assert carriers == {"square", "quartic", "shifted_square", "linear", "const"}
    assert get_function("power", (2.0,)).poly is None  # its domain check must run


def _grid_finds_nonconvexity(f: ScalarFunction, interval: Interval) -> bool:
    # the verdict path's scalar convexity test: monotone_sign_split checks the
    # midpoint inequality on a grid and raises ConvexityError
    try:
        monotone_sign_split(f, interval)
    except ConvexityError:
        return True
    return False


def test_check_convex_square():
    assert not _grid_finds_nonconvexity(get_function("square"), Interval.closed(-5.0, 5.0))


def test_check_convex_rejects_concave_with_witness():
    neg = ScalarFunction("negsquare", (), lambda t: -t * t, Interval.real_line(), False, False, True)
    with pytest.raises(ConvexityError, match="not convex near t = ") as err:
        monotone_sign_split(neg, Interval.closed(-1.0, 1.0))
    # the named point breaks the midpoint inequality between its grid neighbours
    t, h = float(str(err.value).split("t = ")[1].split(":")[0]), 2.0 / 64
    assert -1.0 < t < 1.0
    assert neg(t) > 0.5 * (neg(t - h) + neg(t + h))


def test_check_convex_abs_many_samples():
    # the kink of abs at 0 on a grid point (-1..1) and between two (-1..0.7)
    f = get_function("abs")
    assert not _grid_finds_nonconvexity(f, Interval.closed(-1.0, 1.0))
    assert not _grid_finds_nonconvexity(f, Interval.closed(-1.0, 0.7))


def test_operator_convex_square_clean():
    rep = check_operator_convex(get_function("square"), 2, 200, 5)
    assert rep.verdict == "no_violation_found"


@pytest.mark.parametrize("name", ["quartic", "abs"])
def test_operator_convex_finds_violations(name):
    rep = check_operator_convex(get_function(name), 2, 1000, 7)
    assert rep.verdict == "violation"
    assert rep.min_eigenvalue < 0
    # the witness is a genuine Loewner violation, re-verified from scratch
    f = get_function(name)
    delta = 0.5 * (matrix_function(rep.witness_a, f) + matrix_function(rep.witness_b, f)) \
        - matrix_function(0.5 * (rep.witness_a + rep.witness_b), f)
    assert hermitian_eig(delta).eigenvalues[0] < -1e-9


# frozen witnesses once found by the search (seed 7), kept as regressions
QUARTIC_WITNESS = (
    np.array([
        [-0.4535880656036237 + 0.0j, 0.9767535582784531 + 0.27063511812757934j],
        [0.9767535582784531 - 0.27063511812757934j, -0.848025315280373 + 0.0j],
    ]),
    np.array([
        [-0.04703484814400829 + 0.0j, 0.7445021772231242 - 0.2088001428770209j],
        [0.7445021772231242 + 0.2088001428770209j, -0.4777653594778642 + 0.0j],
    ]),
)

ABS_WITNESS = (
    np.array([
        [-0.9505032217548863 + 0.0j, -0.8339753498343124 + 0.36499273442007485j],
        [-0.8339753498343124 - 0.36499273442007485j, -0.9118408803979303 + 0.0j],
    ]),
    np.array([
        [0.11083975631034962 + 0.0j, -0.9558989983498629 + 0.5810454641486213j],
        [-0.9558989983498629 - 0.5810454641486213j, -0.3809133996301753 + 0.0j],
    ]),
)


@pytest.mark.parametrize(
    "name,pair,lam",
    [("quartic", QUARTIC_WITNESS, -0.015240130694768175),
     ("abs", ABS_WITNESS, -0.043083142637210664)],
)
def test_operator_convex_frozen_witnesses(name, pair, lam):
    f = get_function(name)
    a, b = pair
    delta = 0.5 * (matrix_function(a, f) + matrix_function(b, f)) \
        - matrix_function(0.5 * (a + b), f)
    lam_min = hermitian_eig(delta).eigenvalues[0]
    assert lam_min < -1e-3
    assert abs(lam_min - lam) <= 1e-12


def test_catalog_metadata_agreement():
    # sampled convexity agrees with is_convex; operator-convex entries survive
    # a midpoint search at dims 2..4
    entries = [
        get_function("square"), get_function("abs"), get_function("quartic"),
        get_function("exp"), get_function("hinge", (0.0,)),
        get_function("shifted_square", (-1.0,)), get_function("entropy"),
        get_function("inv"), get_function("neglog"), get_function("power", (1.5,)),
    ]
    for f in entries:
        lo = f.domain.lo if np.isfinite(f.domain.lo) else -2.0
        box = Interval.closed(lo + (0.1 if f.domain.lo_open else 0.0), lo + 3.0)
        assert _grid_finds_nonconvexity(f, box) != f.is_convex
        if f.is_operator_convex:
            for dim in (2, 3, 4):
                rep = check_operator_convex(f, dim, 150, 13)
                assert rep.verdict == "no_violation_found", (f.label, dim)


def test_single_matrix_contractive_jensen():
    # operator convex f with f(0) <= 0 obeys f(a* h a) <= a* f(h) a
    rng = rng_stream(17)
    for name, params in (("square", ()), ("power", (1.5,)), ("entropy", ())):
        f = get_function(name, params)
        for _ in range(25):
            h = random_hermitian(3, rng)
            if np.isfinite(f.domain.lo):
                w_min = hermitian_eig(h).eigenvalues[0]
                h = h + (f.domain.lo + 0.5 - w_min) * np.eye(3)
            a = random_contraction(3, rng)
            diff = a.conj().T @ matrix_function(h, f) @ a - matrix_function(
                0.5 * ((a.conj().T @ h @ a) + (a.conj().T @ h @ a).conj().T), f
            )
            lam = hermitian_eig(0.5 * (diff + diff.conj().T)).eigenvalues[0]
            assert lam >= -1e-9 * max(1.0, np.linalg.norm(matrix_function(h, f), 2))
