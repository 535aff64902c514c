"""Per-inequality verification operations, ablations, and witness replay."""

import inspect
import json
import math

import numpy as np
import pytest

from opjensen import jensen_checks, tensor_ops
from opjensen.convex_catalog import check_operator_convex, get_function, parse_function_spec
from opjensen.errors import DimensionError, DomainError, HypothesisError, UsageError
from opjensen.intervals import Interval
from opjensen.jensen_checks import (
    ABLATION_TARGETS,
    CHECKS,
    CheckSpec,
    ablation_search,
    check_cfl,
    check_hansen_pedersen,
    check_main_tracial,
    check_partial_trace_duality,
    check_petz,
    check_pinching_chain,
    check_spectral_preorder_lemma,
    check_state_version,
    check_vector_jensen,
    generate_trial,
    replay_report,
    run_trial,
    working_interval,
)
from opjensen.linalg_core import (
    ToleranceConfig,
    complex_gaussian,
    frob,
    hermitian_eig,
    psd_sqrt,
    random_density,
    random_hermitian,
    random_stream,
    random_unitary,
    rng_stream,
)
from opjensen.positive_maps import (
    MAP_KINDS,
    PositiveMap,
    apply_map,
    identity_map,
    pinching_map,
    random_positive_map,
    slice_compress_map,
    transpose_map,
)
from opjensen.reporting import CheckReport
from opjensen.spectral_tools import monotone_sign_split, singular_value_function
from opjensen.tensor_ops import BlockAlgebra, TensorSpace, conjugate_compress, slice_map

SPACE22 = TensorSpace(2, 2)
SPACE23 = TensorSpace(2, 3)


# ---------------------------------------------------------------------------
# check_cfl
# ---------------------------------------------------------------------------

def test_cfl_hand_computed_diagonal():
    # diagonal H = diag(0, 2, 2, 0), rho maximally mixed, f = t^2:
    # lhs = (a p + c q)^2 + (b p + d q)^2 with p = q = 1/2 -> 2, rhs -> 4
    h = np.diag([0.0, 2.0, 2.0, 0.0])
    rho = np.eye(2) / 2.0
    rep = check_cfl(h, rho, get_function("square"), SPACE22)
    assert abs(rep.lhs - 2.0) <= 1e-12
    assert abs(rep.rhs - 4.0) <= 1e-12
    assert rep.passed


def test_cfl_linear_function_equality():
    rng = rng_stream(60)
    rep = check_cfl(
        random_hermitian(4, rng), random_density(2, rng),
        get_function("linear", (3.0,)), SPACE22,
    )
    assert abs(rep.gap) <= 1e-12 * max(1.0, abs(rep.lhs))


def test_cfl_random_campaign_small():
    for fname, params in (("square", ()), ("abs", ()), ("exp", ()), ("quartic", ()), ("hinge", (0.0,))):
        f = get_function(fname, params)
        for s in range(40):
            rep = generate_trial("check_cfl", {"d1": 2, "d2": 3, "function": f}, (71, s))
            assert rep.passed, (fname, s, rep.gap)


def test_cfl_unitary_covariance():
    rng = rng_stream(62)
    h = random_hermitian(4, rng)
    rho = random_density(2, rng)
    u1 = random_unitary(2, rng)
    u2 = random_unitary(2, rng)
    f = get_function("quartic")
    base = check_cfl(h, rho, f, SPACE22)
    rotated = check_cfl(
        np.kron(u1, u2) @ h @ np.kron(u1, u2).conj().T,
        u1 @ rho @ u1.conj().T, f, SPACE22,
    )
    assert abs(base.lhs - rotated.lhs) <= 1e-10 * max(1.0, abs(base.lhs))
    assert abs(base.rhs - rotated.rhs) <= 1e-10 * max(1.0, abs(base.rhs))


def test_degenerate_spectra_across_checks():
    # constructed repeated eigenvalues everywhere
    h = np.diag([1.0, 1.0, 1.0, -2.0])
    rho = np.diag([0.5, 0.5])
    for fname in ("square", "abs", "exp"):
        f = get_function(fname)
        assert check_cfl(h, rho, f, SPACE22).passed
        assert check_main_tracial(
            h, psd_sqrt(rho), f, SPACE22, (1.0, 1.0), "normalized"
        ).passed
    x = np.diag([2.0, 2.0, -1.0])
    phi = random_positive_map("ucp_stinespring", 3, 2, rng_stream(7))
    assert check_petz(phi, x, get_function("abs"), BlockAlgebra.single(2)).passed
    u = random_unitary(2, rng_stream(59))
    assert check_state_version(
        h, u, get_function("square"), np.eye(2) / 2, np.eye(2) / 2, SPACE22
    ).passed
    assert check_hansen_pedersen(h, u, get_function("square"), SPACE22).passed


def test_cfl_rejects_nonconvex_flag():
    with pytest.raises(HypothesisError):
        f = get_function("square")
        bad = type(f)("notconvex", (), f.fn, f.domain, False, False, True)
        check_cfl(np.eye(4), np.eye(2) / 2, bad, SPACE22)


# ---------------------------------------------------------------------------
# check_main_tracial
# ---------------------------------------------------------------------------

def test_tracial_reduces_to_cfl_at_density_root():
    rng = rng_stream(63)
    for s in range(10):
        h = random_hermitian(4, rng)
        rho = random_density(2, rng)
        a = psd_sqrt(rho)
        for fname in ("square", "abs", "exp"):
            f = get_function(fname)
            r_cfl = check_cfl(h, rho, f, SPACE22)
            r_tr = check_main_tracial(h, a, f, SPACE22, (1.0, 1.0), "normalized")
            assert abs(r_cfl.lhs - r_tr.lhs) <= 1e-12 * max(1.0, abs(r_cfl.lhs))
            assert abs(r_cfl.rhs - r_tr.rhs) <= 1e-12 * max(1.0, abs(r_cfl.rhs))


def test_tracial_normalized_weighted_batch():
    f = get_function("quartic")
    for s in range(30):
        rep = generate_trial(
            "check_main_tracial",
            {"d1": 2, "d2": 3, "function": f, "w1": 0.3, "w2": 2.5, "branch": "normalized"},
            (64, s),
        )
        assert rep.passed, (s, rep.gap)


def test_tracial_subnormalized_batch():
    f = get_function("hinge", (0.0,))
    for s in range(30):
        rep = generate_trial(
            "check_main_tracial",
            {"d1": 3, "d2": 2, "function": f, "w1": 2.5, "w2": 0.3, "branch": "subnormalized"},
            (65, s),
        )
        assert rep.passed, (s, rep.gap)


def test_tracial_branch_hypothesis_errors():
    rng = rng_stream(66)
    h = random_hermitian(4, rng)
    a = 2.0 * np.eye(2)  # tau(a* a) = 8, neither normalized nor subnormalized
    with pytest.raises(HypothesisError):
        check_main_tracial(h, a, get_function("square"), SPACE22, (1.0, 1.0), "normalized")
    with pytest.raises(HypothesisError):
        check_main_tracial(h, a, get_function("square"), SPACE22, (1.0, 1.0), "subnormalized")
    # subnormalized needs f(0) = 0
    small = 0.1 * np.eye(2)
    with pytest.raises(HypothesisError):
        check_main_tracial(h, small, get_function("exp"), SPACE22, (1.0, 1.0), "subnormalized")


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


ACCEPTANCE_01_FUNCTIONS = [get_function("square"), get_function("abs"),
                           get_function("quartic"), get_function("exp"),
                           get_function("hinge", (0.0,))]


def test_cfl_equals_main_tracial_bitwise_on_acceptance_grid():
    # check_cfl is check_main_tracial at a = rho^(1/2) with unit weights
    for d1 in (2, 3, 4):
        for d2 in (2, 3, 4):
            space = TensorSpace(d1, d2)
            for k, f in enumerate(ACCEPTANCE_01_FUNCTIONS):
                for s in range(3):
                    inputs = CHECKS["check_cfl"].draw(
                        {"d1": d1, "d2": d2, "function": f}, rng_stream(68, d1, d2, k, s))
                    h, rho = inputs["H"], inputs["rho"]
                    r_cfl = check_cfl(h, rho, f, space)
                    r_tr = check_main_tracial(h, psd_sqrt(rho), f, space, (1.0, 1.0),
                                              "normalized")
                    assert (r_cfl.lhs, r_cfl.rhs) == (r_tr.lhs, r_tr.rhs), (d1, d2, f.label, s)


def test_tracial_consistency_with_petz_via_compress_map():
    # the proof's reduction: the normalized instance re-checked as a Petz-type
    # inequality for the compression-slice map
    for dims in ((2, 2), (2, 3), (3, 2)):
        space = TensorSpace(*dims)
        for w1, w2 in ((1.0, 1.0), (0.3, 2.5)):
            for k, f in enumerate(ACCEPTANCE_01_FUNCTIONS):
                rng = rng_stream(67, *dims, k, int(10 * w1))
                for s in range(3):
                    h = random_hermitian(space.total_dim, rng)
                    g = complex_gaussian(rng, space.d1, space.d1)
                    a = g / np.sqrt(w1 * np.trace(g.conj().T @ g).real)
                    r_tr = check_main_tracial(h, a, f, space, (w1, w2), "normalized")
                    phi = slice_compress_map(a, space, w1)
                    r_petz = check_petz(phi, h, f, BlockAlgebra.single(space.d2, w2))
                    assert r_tr.passed and r_petz.passed
                    assert _close(r_tr.lhs, r_petz.lhs), (dims, w1, f.label, s)
                    assert _close(r_tr.rhs, r_petz.rhs), (dims, w1, f.label, s)


def test_tracial_subnormalized_needs_f0():
    # f = c > 0 breaks only f(0) = 0: with tau_1(a* a) = scale^2 < 1 the sides
    # are c w2 d2 and scale^2 c w2 d2, a gap of -(1 - scale^2) c w2 d2
    c = 0.7
    f = get_function("const", (c,))
    for dims, (w1, w2) in (((2, 2), (1.0, 1.0)), ((2, 3), (0.3, 2.5)), ((3, 2), (1.0, 1.0))):
        space = TensorSpace(*dims)
        rng = rng_stream(69, *dims)
        for scale in (0.2, 0.6, 0.9):
            h = random_hermitian(space.total_dim, rng)
            g = complex_gaussian(rng, space.d1, space.d1)
            a = scale * g / np.sqrt(w1 * np.trace(g.conj().T @ g).real)
            with pytest.raises(HypothesisError):
                check_main_tracial(h, a, f, space, (w1, w2), "subnormalized")
            rep = check_main_tracial(h, a, f, space, (w1, w2), "subnormalized",
                                     enforce_hypotheses=False)
            norm_sq = w1 * np.trace(a.conj().T @ a).real
            expected = -(1.0 - norm_sq) * c * w2 * space.d2
            assert not rep.passed
            assert _close(rep.gap, expected), (dims, scale, rep.gap, expected)


# ---------------------------------------------------------------------------
# check_petz
# ---------------------------------------------------------------------------

def test_petz_identity_map_equality():
    x = random_hermitian(3, rng_stream(68))
    rep = check_petz(identity_map(3), x, get_function("quartic"), BlockAlgebra.single(3))
    assert abs(rep.gap) <= 1e-10 * max(1.0, abs(rep.lhs))


def test_petz_transpose_batch():
    f = get_function("quartic")
    for s in range(40):
        rep = generate_trial(
            "check_petz",
            {"d1": 4, "d2": 4, "function": f, "map_kind": "transpose"},
            (69, s),
        )
        assert rep.passed, (s, rep.gap)
        assert rep.params["branch"] == "unital"


def test_petz_zero_map_f0_violation_is_exact():
    # f(0) = 1 and the zero map: lhs = n, rhs = 0 exactly
    n = 3
    phi = random_positive_map("zero", n, n, rng_stream(0))
    x = random_hermitian(n, rng_stream(70))
    f = get_function("shifted_square", (1.0,))
    rep = check_petz(phi, x, f, BlockAlgebra.single(n, 1.0), enforce_hypotheses=False)
    assert not rep.passed
    assert rep.lhs == float(n) and rep.rhs == 0.0
    assert abs(rep.gap + n) <= 1e-12


F0_ONE = get_function("shifted_square", (1.0,))  # t^2 + 1, so f(0) = 1


@pytest.mark.parametrize("algebra, lhs", [
    (BlockAlgebra((2,), (2.5,)), 2.5 * 2),
    (BlockAlgebra((1, 1), (0.3, 2.5)), 0.3 + 2.5),
    (BlockAlgebra((2, 1), (0.3, 2.5)), 0.3 * 2 + 2.5),
], ids=["one_block", "two_blocks", "unequal_blocks"])
def test_petz_zero_map_lhs_is_the_weighted_trace_of_one(algebra, lhs):
    # f(Phi(x)) = f(0) 1 = 1, so lhs = sum_k w_k n_k exactly, rhs = 0, and at
    # the default tolerances tol = 1e-9 + 1e-9 * lhs
    phi = random_positive_map("zero", 2, algebra.total_dim, rng_stream(0))
    rep = check_petz(phi, random_hermitian(2, rng_stream(70)), F0_ONE, algebra,
                     enforce_hypotheses=False)
    assert (rep.lhs, rep.rhs, rep.gap) == (lhs, 0.0, -lhs)
    assert rep.tol == 1e-9 + 1e-9 * lhs


# atol + rtol * max(1, |values|) is exact in binary at these tolerances.
QUARTER = ToleranceConfig(atol=0.5, rtol=0.25)


def _zero_map_report(name: str) -> CheckReport:
    """A zero-map report of a Petz-type check with f(0) = 1 on M_2."""
    phi = random_positive_map("zero", 2, 2, rng_stream(0))
    x = random_hermitian(2, rng_stream(70))
    if name == "check_vector_jensen":
        return check_vector_jensen(phi, x, F0_ONE, np.array([1.0, 0.0]), tol=QUARTER,
                                   enforce_hypotheses=False)
    return CHECKS[name].run(phi=phi, x=x, f=F0_ONE, algebra=BlockAlgebra.single(2),
                            tol=QUARTER, enforce_hypotheses=False)


@pytest.mark.parametrize("name, tol", [
    ("check_petz", 0.5 + 0.25 * 2),            # bound(lhs = 2, rhs = 0)
    ("check_vector_jensen", 0.5 + 0.25 * 1),   # bound(lhs = f(0) = 1, rhs = 0)
    ("check_pinching_chain", 0.5 + 0.25 * 1),  # bound() of an indicator check
], ids=["petz", "vector_jensen", "pinching_chain"])
def test_report_tol_is_atol_plus_rtol_times_the_scale(name, tol):
    assert _zero_map_report(name).tol == tol


def test_hansen_pedersen_tol_scales_with_the_norm_of_f_of_h():
    # f(3 * 1) = (3^2 + 1) * 1, of operator norm 10: tol = 0.5 + 0.25 * 10
    rep = check_hansen_pedersen(3.0 * np.eye(4), np.zeros((2, 2)), F0_ONE, SPACE22,
                                tol=QUARTER, enforce_hypotheses=False)
    assert rep.tol == 3.0


def test_petz_zero_map_needs_f0_hypothesis():
    phi = random_positive_map("zero", 2, 2, rng_stream(0))
    x = random_hermitian(2, rng_stream(71))
    with pytest.raises(HypothesisError):
        check_petz(phi, x, get_function("shifted_square", (1.0,)), BlockAlgebra.single(2))


def test_petz_block_valued_map_weighted_algebra():
    # pinch a UCP map onto blocks so the output lives in a genuine direct sum
    rng = rng_stream(72)
    alg = BlockAlgebra((2, 2), (0.3, 2.5))
    p1 = np.diag([1.0, 1.0, 0.0, 0.0])
    p2 = np.diag([0.0, 0.0, 1.0, 1.0])
    for s in range(15):
        base = random_positive_map("ucp_stinespring", 3, 4, rng)
        blocked = pinching_map([p1, p2])
        kraus = tuple(v @ p for v in base.kraus for p in (p1, p2))
        phi = type(base)(kind="block_ucp", in_dim=3, out_dim=4, kraus=kraus, claimed_positive=True)
        assert frob(phi.on_identity() - np.eye(4)) <= 1e-10
        x = random_hermitian(3, rng)
        rep = check_petz(phi, x, get_function("abs"), alg)
        assert rep.passed, (s, rep.gap)
        y = apply_map(phi, x)
        assert frob(y[:2, 2:]) <= 1e-10 and frob(y[2:, :2]) <= 1e-10


# ---------------------------------------------------------------------------
# check_vector_jensen
# ---------------------------------------------------------------------------

def test_vector_jensen_linear_gap_zero():
    rng = rng_stream(73)
    phi = random_positive_map("ucp_stinespring", 3, 2, rng)
    x = random_hermitian(3, rng)
    xi = np.array([1.0, 0.0])
    rep = check_vector_jensen(phi, x, get_function("linear", (2.0,)), xi)
    assert abs(rep.gap) <= 1e-11


def test_vector_jensen_eigenvector_equality():
    rng = rng_stream(74)
    x = random_hermitian(3, rng)
    dec = hermitian_eig(x)
    xi = dec.eigenvectors[:, 0]
    rep = check_vector_jensen(identity_map(3), x, get_function("exp"), xi)
    assert abs(rep.gap) <= 1e-10 * max(1.0, abs(rep.lhs))


def test_vector_jensen_batch():
    f = get_function("quartic")
    for s in range(60):
        rep = generate_trial(
            "check_vector_jensen",
            {"d1": 3, "d2": 2, "function": f, "map_kind": "ucp_stinespring"},
            (75, s),
        )
        assert rep.passed, (s, rep.gap)


def test_vector_jensen_unit_norm_required():
    phi = identity_map(2)
    with pytest.raises(HypothesisError):
        check_vector_jensen(phi, np.eye(2), get_function("square"), np.array([1.0, 1.0]))


def test_vector_jensen_exact_gap():
    # <x e1, e1> = 0 and <x^2 e1, e1> = 1 for x = [[0, 1], [1, 0]]
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = check_vector_jensen(identity_map(2), x, get_function("square"), np.array([1.0, 0.0]))
    assert (rep.lhs, rep.rhs, rep.gap) == (0.0, 1.0, 1.0)


def test_vector_jensen_takes_f_of_the_mean_through_the_functional_calculus():
    # the zero map sends x to 0, outside the domain of -log; f(mean) raised a
    # bare ValueError, math domain error
    phi = random_positive_map("zero", 2, 2, rng_stream(1))
    with pytest.raises(DomainError, match="outside the domain"):
        check_vector_jensen(phi, np.eye(2), get_function("neglog"), np.array([1.0, 0.0]),
                            enforce_hypotheses=False)


# ---------------------------------------------------------------------------
# pre-order lemma and pinching chain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spectrum, domain, window", [
    ([0.01, 1.0], Interval.greater_than(0.0), (1e-9, 1.0 + 0.05)),
    ([2.01, 3.0], Interval.greater_than(2.0), (2.0 + 2e-9, 3.0 + 0.05)),
    ([-1.0, -0.01], Interval(-math.inf, 0.0), (-1.0 - 0.05, -1e-9)),
    ([0.01, 1.0], Interval.at_least(0.0), (0.0, 1.0 + 0.05)),
], ids=["open_zero", "open_two", "open_upper", "closed_zero"])
def test_working_interval_stays_1e_9_relative_inside_an_open_endpoint(spectrum, domain, window):
    w = working_interval(np.array(spectrum), domain)
    assert (w.lo, w.hi) == window


def test_pinching_chain_runs_on_a_spectrum_near_an_open_endpoint():
    # the padded window reaches below 0, where 1/t is not defined
    rep = check_pinching_chain(identity_map(2), np.diag([0.01, 1.0]), get_function("inv"),
                               BlockAlgebra.single(2))
    assert rep.passed and rep.params["n_pieces"] == 1


def test_preorder_lemma_samples_a_piece_only_inside_the_domain():
    # a piece reaching past the open endpoint 0 of 1/t is sampled from 1e-9 on
    piece = Interval.closed(-0.05, 2.0)
    rep = check_spectral_preorder_lemma(identity_map(2), np.diag([0.5, 1.5]), get_function("inv"),
                                        piece, BlockAlgebra.single(2))
    assert rep.passed and rep.params["piece_sign"] == 1


def test_preorder_lemma_snaps_at_the_scale_of_the_spectrum():
    # 1e4 and 1e4 + 1e-7 are one cluster at width 1e-10 * 1e4 = 1e-6, so the
    # piece end between them moves 6 widths past the cluster
    piece = Interval.closed(1e4 + 5e-8, 2e4)
    rep = check_spectral_preorder_lemma(identity_map(2), np.diag([1e4, 1e4 + 1e-7]),
                                        get_function("square"), piece, BlockAlgebra.single(2))
    assert rep.passed
    assert rep.params["piece"] == [pytest.approx(1e4 + 1e-7 + 6e-6, rel=0, abs=1e-9), 2e4]

def test_preorder_lemma_identity_map_trivial():
    rng = rng_stream(76)
    x = random_hermitian(4, rng)
    f = get_function("square")
    split = monotone_sign_split(f, working_interval(hermitian_eig(x).eigenvalues))
    for piece in [p for p in split if p is not None]:
        rep = check_spectral_preorder_lemma(
            identity_map(4), x, f, piece, BlockAlgebra.single(4)
        )
        assert rep.passed


def test_preorder_lemma_square_nonnegative_piece():
    f = get_function("square")
    for s in range(30):
        rep = run_trial(
            "check_spectral_preorder_lemma",
            {"d1": 4, "d2": 4, "function": f, "map_kind": "ucp_stinespring"},
            77, s,
        )
        assert rep.passed, (s, rep.params)


def test_preorder_lemma_negative_piece():
    f = get_function("shifted_square", (-1.0,))
    seen_negative = 0
    for s in range(40):
        rep = run_trial(
            "check_spectral_preorder_lemma",
            {"d1": 4, "d2": 4, "function": f, "map_kind": "ucp_stinespring"},
            78, s,
        )
        assert rep.passed, (s, rep.params)
        if rep.params["piece_sign"] < 0:
            seen_negative += 1
    assert seen_negative > 0


@pytest.mark.parametrize("kind,f", [
    ("ucp_stinespring", get_function("shifted_square", (-1.0,))),
    ("transpose", get_function("shifted_square", (-1.0,))),
    ("pinching", get_function("abs")),
    ("zero", get_function("hinge", (0.0,))),
])
def test_preorder_lemma_trial_equals_a_fresh_check(kind, f):
    # a trial runs the check on exactly what its draw returns, so the report
    # must be the one a direct call on the draw's recorded inputs gives
    cell = {"d1": 3, "d2": 3, "function": f, "map_kind": kind}
    for s in range(6):
        rep = generate_trial("check_spectral_preorder_lemma", cell, (81, s))
        inputs = CHECKS["check_spectral_preorder_lemma"].draw(cell, rng_stream(81, s))
        labels = inputs.pop("labels")
        fresh = check_spectral_preorder_lemma(**inputs)
        fresh.seed = rep.seed
        fresh.params["piece_slot"] = labels["piece_slot"]
        assert fresh.to_json_line() == rep.to_json_line()


def test_preorder_lemma_sign_change_rejected():
    rng = rng_stream(79)
    x = random_hermitian(4, rng)
    phi = identity_map(4)
    f = get_function("shifted_square", (-1.0,))
    whole = working_interval(hermitian_eig(x).eigenvalues)
    with pytest.raises(HypothesisError):
        check_spectral_preorder_lemma(phi, x, f, whole, BlockAlgebra.single(4))


def test_pinching_chain_single_sign_function():
    f = get_function("square")
    for s in range(20):
        rep = run_trial(
            "check_pinching_chain",
            {"d1": 3, "d2": 3, "function": f, "map_kind": "transpose"},
            80, s,
        )
        assert rep.passed, (s, rep.params)
        assert rep.params["n_pieces"] <= 2


def test_pinching_chain_sign_changing_function():
    f = get_function("shifted_square", (-1.0,))
    for s in range(30):
        rep = run_trial(
            "check_pinching_chain",
            {"d1": 4, "d2": 3, "function": f, "map_kind": "ucp_stinespring"},
            81, s,
        )
        assert rep.passed, (s, rep.params)


def test_pinching_chain_identity_map_exact():
    # with Phi = id the pinching projections diagonalize f(x) itself
    rng = rng_stream(82)
    x = random_hermitian(4, rng)
    f = get_function("shifted_square", (-1.0,))
    rep = check_pinching_chain(identity_map(4), x, f, BlockAlgebra.single(4))
    assert rep.passed and rep.lhs == 0.0


def _negative_identity(n: int) -> PositiveMap:
    # Phi = -id is not positive: Phi(f(x)) = -f(x) sits below f(Phi(x)) = f(-x)
    return PositiveMap(kind="negative_identity", in_dim=n, out_dim=n,
                       action=-np.eye(n * n), claimed_positive=False)


def test_pinching_chain_negative_map_fails_every_assertion():
    # Phi(x) = diag(-1, -2) lies on one piece of t^2, so E is the identity:
    # E(Phi(f(x))) = diag(-1, -4) against f(Phi(x)) = diag(1, 4)
    rep = check_pinching_chain(_negative_identity(2), np.diag([1.0, 2.0]),
                               get_function("square"), BlockAlgebra.single(2),
                               enforce_hypotheses=False)
    assert rep.params["failed"] == [
        "preorder_positive_parts", "preorder_negative_parts", "trace_inequality",
    ]
    assert rep.gap == -3.0
    assert rep.params["detail"]["trace_inequality"] == [-5.0, 5.0]


def test_preorder_lemma_negative_map_fails_every_assertion():
    # the piece holds the whole spectrum {-2, -1} of Phi(x), where t^2 >= 0:
    # p Phi(f(x)) p = diag(-1, -4) is not positive and does not dominate diag(1, 4)
    rep = check_spectral_preorder_lemma(
        _negative_identity(2), np.diag([1.0, 2.0]), get_function("square"),
        Interval.closed(-2.05, -0.95), BlockAlgebra.single(2), enforce_hypotheses=False,
    )
    assert rep.params["failed"] == ["compressed_positivity", "preorder_nonnegative_piece"]
    assert rep.gap == -2.0
    assert rep.params["detail"]["min_eigenvalue"] == -4.0


def _scaled(c: float, u=None) -> PositiveMap:
    # Phi(y) = c u* y u, one Kraus operator sqrt(c) u: positive, not unital
    # unless c = 1. For c > 1 it scales Phi(f(x)) past f(Phi(x)) where f < 0
    u = np.eye(2) if u is None else u
    return PositiveMap(kind="scaled", in_dim=2, out_dim=2, kraus=(math.sqrt(c) * u,))


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_preorder_lemma_nonpositive_piece_exact_gap():
    # Phi = 2 id, x = diag(1, 2), f = -1 on a piece holding spec Phi(x) = {2, 4}:
    # the negative part 2 I of p Phi(f(x)) p is not dominated by -p f(Phi(x)) p = I
    f, x, piece = parse_function_spec("const:-1"), np.diag([1.0, 2.0]), Interval.closed(0.5, 5.0)
    rep = check_spectral_preorder_lemma(_scaled(2.0), x, f, piece, BlockAlgebra.single(2),
                                        enforce_hypotheses=False)
    assert rep.params["failed"] == ["preorder_nonpositive_piece"]
    assert rep.params["piece_sign"] == -1
    assert rep.gap == -1.0
    bad = rep.params["detail"]["preorder"]
    assert (bad["count_a"], bad["count_b"]) == (2, 0)
    assert abs(bad["s"] - 1.5) <= 1e-12
    # the control: Phi = id / 2 gives negative part I / 2, dominated by I
    assert check_spectral_preorder_lemma(_scaled(0.5), x, f, piece, BlockAlgebra.single(2),
                                         enforce_hypotheses=False).passed


def test_preorder_lemma_nonpositive_piece_swap_map():
    # Phi(y) = 2 S y S with S the swap, x = diag(1/2, 1), f = t^2 - 5 <= 0 on the
    # piece: Phi(x) = diag(2, 1), -p f(Phi(x)) p = diag(1, 4), but the negative
    # part of p Phi(f(x)) p is 2 S diag(4.75, 4) S = diag(8, 9.5)
    f, x = get_function("shifted_square", (-5.0,)), np.diag([0.5, 1.0])
    piece = Interval.closed(0.1, 2.2)
    rep = check_spectral_preorder_lemma(_scaled(2.0, _SWAP), x, f, piece,
                                        BlockAlgebra.single(2), enforce_hypotheses=False)
    assert rep.params["failed"] == ["preorder_nonpositive_piece"]
    assert rep.gap == -1.0
    # at c = 1/2 the negative part diag(2, 2.375) sits below diag(4.9375, 4.75)
    assert check_spectral_preorder_lemma(_scaled(0.5, _SWAP), x, f, piece,
                                         BlockAlgebra.single(2), enforce_hypotheses=False).passed


def test_pinching_chain_negative_parts_exact_gap():
    # Phi = 2 id, x = diag(1, 2), f = -1: E(Phi(f(x))) = -2 I against f(Phi(x)) = -I,
    # so the negative parts 2 I and I break the pre-order and traces are -4 < -2
    f, x = parse_function_spec("const:-1"), np.diag([1.0, 2.0])
    rep = check_pinching_chain(_scaled(2.0), x, f, BlockAlgebra.single(2),
                               enforce_hypotheses=False)
    assert rep.params["failed"] == ["preorder_negative_parts", "trace_inequality"]
    assert rep.gap == -2.0
    tr_e, tr_fy = rep.params["detail"]["trace_inequality"]
    assert abs(tr_e + 4.0) <= 1e-12 and tr_fy == -2.0
    # the control: Phi = id / 2 gives -I / 2 against -I
    assert check_pinching_chain(_scaled(0.5), x, f, BlockAlgebra.single(2),
                                enforce_hypotheses=False).passed


def test_pinching_chain_negative_parts_swap_map():
    # as in the lemma's swap case: E(Phi(f(x))) = diag(-8, -9.5) against
    # f(Phi(x)) = diag(-1, -4), so both the pre-order and the traces fail
    f, x = get_function("shifted_square", (-5.0,)), np.diag([0.5, 1.0])
    rep = check_pinching_chain(_scaled(2.0, _SWAP), x, f, BlockAlgebra.single(2),
                               enforce_hypotheses=False)
    assert rep.params["failed"] == ["preorder_negative_parts", "trace_inequality"]
    assert rep.gap == -2.0
    tr_e, tr_fy = rep.params["detail"]["trace_inequality"]
    assert abs(tr_e + 17.5) <= 1e-12 and abs(tr_fy + 5.0) <= 1e-12
    assert check_pinching_chain(_scaled(0.5, _SWAP), x, f, BlockAlgebra.single(2),
                                enforce_hypotheses=False).passed


def test_pinching_chain_positive_parts_exact_gap():
    # Phi = 2 id, x = diag(1, 2), f = t^2: E(Phi(f(x))) = diag(2, 8) against
    # f(Phi(x)) = diag(4, 16), so the positive parts break the pre-order at
    # s = 3 (counts 2 against 1) and the traces are 10 < 20
    f, x = get_function("square"), np.diag([1.0, 2.0])
    rep = check_pinching_chain(_scaled(2.0), x, f, BlockAlgebra.single(2),
                               enforce_hypotheses=False)
    assert rep.params["failed"] == ["preorder_positive_parts", "trace_inequality"]
    assert rep.gap == -2.0
    bad = rep.params["detail"]["preorder_positive_parts"]
    assert (bad["count_a"], bad["count_b"]) == (2, 1) and abs(bad["s"] - 3.0) <= 1e-12
    tr_e, tr_fy = rep.params["detail"]["trace_inequality"]
    assert abs(tr_e - 10.0) <= 1e-12 and abs(tr_fy - 20.0) <= 1e-12
    # the control: Phi = id / 2 gives diag(1/2, 2) against diag(1/4, 1)
    assert check_pinching_chain(_scaled(0.5), x, f, BlockAlgebra.single(2),
                                enforce_hypotheses=False).passed


def test_preorder_lemma_nonnegative_piece_exact_gap():
    # Phi = 2 id, x = diag(3/2, 2), f = t^2 - 5 >= 0 on a piece holding
    # spec Phi(x) = {3, 4}: p Phi(f(x)) p = diag(-5.5, -2) is not positive and
    # does not dominate p f(Phi(x)) p = diag(4, 11) (s = -3.75, counts 2 against 1)
    f, piece = get_function("shifted_square", (-5.0,)), Interval.closed(2.9, 4.1)
    rep = check_spectral_preorder_lemma(_scaled(2.0), np.diag([1.5, 2.0]), f, piece,
                                        BlockAlgebra.single(2), enforce_hypotheses=False)
    assert rep.params["failed"] == ["compressed_positivity", "preorder_nonnegative_piece"]
    assert rep.params["piece_sign"] == 1
    assert rep.gap == -2.0
    assert abs(rep.params["detail"]["min_eigenvalue"] + 5.5) <= 1e-12
    bad = rep.params["detail"]["preorder"]
    assert (bad["count_a"], bad["count_b"]) == (2, 1) and abs(bad["s"] + 3.75) <= 1e-12
    # the control: Phi = id at x = diag(3, 4), where both sides are f(x)
    assert check_spectral_preorder_lemma(_scaled(1.0), np.diag([3.0, 4.0]), f, piece,
                                         BlockAlgebra.single(2), enforce_hypotheses=False).passed


# The projections onto (1, 1) / sqrt(2) and (1, -1) / sqrt(2).
_HADAMARD = (np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_preorder_lemma_nonpositive_piece_hadamard_pinching():
    # Phi = 2 (P1 y P1 + P2 y P2) with Kraus operators sqrt(2) P1, sqrt(2) P2,
    # x = diag(1/2, 1), f = t^2 - 5: Phi(x) = 1.5 I, a repeated eigenvalue, so
    # -p f(Phi(x)) p = 2.75 I, while the negative part of p Phi(f(x)) p is
    # 8.75 I (s = 5.75, counts 2 against 0)
    f, x = get_function("shifted_square", (-5.0,)), np.diag([0.5, 1.0])
    piece = Interval.closed(0.1, 2.2)

    def pinch(c: float) -> PositiveMap:
        return PositiveMap(kind="scaled_pinching", in_dim=2, out_dim=2,
                           kraus=tuple(math.sqrt(c) * p for p in _HADAMARD))

    rep = check_spectral_preorder_lemma(pinch(2.0), x, f, piece, BlockAlgebra.single(2),
                                        enforce_hypotheses=False)
    assert rep.params["failed"] == ["preorder_nonpositive_piece"]
    assert rep.params["piece_sign"] == -1
    assert rep.gap == -1.0
    bad = rep.params["detail"]["preorder"]
    assert (bad["count_a"], bad["count_b"]) == (2, 0) and abs(bad["s"] - 5.75) <= 1e-12
    # at c = 1/2 the negative part 2.1875 I sits below 4.859375 I
    assert check_spectral_preorder_lemma(pinch(0.5), x, f, piece, BlockAlgebra.single(2),
                                         enforce_hypotheses=False).passed


def test_preorder_lemma_draw_does_no_jacobi_eigensolve(monkeypatch):
    # the draw reads only the spectrum of Phi(x) to pick its piece
    def no_eigensolve(m):
        raise AssertionError("hermitian_eig called")

    monkeypatch.setattr(jensen_checks, "hermitian_eig", no_eigensolve)
    spec = CHECKS["check_spectral_preorder_lemma"]
    for kind in MAP_KINDS:
        for f in (get_function("shifted_square", (-1.0,)), get_function("entropy")):
            cell = {"d1": 3, "d2": 3, "function": f, "map_kind": kind}
            for s in range(3):
                inputs = spec.draw(cell, rng_stream(84, s))
                assert {"piece", "labels"} <= set(inputs)


def test_pinching_chain_zero_map_runs():
    # the zero map's image has a one-point spectrum sitting on every split
    # boundary; endpoint snapping must keep this deterministic
    f = get_function("hinge", (0.0,))
    rep = run_trial(
        "check_pinching_chain",
        {"d1": 3, "d2": 3, "function": f, "map_kind": "zero"},
        83, 0,
    )
    assert rep.passed
    assert rep.params["resampled"] == 0


def test_checks_with_one_dimensional_factors():
    # d1 = 1 or d2 = 1 degenerate tensor factors stay well-formed
    for d1, d2 in ((1, 3), (3, 1), (1, 1)):
        for s in range(5):
            cell = {"d1": d1, "d2": d2, "function": get_function("square")}
            assert run_trial("check_cfl", cell, 300, s).passed
            assert run_trial(
                "check_main_tracial",
                dict(cell, w1=0.3, w2=2.5, branch="normalized"), 301, s,
            ).passed
            assert run_trial(
                "check_partial_trace_duality",
                {"d1": d1, "d2": d2, "w1": 0.3, "w2": 2.5}, 302, s,
            ).passed
            assert run_trial("check_state_version", cell, 303, s).passed
    cellp = {"d1": 1, "d2": 2, "function": get_function("abs"), "map_kind": "ucp_stinespring"}
    for s in range(5):
        assert run_trial("check_petz", cellp, 304, s).passed
        assert run_trial("check_vector_jensen", cellp, 305, s).passed


def test_piece_checks_respect_half_line_domains():
    # contractive maps pull the image spectrum toward 0, and the padded
    # working window must not poke below the domain of t^p
    f = get_function("power", (1.5,))
    for kind in ("scaled_contractive", "zero"):
        for s in range(10):
            rep = run_trial(
                "check_pinching_chain",
                {"d1": 3, "d2": 3, "function": f, "map_kind": kind},
                84, s,
            )
            assert rep.passed, (kind, s, rep.params)
            rep = run_trial(
                "check_spectral_preorder_lemma",
                {"d1": 3, "d2": 3, "function": f, "map_kind": kind},
                85, s,
            )
            assert rep.passed, (kind, s, rep.params)


# ---------------------------------------------------------------------------
# duality, state version, operator-level inequality
# ---------------------------------------------------------------------------

def test_duality_elementary_tensor():
    rng = rng_stream(84)
    a_fac = random_hermitian(2, rng)
    b_fac = random_hermitian(3, rng)
    a = complex_gaussian(rng, 2, 2)
    space = TensorSpace(2, 3)
    w1, w2 = 0.3, 2.5
    rep = check_partial_trace_duality(np.kron(a_fac, b_fac), a, space, (w1, w2))
    assert rep.passed
    expected = w1 * np.trace(a.conj().T @ a_fac @ a) * w2 * np.trace(b_fac)
    assert abs(complex(*_as_pair(rep.params["lhs_value"])) - expected) <= 1e-10 * max(1.0, abs(expected))


def _as_pair(value):
    if isinstance(value, complex):
        return value.real, value.imag
    return value


def test_duality_zero_element():
    rep = check_partial_trace_duality(
        np.zeros((4, 4)), np.zeros((2, 2)), SPACE22, (1.0, 1.0)
    )
    assert rep.passed and rep.lhs == 0.0


def test_duality_random_batch_weighted():
    for s in range(60):
        rep = generate_trial(
            "check_partial_trace_duality",
            {"d1": 3, "d2": 2, "w1": 0.3, "w2": 2.5},
            (85, s),
        )
        assert rep.passed, (s, rep.lhs)


def test_state_version_unitary_square_reduces_to_tracial():
    # With the tracial states I/d1 and I/d2 and a unitary a, the state version
    # is the tracial inequality at weights (1/d1, 1/d2). Unequal d1, d2 make a
    # swap of the left and right slices show.
    rng = rng_stream(86)
    for d1, d2 in ((2, 2), (2, 3), (3, 2)):
        space = TensorSpace(d1, d2)
        for f in (get_function("square"), get_function("power", (1.5,)), get_function("inv")):
            for _ in range(5):
                h = random_hermitian(d1 * d2, rng)
                if f.name != "square":
                    h = h @ h + np.eye(d1 * d2)  # positive spectrum
                u = random_unitary(d1, rng)
                r_state = check_state_version(h, u, f, np.eye(d1) / d1, np.eye(d2) / d2, space)
                r_tr = check_main_tracial(h, u, f, space, (1 / d1, 1 / d2), "normalized")
                assert r_state.passed
                assert abs(r_state.lhs - r_tr.lhs) <= 1e-11 * max(1.0, abs(r_tr.lhs))
                assert abs(r_state.rhs - r_tr.rhs) <= 1e-11 * max(1.0, abs(r_tr.rhs))


def test_state_version_first_factor_hamiltonian_exact_sides():
    # H = A x 1 and a = 1 give lhs = Tr(rho1 A)^2 and rhs = Tr(rho1 A^2), by
    # hand: (0.8 + 0.6)^2 = 1.96 and 0.8 + 1.8 = 2.6; rho2 drops out.
    space = SPACE23
    h = np.kron(np.diag([1.0, 3.0]), np.eye(3))
    rep = check_state_version(h, np.eye(2), get_function("square"), np.diag([0.8, 0.2]),
                              np.diag([0.2, 0.3, 0.5]), space)
    assert rep.lhs == pytest.approx(1.96, rel=1e-14)
    assert rep.rhs == pytest.approx(2.6, rel=1e-14)


def _eigh_function(m: np.ndarray, f) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return np.einsum("ik,k,jk->ij", v, np.array([f(float(t)) for t in w]), v.conj())


def _reference_sides(h, a, f, dens1, dens2):
    """omega_2 f((omega_1 x id)[(a* x 1) H (a x 1)]) and
    omega_1[a* (id x omega_2)(f(H)) a], omega_i(y) = Tr(D_i y), from
    np.linalg.eigh and np.einsum alone."""
    d1, d2 = dens1.shape[0], dens2.shape[0]
    t = h.reshape(d1, d2, d1, d2)
    x = np.einsum("ki,kplq,lj->ipjq", a.conj(), t, a)
    left = np.einsum("ji,ipjq->pq", dens1, x)
    lhs = np.einsum("qp,pq->", dens2, _eigh_function(left, f)).real
    fh = _eigh_function(h, f).reshape(d1, d2, d1, d2)
    right = np.einsum("qp,ipjq->ij", dens2, fh)
    rhs = np.einsum("ji,ki,kl,lj->", dens1, a.conj(), right, a).real
    return lhs, rhs


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _faithful(rng, n):
    g = _gaussian(rng, n)
    d = np.einsum("ik,jk->ij", g, g.conj()) + 0.1 * np.eye(n)
    return d / np.trace(d).real


def _assert_sides(rep, lhs, rhs):
    assert abs(rep.lhs - lhs) <= 1e-10 * max(1.0, abs(lhs)), (rep.lhs, lhs)
    assert abs(rep.rhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), (rep.rhs, rhs)


def test_jensen_sides_match_eigh_einsum_reference():
    # Unequal d1, d2 make a swap of the factors, the slices or the densities show.
    rng = np.random.default_rng(2024)
    w1, w2 = 0.3, 2.5
    for d1, d2 in ((2, 3), (3, 2)):
        space = TensorSpace(d1, d2)
        one1, one2 = np.eye(d1), np.eye(d2)
        for _ in range(3):
            g = _gaussian(rng, d1 * d2)
            h = 0.5 * (g + g.conj().T)
            rho = _faithful(rng, d1)
            w, v = np.linalg.eigh(rho)
            root = np.einsum("ik,k,jk->ij", v, np.sqrt(w), v.conj())
            g = _gaussian(rng, d1)
            unit = g / np.sqrt(w1 * np.einsum("ij,ij->", g.conj(), g).real)
            for name in ("square", "quartic", "exp"):
                f = get_function(name)
                _assert_sides(check_cfl(h, rho, f, space),
                              *_reference_sides(h, root, f, one1, one2))
                _assert_sides(check_main_tracial(h, unit, f, space, (w1, w2), "normalized"),
                              *_reference_sides(h, unit, f, w1 * one1, w2 * one2))
                if f.vanishes_at_zero:
                    sub = 0.6 * unit
                    rep = check_main_tracial(h, sub, f, space, (w1, w2), "subnormalized")
                    _assert_sides(rep, *_reference_sides(h, sub, f, w1 * one1, w2 * one2))
            # a contraction: g scaled by 1.1 times its largest singular value
            s_max = np.sqrt(np.linalg.eigh(np.einsum("ki,kj->ij", g.conj(), g))[0][-1])
            a = g / (1.1 * s_max)
            rho1, rho2 = _faithful(rng, d1), _faithful(rng, d2)
            positive = np.einsum("ik,jk->ij", h, h.conj()) + 0.1 * np.eye(d1 * d2)
            for name, hm in (("square", h), ("entropy", positive)):
                f = get_function(name)
                _assert_sides(check_state_version(hm, a, f, rho1, rho2, space),
                              *_reference_sides(hm, a, f, rho1, rho2))


def test_state_version_contraction_batches():
    for fname, params in (("square", ()), ("power", (1.5,))):
        f = get_function(fname, params)
        for s in range(25):
            rep = run_trial(
                "check_state_version", {"d1": 2, "d2": 3, "function": f}, 87, s,
            )
            assert rep.passed, (fname, s, rep.gap)


def test_state_version_inv_on_shifted_positive():
    f = get_function("inv")
    for s in range(25):
        rep = run_trial("check_state_version", {"d1": 3, "d2": 2, "function": f}, 88, s)
        assert rep.passed, (s, rep.gap)


def test_state_version_requires_operator_convex_flag():
    rng = rng_stream(89)
    with pytest.raises(HypothesisError):
        check_state_version(
            random_hermitian(4, rng), random_unitary(2, rng), get_function("abs"),
            np.eye(2) / 2, np.eye(2) / 2, SPACE22,
        )


def test_state_version_requires_faithful_states():
    rng = rng_stream(90)
    singular = np.diag([1.0, 0.0])
    with pytest.raises(HypothesisError):
        check_state_version(
            random_hermitian(4, rng), random_unitary(2, rng), get_function("square"),
            singular, np.eye(2) / 2, SPACE22,
        )


def test_hansen_pedersen_identity_contraction():
    rng = rng_stream(91)
    h = random_hermitian(4, rng)
    rep = check_hansen_pedersen(h, np.eye(2), get_function("square"), SPACE22)
    assert rep.passed and abs(rep.rhs) <= 1e-9


def test_hansen_pedersen_batch():
    f = get_function("square")
    for s in range(40):
        rep = run_trial("check_hansen_pedersen", {"d1": 2, "d2": 2, "function": f}, 92, s)
        assert rep.passed, (s, rep.gap)


def test_hansen_pedersen_unitary_inv():
    f = get_function("inv")
    for s in range(20):
        rep = run_trial("check_hansen_pedersen", {"d1": 2, "d2": 3, "function": f}, 93, s)
        assert rep.passed, (s, rep.gap)
        assert rep.params["a_unitary"]


def test_hansen_pedersen_quartic_negative_control():
    # t^4 is not operator convex: the Loewner comparison must fail somewhere
    rng = rng_stream(94)
    f = get_function("quartic")
    violations = 0
    for s in range(60):
        h = random_hermitian(4, rng)
        g = complex_gaussian(rng, 2, 2)
        a = g / (np.linalg.norm(g, 2) * (1.0 + rng.uniform()))
        rep = check_hansen_pedersen(h, a, f, SPACE22, enforce_hypotheses=False)
        if not rep.passed:
            violations += 1
    assert violations > 0


def test_hansen_pedersen_needs_f0_nonpositive():
    # f(t) = t^2 + 1 breaks only f(0) <= 0: a = 0 compresses H to 0, so
    # f(0) = 1 stands against (a* x 1) f(H) (a x 1) = 0 and lambda_min = -1
    f = get_function("shifted_square", (1.0,))
    for dims in ((2, 2), (2, 3), (3, 2)):
        space = TensorSpace(*dims)
        h = random_hermitian(space.total_dim, rng_stream(70, *dims))
        a = np.zeros((space.d1, space.d1))
        with pytest.raises(HypothesisError):
            check_hansen_pedersen(h, a, f, space)
        rep = check_hansen_pedersen(h, a, f, space, enforce_hypotheses=False)
        assert not rep.passed
        assert _close(rep.gap, -1.0)


def test_hansen_pedersen_rejects_positive_f0_contraction():
    rng = rng_stream(95)
    g = complex_gaussian(rng, 2, 2)
    a = g / (np.linalg.norm(g, 2) * 1.5)
    with pytest.raises(HypothesisError):
        check_hansen_pedersen(random_hermitian(4, rng), a, get_function("inv"), SPACE22)


_H6, _RHO2, _RHO3 = random_hermitian(6, rng_stream(98)), np.eye(2) / 2, np.eye(3) / 3
_ON_23 = "H has shape (4, 4), expected (6, 6) on the space 2x3"
_ALG22 = BlockAlgebra((2, 2), (1.0, 1.0))


@pytest.mark.parametrize("call, message", [
    (lambda: check_cfl(_H6, _RHO3, get_function("square"), SPACE23),
     "rho has shape (3, 3), expected (2, 2) on factor 1"),
    (lambda: check_main_tracial(_H6, np.ones((2, 3)), get_function("square"), SPACE23,
                                (1.0, 1.0), "normalized"),
     "a has shape (2, 3), expected (2, 2) on factor 1"),
    (lambda: check_state_version(_H6, np.eye(2), get_function("square"), _RHO2, _RHO2,
                                 SPACE23), "rho2 has shape (2, 2), expected (3, 3) on factor 2"),
    (lambda: check_state_version(_H6, np.eye(2), get_function("square"), _RHO3, _RHO3,
                                 SPACE23), "rho1 has shape (3, 3), expected (2, 2) on factor 1"),
    # a 2 x 3 a reached _is_numerically_unitary first: a numpy broadcast ValueError
    (lambda: check_hansen_pedersen(_H6, np.ones((2, 3)), get_function("square"), SPACE23),
     "a has shape (2, 3), expected (2, 2) on factor 1"),
    (lambda: check_partial_trace_duality(_H6, np.eye(3), SPACE23, (1.0, 1.0)),
     "a has shape (3, 3), expected (2, 2) on factor 1"),
    (lambda: slice_compress_map(np.ones((3, 2)), SPACE23, 1.0),
     "a has shape (3, 2), expected (2, 2) on factor 1"),
    (lambda: conjugate_compress(_H6, np.ones((2, 3)), SPACE23),
     "a has shape (2, 3), expected (2, 2) on factor 1"),
    (lambda: slice_map(_H6, _RHO2, "right", SPACE23),
     "density has shape (2, 2), expected (3, 3) on factor 2"),
    (lambda: slice_map(_H6, _RHO3, "left", SPACE23),
     "density has shape (3, 3), expected (2, 2) on factor 1"),
    # each check refuses a whole-space operator that does not act on the
    # space before any hypothesis, as a DimensionError naming it
    (lambda: check_cfl(np.eye(4), _RHO2, get_function("square"), SPACE23), _ON_23),
    (lambda: check_main_tracial(np.eye(4), np.eye(2) / 2, get_function("square"), SPACE23,
                                (1.0, 1.0), "normalized"), _ON_23),
    # rho2 is not faithful either: the shape is refused before any hypothesis
    (lambda: check_state_version(np.eye(4), np.eye(2), get_function("square"), _RHO2,
                                 np.diag([1.0, 0.0, 0.0]), SPACE23), _ON_23),
    (lambda: check_hansen_pedersen(np.eye(4), np.eye(2), get_function("square"), SPACE23),
     _ON_23),
    (lambda: check_partial_trace_duality(np.eye(4), np.eye(2), SPACE23, (1.0, 1.0)),
     "X has shape (4, 4), expected (6, 6) on the space 2x3"),
    (lambda: PositiveMap("kraus", 2, 3, kraus=(np.ones((2, 3)), np.ones((3, 2)))),
     "kraus[1] has shape (3, 2), expected (2, 3)"),
    (lambda: PositiveMap("generic", 2, 3, action=np.ones((4, 9))),
     "action has shape (4, 9), expected (9, 4)"),
    (lambda: apply_map(identity_map(3), np.eye(2)), "x has shape (2, 2), expected (3, 3)"),
    (lambda: _ALG22.blocks(np.eye(3)), "x has shape (3, 3), expected (4, 4) on blocks (2, 2)"),
    (lambda: singular_value_function(np.eye(3), _ALG22),
     "x has shape (3, 3), expected (4, 4) on blocks (2, 2)"),
    (lambda: check_vector_jensen(identity_map(2), np.eye(2), get_function("square"),
                                 np.ones(3) / np.sqrt(3)), "xi has shape (3,), expected (2,)"),
    # a generator's dim is an integer up to MAX_DIM ** 2, the largest whole space
    (lambda: random_hermitian(2.5, rng_stream(1)),
     f"dim must be from 1 to {tensor_ops.MAX_DIM ** 2}, got 2.5"),
    (lambda: check_operator_convex(get_function("square"), 2.5, 3, 1),
     f"dim must be from 1 to {tensor_ops.MAX_DIM ** 2}, got 2.5"),
], ids=["cfl_rho", "main_tracial_a", "state_rho2", "state_rho1", "hansen_pedersen_a",
        "duality_a", "slice_compress_a", "conjugate_compress_a", "right_slice_density",
        "left_slice_density", "cfl_H", "main_tracial_H", "state_H", "hansen_pedersen_H",
        "duality_X", "kraus", "action", "apply_map_x", "blocks_x",
        "singular_value_function_x", "vector_jensen_xi", "random_hermitian_dim",
        "operator_convex_dim"])
def test_every_tensor_factor_operand_is_refused_by_the_one_shape_rule(call, message):
    with pytest.raises(DimensionError) as err:
        call()
    assert str(err.value) == message and len(message) < 200


# ---------------------------------------------------------------------------
# equality at linear f across the one-sided checks
# ---------------------------------------------------------------------------

def test_equality_at_linear_function():
    rng = rng_stream(96)
    f = get_function("linear", (0.7,))
    h = random_hermitian(4, rng)
    rho = random_density(2, rng)
    assert abs(check_cfl(h, rho, f, SPACE22).gap) <= 1e-11
    a = psd_sqrt(rho)
    assert abs(check_main_tracial(h, a, f, SPACE22, (1.0, 1.0), "normalized").gap) <= 1e-11
    phi = random_positive_map("ucp_stinespring", 3, 2, rng)
    x = random_hermitian(3, rng)
    assert abs(check_petz(phi, x, f, BlockAlgebra.single(2)).gap) <= 1e-11
    u = random_unitary(2, rng)
    st = check_state_version(h, u, f, random_density(2, rng), random_density(2, rng), SPACE22)
    assert abs(st.gap) <= 1e-11


# ---------------------------------------------------------------------------
# two-sided equality controls: on these families both sides agree, so
# |gap| <= tol fails a side that computes too little as well as too much
# ---------------------------------------------------------------------------

W = (0.3, 2.5)


def _assert_equality(rep):
    assert abs(rep.gap) <= rep.tol, (rep.lhs, rep.rhs, rep.gap, rep.tol)


def _tau1_normalized(rng):
    """A 2x2 a with tau_1(a* a) = W[0] Tr(a* a) = 1."""
    g = complex_gaussian(rng, 2, 2)
    return g / math.sqrt(W[0] * float(np.trace(g.conj().T @ g).real))


# each takes f, a 6x6 Hermitian H on SPACE23 and a generator
_EQUALITY_CHECKS = {
    "check_cfl": lambda f, h, rng: check_cfl(h, random_density(2, rng), f, SPACE23),
    "check_main_tracial": lambda f, h, rng: check_main_tracial(
        h, _tau1_normalized(rng), f, SPACE23, W, "normalized"),
    "check_petz": lambda f, h, rng: check_petz(
        random_positive_map("ucp_stinespring", 6, 3, rng), h, f, BlockAlgebra.single(3, W[1])),
    "check_state_version": lambda f, h, rng: check_state_version(
        h, random_unitary(2, rng), f, random_density(2, rng), random_density(3, rng), SPACE23),
}


@pytest.mark.parametrize("spec", ["linear:2.5", "const:-1.5"])
@pytest.mark.parametrize("check", ["check_cfl", "check_main_tracial", "check_petz"])
def test_affine_function_equality(check, spec):
    rng = rng_stream(97)
    f = parse_function_spec(spec)
    _assert_equality(_EQUALITY_CHECKS[check](f, random_hermitian(6, rng), rng))


@pytest.mark.parametrize("fname", ["square", "inv"])
@pytest.mark.parametrize("check", ["check_cfl", "check_main_tracial", "check_state_version"])
def test_second_factor_only_equality(check, fname):
    # H = 1 (x) K: a normalized a compresses H back to 1 (x) K, whose slice
    # is K, and both sides are the second trace or state of f(K)
    rng = rng_stream(98)
    k = random_hermitian(3, rng)
    h = np.kron(np.eye(2), k @ k + np.eye(3))  # positive spectrum, inside inv's domain
    _assert_equality(_EQUALITY_CHECKS[check](get_function(fname), h, rng))


@pytest.mark.parametrize("fname", ["quartic", "exp"])
@pytest.mark.parametrize("kind", ["transpose", "unitary_conjugation"])
def test_jordan_automorphism_equality(kind, fname):
    # Phi(f(x)) = f(Phi(x)) for a Jordan *-automorphism: Petz is an equality,
    # and so is vector Jensen at an eigenvector of Phi(x)
    rng = rng_stream(99)
    f = get_function(fname)
    if kind == "transpose":
        phi = transpose_map(3)
    else:
        phi = PositiveMap(kind=kind, in_dim=3, out_dim=3, kraus=(random_unitary(3, rng),),
                          claimed_positive=True)
    x = random_hermitian(3, rng)
    _assert_equality(check_petz(phi, x, f, BlockAlgebra.single(3)))
    xi = hermitian_eig(apply_map(phi, x)).eigenvectors[:, 1]
    _assert_equality(check_vector_jensen(phi, x, f, xi))


@pytest.mark.parametrize("fname", ["square", "inv"])
def test_hansen_pedersen_unitary_equality(fname):
    # (u* x 1) . (u x 1) is a *-automorphism, so both sides are one operator
    rng = rng_stream(100)
    h = random_hermitian(6, rng)
    h = h @ h + np.eye(6)
    u = random_unitary(2, rng)
    _assert_equality(check_hansen_pedersen(h, u, get_function(fname), SPACE23))


# ---------------------------------------------------------------------------
# ablation searches and replay
# ---------------------------------------------------------------------------

def test_ablation_petz_drop_f0_guaranteed():
    res = ablation_search("petz_drop_f0", 10, [2, 3], 1)
    assert res.found_violation
    n = res.witness.params["d2"]
    assert abs(res.witness.gap + n) <= 1e-12


def test_ablation_petz_drop_f0_gap_is_exactly_minus_n():
    # f(0) I = I exactly on the zero map's image, so the gap carries no rounding
    for seed in (1, 2, 3):
        res = ablation_search("petz_drop_f0", 3, [2, 3, 4], seed)
        assert res.witness.gap == -res.witness.params["d2"]


def test_ablation_exploratory_targets_run():
    for target in ("state_drop_opconvex", "drop_positivity", "drop_contractive"):
        res = ablation_search(target, 6, [2], 3)
        assert res.trials == 6
        assert np.isfinite(res.max_violation)


def test_ablation_unknown_target():
    with pytest.raises(ValueError):
        ablation_search("bogus", 1, [2], 0)


def test_ablation_needs_dims():
    with pytest.raises(UsageError):
        ablation_search("petz_drop_f0", 2, [], 1)


@pytest.fixture
def check_runs(monkeypatch):
    """Every report a CheckSpec runs, in order."""
    reports: list[CheckReport] = []
    original = CheckSpec.run

    def recorded(self, **inputs):
        reports.append(original(self, **inputs))
        return reports[-1]

    monkeypatch.setattr(CheckSpec, "run", recorded)
    return reports


def test_ablation_negative_seed_is_usage_error_before_any_trial(check_runs):
    # numpy's SeedSequence refused it with a plain ValueError at the first trial
    with pytest.raises(UsageError, match="non-negative"):
        ablation_search("petz_drop_f0", 2, [2], -5)
    assert check_runs == []


def test_ablation_negative_trials_is_usage_error_before_any_trial(check_runs):
    # returned trials=-3 and max_violation=inf
    with pytest.raises(UsageError, match="trials must be a non-negative integer"):
        ablation_search("petz_drop_f0", -3, [2], 1)
    assert check_runs == []
    res = ablation_search("petz_drop_f0", 0, [2], 1)
    assert res.trials == 0 and math.isnan(res.max_violation) and res.witness is None


def test_ablation_dims_are_bounded_before_any_trial(check_runs):
    bound = tensor_ops.MAX_DIM
    for dims in ([2, bound + 1], [2, 10 ** 300], [0]):
        with pytest.raises(DimensionError, match=f"dims must be from 1 to {bound}, got"):
            ablation_search("petz_drop_f0", 2, dims, 1)
    with pytest.raises(UsageError, match=f"trials must be from 0 to {jensen_checks.MAX_TRIALS}"):
        ablation_search("petz_drop_f0", 10 ** 300, [2], 1)
    assert check_runs == []


def test_ablation_unknown_target_is_usage_error():
    with pytest.raises(UsageError, match="valid targets: petz_drop_f0, state_drop_opconvex"):
        ablation_search("bogus", 1, [2], 0)


@pytest.mark.parametrize("target", ABLATION_TARGETS)
def test_ablation_reports_are_stamped_and_witnesses_replay(check_runs, target):
    res = ablation_search(target, 12, [2, 3, 4], 1)
    assert len(check_runs) == 12
    for i, rep in enumerate(check_runs):
        assert rep.params["ablation"] == target and rep.params["trial"] == i
        assert rep.seed == random_stream(1, i)[1]
    if target == "state_drop_opconvex":
        # exploratory: quartic f holds on every draw of this search
        assert res.witness is None and res.max_violation >= 0
        return
    assert any(res.witness is rep for rep in check_runs)
    line = res.witness.to_json_line()
    replayed = replay_report(json.loads(line))
    assert (replayed.lhs, replayed.rhs, replayed.gap) == (
        res.witness.lhs, res.witness.rhs, res.witness.gap)
    assert replayed.seed == res.witness.seed


def test_checks_take_only_their_inputs():
    # the trial drivers stamp seed and labels; a direct call reports seed 0
    for name in CHECKS:
        params = inspect.signature(getattr(jensen_checks, name)).parameters
        assert not {"seed", "extra_params"} & set(params), name
        assert {"tol", "enforce_hypotheses"} <= set(params), name
    rng = rng_stream(3)
    rep = check_cfl(random_hermitian(4, rng), random_density(2, rng), get_function("square"),
                    SPACE22)
    assert rep.seed == 0 and "trial" not in rep.params


def test_witness_records_every_check_argument():
    # a witness records each argument, so replay recomputes from it alone
    for name, spec in CHECKS.items():
        params = inspect.signature(getattr(jensen_checks, name)).parameters
        assert spec.args == tuple(params), name


def _nonpositive_unital_action_by_loops(n: int, rng) -> np.ndarray:
    """The action matrix of the `nonpositive_unital` map kind, entry by entry."""
    c = random_hermitian(n * n, rng)
    act = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            blk = c[i * n:(i + 1) * n, j * n:(j + 1) * n]
            for m in range(n):
                for mm in range(n):
                    act[m + mm * n, i + j * n] = blk[m, mm]
    base = PositiveMap(
        kind="nonpositive_unital", in_dim=n, out_dim=n, action=act,
        claimed_positive=False,
    )
    r = np.eye(n) - base.on_identity()
    act = act.copy()
    for i in range(n):
        for m in range(n):
            for mm in range(n):
                act[m + mm * n, i + i * n] += r[m, mm] / n
    return act


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonpositive_unital_map_equals_loop_reference(n):
    for seed in range(20):
        phi = random_positive_map("nonpositive_unital", n, n, rng_stream(71, n, seed))
        want = _nonpositive_unital_action_by_loops(n, rng_stream(71, n, seed))
        assert phi.action.tobytes() == want.tobytes()
        assert not phi.claimed_positive
        assert frob(phi.on_identity() - np.eye(n)) <= 1e-12


def test_report_invariant_pass_iff_gap_above_neg_tol():
    reports = []
    for s in range(10):
        reports.append(generate_trial(
            "check_cfl", {"d1": 2, "d2": 2, "function": get_function("abs")}, (97, s)
        ))
    res = ablation_search("petz_drop_f0", 2, [2], 7)
    reports.append(res.witness)
    for rep in reports:
        assert rep.passed == (rep.gap >= -rep.tol)
        assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)


def test_witness_only_on_failure():
    ok = generate_trial("check_cfl", {"d1": 2, "d2": 2, "function": get_function("square")}, (98, 0))
    assert ok.passed and ok.witness is None
    bad = ablation_search("petz_drop_f0", 1, [2], 9).witness
    assert bad is not None and bad.witness is not None


def test_replay_reproduces_bit_exactly():
    res = ablation_search("petz_drop_f0", 4, [2, 4], 11)
    line = res.witness.to_json_line()
    replayed = replay_report(json.loads(line))
    assert replayed.lhs == res.witness.lhs
    assert replayed.rhs == res.witness.rhs
    assert replayed.gap == res.witness.gap


@pytest.mark.parametrize("target", ["petz_drop_f0", "drop_positivity"])
def test_map_witness_records_no_claims_and_replays(target):
    # a map records only the positivity it claims; unitality and
    # contractivity are measured on Phi(1) when the witness is replayed
    res = ablation_search(target, 4, [2, 3], 11)
    rec = json.loads(res.witness.to_json_line())
    phi = rec["witness"]["inputs"]["map"]
    assert set(phi) - {"kraus", "action"} == {"kind", "in_dim", "out_dim", "claimed_positive"}
    replayed = replay_report(rec)
    for got, want in ((replayed.lhs, rec["lhs"]), (replayed.rhs, rec["rhs"]),
                      (replayed.gap, rec["gap"])):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want))


def test_replay_roundtrip_via_checkreport_json():
    res = ablation_search("drop_contractive", 8, [3], 13)
    if res.witness is None:
        pytest.skip("no violation found for this seed")
    rt = CheckReport.from_dict(json.loads(res.witness.to_json_line()))
    replayed = replay_report(rt)
    assert replayed.gap == res.witness.gap


def test_hypothesis_ablated_witnesses_replay():
    # rho with trace 2 for cfl, exp (f(0) = 1) on the subnormalized branch
    rng = rng_stream(11, 5)
    cfl = check_cfl(random_hermitian(4, rng), 2.0 * random_density(2, rng),
                    get_function("square"), SPACE22, enforce_hypotheses=False)
    rng = rng_stream(12, 0)
    h = random_hermitian(4, rng)
    g = complex_gaussian(rng, 2, 2)
    main = check_main_tracial(h, 0.5 * g / np.linalg.norm(g), get_function("exp"), SPACE22,
                              (1.0, 1.0), "subnormalized", enforce_hypotheses=False)
    for rep in (cfl, main):
        assert not rep.passed
        assert rep.witness["inputs"]["enforce_hypotheses"] is False
        replayed = replay_report(json.loads(rep.to_json_line()))
        assert (replayed.lhs, replayed.rhs, replayed.gap) == (rep.lhs, rep.rhs, rep.gap)


def test_replay_rejects_malformed_reports():
    rec = json.loads(ablation_search("petz_drop_f0", 1, [2], 9).witness.to_json_line())
    with pytest.raises(UsageError):
        replay_report(dict(rec, check_name="check_bogus"))
    with pytest.raises(UsageError):
        replay_report({k: v for k, v in rec.items() if k != "seed"})
    with pytest.raises(UsageError):
        replay_report(dict(rec, witness={"inputs": dict(rec["witness"]["inputs"], x=[[1.0]])}))
    # entries of three numbers, not [re, im] pairs; a flag that is a string
    x3 = [[z + [0.0] for z in row] for row in rec["witness"]["inputs"]["x"]]
    with pytest.raises(UsageError):
        replay_report(dict(rec, witness={"inputs": dict(rec["witness"]["inputs"], x=x3)}))
    with pytest.raises(UsageError, match="enforce_hypotheses"):
        replay_report(dict(rec, witness={"inputs": dict(rec["witness"]["inputs"],
                                                        enforce_hypotheses="false")}))
    del rec["witness"]["inputs"]["x"]
    with pytest.raises(UsageError):
        replay_report(rec)


# ---------------------------------------------------------------------------
# trial drivers: usage errors before any draw
# ---------------------------------------------------------------------------

@pytest.fixture
def no_draws(monkeypatch):
    def refuse(*entropy):
        raise AssertionError(f"drew a stream for {entropy}")

    monkeypatch.setattr(jensen_checks, "random_stream", refuse)


CFL_CELL = {"d1": 2, "d2": 2, "function": get_function("square")}


@pytest.mark.parametrize("entropy", [(-1, 0), (3, -2)])
def test_generate_trial_negative_entropy_is_usage_error(no_draws, entropy):
    with pytest.raises(UsageError, match="non-negative"):
        generate_trial("check_cfl", CFL_CELL, entropy)


@pytest.mark.parametrize("seed, index", [(-5, 0), (5, -1)])
def test_run_trial_negative_seed_is_usage_error(no_draws, seed, index):
    with pytest.raises(UsageError, match="non-negative"):
        run_trial("check_cfl", CFL_CELL, seed, index)


def test_trial_drivers_unknown_check_is_usage_error(no_draws):
    with pytest.raises(UsageError, match="valid checks: check_cfl"):
        generate_trial("check_nope", CFL_CELL, (1, 0))
    with pytest.raises(UsageError, match="valid checks: check_cfl"):
        run_trial("check_nope", CFL_CELL, 1, 0)
