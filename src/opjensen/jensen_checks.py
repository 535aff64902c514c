"""One verification operation per trace-Jensen inequality, plus
hypothesis-ablation searches.

Every check is a pure function of its mathematical inputs, plus `tol` and
`enforce_hypotheses`, returning a CheckReport, so a failure witness replays
bit-exactly. The inequalities verified:

  * check_petz: tau(f(Phi(x))) <= tau(Phi(f(x))) for unital positive Phi and
    self-adjoint x (contractive Phi allowed when f(0) = 0).
  * check_cfl: the density-matrix partial-trace inequality
      Tr_2 f(Tr_1((rho x 1)^(1/2) H (rho x 1)^(1/2))) <= Tr_1(rho^(1/2) Tr_2 f(H) rho^(1/2))
  * check_main_tracial: the weighted-trace version with a in L^2,
      tau_2 f((tau_1 x id)[(a* x 1) H (a x 1)]) <= tau_1[a* (id x tau_2) f(H) a],
    for tau_1(a* a) = 1, or tau_1(a* a) <= 1 with f(0) = 0.
  * check_state_version: the same over faithful normal states, for operator
    convex f and a contraction a.
  * check_vector_jensen: f(<Phi(x) xi, xi>) <= <Phi(f(x)) xi, xi>.
  * check_spectral_preorder_lemma, check_pinching_chain: the compressed
    spectral pre-order comparisons behind the Petz-type proof, and the
    pinching / Jordan-part bookkeeping that assembles them.
  * check_partial_trace_duality: tau_2((tau_1 x id)((a* x 1) X (a x 1))) =
    tau_1(a* (id x tau_2)(X) a).
  * check_hansen_pedersen: f((a* x 1) H (a x 1)) <= (a* x 1) f(H) (a x 1).

Five checks share one Petz-type core, `_petz_sides`: omega(f(Phi(x))) and
omega(Phi(f(x))) for a positive map Phi and a positive functional omega.
check_petz runs it on its map and the algebra's weighted trace, and
check_vector_jensen on y -> <Phi(y) xi, xi> into M_1 and its one entry. The
three Jensen checks (CFL, main tracial, the state version) run it, as the
paper's proof does, on the slice of the first factor against a D1 a* and on
omega = Tr(D2 .), where D1 and D2 are the densities of the two functionals
(w 1 for a weighted trace w Tr).

`CHECKS` registers each check once: its campaign axes, seeded instance
generator, and named hypotheses, each a predicate over the facts it reads (f,
the branch, the map's flags, rho's spectrum, ...). A check passes its facts to
one `_require` call, which raises a HypothesisError naming every hypothesis
that fails; campaign expansion keeps the cells that meet the hypotheses whose
facts a cell fixes, and each ablation target is a cell of its check, run with
hypotheses off, that breaks one of them. Campaign expansion, trial generation,
ablation searches and replay all go through the registry. A check's report
has seed 0; the drivers (`generate_trial`, `run_trial`, `ablation_search`,
`replay_report`) stamp the trial's seed and add their labels to its params. A
failure witness is the check's arguments, written by one codec for all checks.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .convex_catalog import ScalarFunction, get_function
from .errors import (
    BoundaryAmbiguityError,
    HypothesisError,
    NumericError,
    UsageError,
    require_within,
)
from .intervals import Interval
from .linalg_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_complex,
    complex_gaussian,
    frob,
    hermitian_eig,
    hermitian_eigvals,
    hermitize,
    matrix_function,
    psd_sqrt,
    random_contraction,
    random_density,
    random_hermitian,
    random_l2_normalized,
    random_stream,
    random_unit_vector,
    random_unitary,
    require_shape,
    symmetrize,
)
from .positive_maps import (
    KIND_FLAGS,
    Flags,
    PositiveMap,
    apply_map,
    random_positive_map,
)
from .reporting import CheckReport, encode_matrix, read_json
from .spectral_tools import (
    _cluster_tol,
    jordan_split,
    monotone_sign_split,
    pinching,
    preorder_violation,
    snap_away_from_spectrum,
    spectral_projection,
)
from .tensor_ops import (
    BlockAlgebra,
    TensorSpace,
    conjugate_compress,
    require_dims,
    require_trace_weights,
    slice_map,
)

__all__ = [
    "check_cfl",
    "check_main_tracial",
    "check_petz",
    "check_vector_jensen",
    "check_spectral_preorder_lemma",
    "check_pinching_chain",
    "check_partial_trace_duality",
    "check_state_version",
    "check_hansen_pedersen",
    "CheckSpec",
    "CHECKS",
    "lookup_check",
    "ablation_search",
    "AblationResult",
    "ABLATION_TARGETS",
    "BRANCHES",
    "MAX_TRIALS",
    "generate_trial",
    "run_trial",
    "replay_report",
    "working_interval",
]

# Slack on the numerical hypotheses (unit traces, contractions, unitarity),
# which hold only up to rounding on generated and replayed inputs.
_HYPOTHESIS_SLACK = 1e-10
_MAX_RESAMPLES = 64
MAX_TRIALS = 100_000  # per check of a campaign or a search; a campaign keeps every report
# The hypothesis sets of check_main_tracial, the values of its `branch`.
BRANCHES = ("normalized", "subnormalized")


def _report(name: str, params: dict, lhs: float, rhs: float, gap: float, tol_val: float,
            passed: bool, inputs: dict) -> CheckReport:
    """A check's report; a failing one carries its inputs as witness.

    `inputs` holds every argument of the check, as the check used them
    (hermitized, snapped, ...), so that `replay_report` repeats exactly this
    call. The report keeps them and encodes them when its witness is first
    read: most failing reports (all but the worst of an ablation search, say)
    are never written.
    """
    witness = None if passed else functools.partial(_encode_witness, name, inputs)
    return CheckReport(
        check_name=name, params=params,
        lhs=lhs, rhs=rhs, gap=gap, tol=tol_val, passed=passed, witness=witness,
    )


# Module-level, so that a report holding it still pickles.
def _encode_witness(name: str, inputs: dict) -> dict:
    return {"inputs": CHECKS[name].encode(inputs)}


def _one_sided_report(
    name: str, params: dict, lhs: float, rhs: float, inputs: dict
) -> CheckReport:
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NumericError(f"{name}: non-finite lhs/rhs ({lhs!r}, {rhs!r})")
    gap = rhs - lhs
    tol_val = inputs["tol"].bound(lhs, rhs)
    return _report(name, params, lhs, rhs, gap, tol_val, gap >= -tol_val, inputs)


def _indicator_report(
    name: str, params: dict, failed_assertions: list[str], detail: dict, inputs: dict
) -> CheckReport:
    n_failed = float(len(failed_assertions))
    if detail:
        params["detail"] = detail
    if failed_assertions:
        params = dict(params, failed=failed_assertions)
    return _report(
        name, params, n_failed, 0.0, -n_failed, inputs["tol"].bound(),
        not failed_assertions, inputs,
    )


def working_interval(eigenvalues: np.ndarray, domain: Interval | None = None) -> Interval:
    """Compact interval enclosing a spectrum, padded on both sides by 5% of
    its width (at least 0.05).

    The padding is clamped into `domain` when given, so a function defined on
    a half-line is never evaluated outside it (eigenvalues themselves always
    lie in the domain, or the functional calculus would have rejected them).
    """
    lo = float(np.min(eigenvalues))
    hi = float(np.max(eigenvalues))
    pad = 0.05 * max(hi - lo, 1.0)
    lo -= pad
    hi += pad
    if domain is not None:
        lo, hi = _clamp_inside(lo, hi, domain)
    return Interval.closed(lo, hi)


def _clamp_inside(lo: float, hi: float, domain: Interval) -> tuple[float, float]:
    """[lo, hi] clamped into a domain, staying 1e-9 (relative) inside its
    open endpoints, where a function need not be defined."""
    if math.isfinite(domain.lo):
        lo = max(lo, domain.lo + (1e-9 * max(1.0, abs(domain.lo)) if domain.lo_open else 0.0))
    if math.isfinite(domain.hi):
        hi = min(hi, domain.hi - (1e-9 * max(1.0, abs(domain.hi)) if domain.hi_open else 0.0))
    return lo, hi


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def _petz_sides(apply: Callable, x: np.ndarray, f: ScalarFunction,
                omega: Callable) -> tuple[float, float]:
    """omega(f(Phi(x))), f taken on the symmetrized Phi(x), and omega(Phi(f(x))):
    the sides of the Petz-type trace inequality for self-adjoint x, a positive
    map Phi = `apply` and a positive functional `omega`."""
    lhs = omega(matrix_function(symmetrize(apply(x)), f))
    rhs = omega(apply(matrix_function(x, f)))
    return lhs, rhs


def _jensen_sides(H: np.ndarray, a: np.ndarray, f: ScalarFunction, space: TensorSpace,
                  d1: np.ndarray, d2: np.ndarray) -> tuple[float, float]:
    """lhs and rhs of the partial-trace Jensen inequality over the functionals
    omega_i(y) = Tr(D_i y) with densities D1 = d1 and D2 = d2,
      omega_2 f((omega_1 x id)[(a* x 1) H (a x 1)])  and  omega_1[a* (id x omega_2)(f(H)) a],
    as the Petz-type sides of the left slice against a D1 a* and omega_2: the
    first-factor partial trace is cyclic, and Tr(D1 a* R_D2(Y) a) = Tr(D2 L_{a D1 a*}(Y))."""
    rho = symmetrize(a @ d1 @ a.conj().T)
    return _petz_sides(lambda x: slice_map(x, rho, "left", space), H, f,
                       lambda y: float(np.trace(d2 @ y).real))


def check_cfl(
    H,
    rho,
    f: ScalarFunction,
    space: TensorSpace,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """Density-matrix partial-trace Jensen inequality on H_1 (x) H_2: the
    sides over the unit densities (the plain traces Tr_1, Tr_2), a = rho^(1/2)."""
    Hm = hermitize(space.operand(H, 0, "H"))
    rho_m = hermitize(space.operand(rho, 1, "rho"))
    dec = hermitian_eig(rho_m)
    _require("check_cfl", enforce_hypotheses, f=f, rho_spectrum=dec.eigenvalues)
    lhs, rhs = _jensen_sides(Hm, psd_sqrt(rho_m, decomp=dec), f, space,
                             np.eye(space.d1), np.eye(space.d2))
    params = {"d1": space.d1, "d2": space.d2, "function": f.label}
    inputs = dict(H=Hm, rho=rho_m, f=f, space=space, tol=tol,
                  enforce_hypotheses=enforce_hypotheses)
    return _one_sided_report("check_cfl", params, lhs, rhs, inputs)


def check_main_tracial(
    H,
    a,
    f: ScalarFunction,
    space: TensorSpace,
    weights: tuple[float, float],
    branch: str,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """Weighted-trace partial-trace Jensen inequality; the weighted trace
    tau_i = w_i Tr is the functional with density w_i 1, so each weighted
    partial trace is the slice against w_i 1.

    branch='normalized' requires tau_1(a* a) = 1; branch='subnormalized'
    requires tau_1(a* a) <= 1 and f(0) = 0.
    """
    Hm = hermitize(space.operand(H, 0, "H"))
    am = space.operand(a, 1, "a")
    w1, w2 = float(weights[0]), float(weights[1])
    require_trace_weights(w1, w2)
    if branch not in BRANCHES:
        raise UsageError(f"unknown branch {branch!r}; valid branches: {', '.join(BRANCHES)}")
    norm_sq = w1 * float(np.trace(am.conj().T @ am).real)
    _require("check_main_tracial", enforce_hypotheses, f=f, branch=branch, norm_sq=norm_sq)
    lhs, rhs = _jensen_sides(Hm, am, f, space, w1 * np.eye(space.d1), w2 * np.eye(space.d2))
    params = {"d1": space.d1, "d2": space.d2, "function": f.label,
              "w1": w1, "w2": w2, "branch": branch}
    inputs = dict(H=Hm, a=am, f=f, space=space, weights=(w1, w2), branch=branch, tol=tol,
                  enforce_hypotheses=enforce_hypotheses)
    return _one_sided_report("check_main_tracial", params, lhs, rhs, inputs)


def _map_params(phi: PositiveMap, f: ScalarFunction, branch: str) -> dict:
    return {"d1": phi.in_dim, "d2": phi.out_dim, "function": f.label,
            "map_kind": phi.kind, "branch": branch}


def _petz_branch(name: str, phi: PositiveMap, enforce: bool, **facts) -> str:
    """Which hypothesis set a Petz-type instance meets: 'unital', or
    'contractive' with f(0) = 0; 'ablated' when, hypotheses off, one fails.
    The map's positivity is as claimed, its unitality and contractivity as
    measured on Phi(1)."""
    facts["phi_flags"] = flags = Flags(phi.claimed_positive, *phi.unital_contractive())
    _require(name, enforce, **facts)
    if not enforce and CHECKS[name].broken(facts):
        return "ablated"
    return "unital" if flags.unital else "contractive"


def check_petz(
    phi: PositiveMap,
    x,
    f: ScalarFunction,
    algebra: BlockAlgebra,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """tau(f(Phi(x))) <= tau(Phi(f(x))) on the output algebra."""
    xm = hermitize(x)
    branch = _petz_branch("check_petz", phi, enforce_hypotheses, f=f)
    lhs, rhs = _petz_sides(functools.partial(apply_map, phi), xm, f, algebra.trace)
    params = dict(_map_params(phi, f, branch), w2=algebra.trace_weights[0])
    inputs = dict(phi=phi, x=xm, f=f, algebra=algebra, tol=tol,
                  enforce_hypotheses=enforce_hypotheses)
    return _one_sided_report("check_petz", params, lhs, rhs, inputs)


def check_vector_jensen(
    phi: PositiveMap,
    x,
    f: ScalarFunction,
    xi,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """f(<Phi(x) xi, xi>) <= <Phi(f(x)) xi, xi> for a unit vector xi: the
    Petz-type sides of the map y -> <Phi(y) xi, xi> into M_1 (unital when Phi
    is) and omega its one entry."""
    xm = hermitize(x)
    v = require_shape(as_complex(xi).reshape(-1), (phi.out_dim,), "xi")
    branch = _petz_branch("check_vector_jensen", phi, enforce_hypotheses, f=f, xi=v)
    lhs, rhs = _petz_sides(lambda y: np.reshape(v.conj() @ apply_map(phi, y) @ v, (1, 1)), xm, f,
                           lambda y: float(y[0, 0].real))
    params = _map_params(phi, f, branch)
    inputs = dict(phi=phi, x=xm, f=f, xi=v, tol=tol, enforce_hypotheses=enforce_hypotheses)
    return _one_sided_report("check_vector_jensen", params, lhs, rhs, inputs)


def _piece_sign(f: ScalarFunction, piece: Interval, tol: ToleranceConfig) -> int:
    """Constant sign of f on a compact piece, sampled; 0 if it changes sign.

    Sampling is restricted to the part of the piece inside f's domain (the
    part outside cannot carry spectrum); an empty overlap counts as
    nonnegative, matching a zero projection.
    """
    lo, hi = _clamp_inside(piece.lo, piece.hi, f.domain)
    if lo > hi:
        return 1
    ts = np.linspace(lo, hi, 33)
    vals = np.array([f(float(t)) for t in ts])
    scale = max(1.0, float(np.max(np.abs(vals))))
    eps = tol.bound(scale)
    if np.all(vals >= -eps):
        return 1
    if np.all(vals <= eps):
        return -1
    return 0


def _snap_piece(piece: Interval, eigenvalues: np.ndarray, tol: ToleranceConfig) -> Interval:
    """Perturb a spectral-window piece so its endpoints avoid the spectrum.

    Endpoints that coincide with eigenvalue clusters (exact for degenerate
    images like the zero map) are pushed deterministically off the clusters;
    the shift is a handful of cluster tolerances, far below any scale the
    sign and pre-order assertions can resolve. The snap is monotone, so the
    piece stays ordered.
    """
    ctol = _cluster_tol(eigenvalues, tol)
    lo, hi = (snap_away_from_spectrum(t, eigenvalues, ctol) for t in (piece.lo, piece.hi))
    return Interval(lo, hi, lo_open=piece.lo_open, hi_open=piece.hi_open)


def _snapped_projections(
    dec_y, split: tuple[Interval | None, ...], tol: ToleranceConfig
) -> list[np.ndarray]:
    """Spectral projections for the split pieces with snapped boundaries.

    Interior piece boundaries are moved off eigenvalue clusters monotonically,
    and the outermost pieces are widened to half-lines (the monotone/sign
    structure of a convex function extends past the working window), so the
    projections always form a resolution of the identity, even when the
    spectrum touches the window ends.
    """
    w = dec_y.eigenvalues
    ctol = _cluster_tol(w, tol)
    pieces = [p for p in split if p is not None]
    ends = [-math.inf, *(snap_away_from_spectrum(p.hi, w, ctol) for p in pieces[:-1]), math.inf]
    return [spectral_projection(None, Interval(lo, hi, lo_open=(i == 0), hi_open=True), tol,
                                decomp=dec_y)
            for i, (lo, hi) in enumerate(zip(ends, ends[1:]))]


def check_spectral_preorder_lemma(
    phi: PositiveMap,
    x,
    f: ScalarFunction,
    piece: Interval,
    algebra: BlockAlgebra,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """Compressed pre-order comparison on one monotone piece.

    With p the spectral projection of Phi(x) onto the piece: when f >= 0
    there, p Phi(f(x)) p must be positive semidefinite and dominate
    p f(Phi(x)) p in the spectral pre-order; when f <= 0, the negative
    Jordan part of p Phi(f(x)) p must be dominated by -p f(Phi(x)) p.
    """
    xm = hermitize(x)
    y = symmetrize(apply_map(phi, xm))
    dec_y = hermitian_eig(y)
    piece = _snap_piece(piece, dec_y.eigenvalues, tol)
    sign = _piece_sign(f, piece, tol)
    branch = _petz_branch("check_spectral_preorder_lemma", phi, enforce_hypotheses,
                          f=f, piece_sign=sign)
    p = spectral_projection(y, piece, tol, decomp=dec_y)
    fy = matrix_function(y, f, decomp=dec_y)
    phi_fx = symmetrize(apply_map(phi, matrix_function(xm, f)))
    a_side = symmetrize(p @ fy @ p)
    b_side = symmetrize(p @ phi_fx @ p)
    failed: list[str] = []
    detail: dict = {}
    if sign >= 0:
        w = hermitian_eigvals(b_side)
        lam_min = float(w[0])
        # b_side is self-adjoint, so its operator norm is max(|w[0]|, |w[-1]|)
        if lam_min < -tol.bound(lam_min, float(w[-1])):
            failed.append("compressed_positivity")
            detail["min_eigenvalue"] = lam_min
        bad = preorder_violation(a_side, b_side, algebra, tol)
        if bad is not None:
            failed.append("preorder_nonnegative_piece")
            detail["preorder"] = bad
    else:
        neg_part = jordan_split(b_side)[1]
        bad = preorder_violation(neg_part, -a_side, algebra, tol)
        if bad is not None:
            failed.append("preorder_nonpositive_piece")
            detail["preorder"] = bad
    params = dict(_map_params(phi, f, branch), piece=[piece.lo, piece.hi], piece_sign=sign)
    inputs = dict(phi=phi, x=xm, f=f, piece=piece, algebra=algebra, tol=tol,
                  enforce_hypotheses=enforce_hypotheses)
    return _indicator_report(
        "check_spectral_preorder_lemma", params, failed, detail, inputs
    )


def check_pinching_chain(
    phi: PositiveMap,
    x,
    f: ScalarFunction,
    algebra: BlockAlgebra,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """The pinching bookkeeping that assembles the trace inequality.

    Builds spectral projections of Phi(x) for the monotone/sign pieces of f,
    pinches E(y) = sum p_i y p_i, and asserts:
      (1) preorder: f(Phi(x))_+ <~ E(Phi(f(x)))_+ and
          E(Phi(f(x)))_- <~ f(Phi(x))_-;
      (2) tau(E(Phi(f(x)))) >= tau(f(Phi(x))).
    Trace preservation and Jordan minimality of E are not asserted: they are
    identities once `pinching` accepts the projections (else PartitionError).
    """
    xm = hermitize(x)
    branch = _petz_branch("check_pinching_chain", phi, enforce_hypotheses, f=f)
    y = symmetrize(apply_map(phi, xm))
    dec_y = hermitian_eig(y)
    split = monotone_sign_split(f, working_interval(dec_y.eigenvalues, domain=f.domain))
    projections = _snapped_projections(dec_y, split, tol)
    fy = matrix_function(y, f, decomp=dec_y)
    phi_fx = symmetrize(apply_map(phi, matrix_function(xm, f)))
    e_phi_fx = symmetrize(pinching(phi_fx, projections))

    fy_pos, fy_neg = jordan_split(fy)
    e_pos, e_neg = jordan_split(e_phi_fx)
    failed: list[str] = []
    detail: dict = {}

    bad = preorder_violation(fy_pos, e_pos, algebra, tol)
    if bad is not None:
        failed.append("preorder_positive_parts")
        detail["preorder_positive_parts"] = bad
    bad = preorder_violation(e_neg, fy_neg, algebra, tol)
    if bad is not None:
        failed.append("preorder_negative_parts")
        detail["preorder_negative_parts"] = bad

    tr_e = algebra.trace(e_phi_fx)
    tr_fy = algebra.trace(fy)
    if tr_e < tr_fy - tol.bound(tr_e, tr_fy):
        failed.append("trace_inequality")
        detail["trace_inequality"] = [tr_e, tr_fy]

    params = dict(_map_params(phi, f, branch), n_pieces=len(projections))
    inputs = dict(phi=phi, x=xm, f=f, algebra=algebra, tol=tol,
                  enforce_hypotheses=enforce_hypotheses)
    return _indicator_report("check_pinching_chain", params, failed, detail, inputs)


def check_partial_trace_duality(
    X,
    a,
    space: TensorSpace,
    weights: tuple[float, float],
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """tau_2((tau_1 x id)((a* x 1) X (a x 1))) = tau_1(a* (id x tau_2)(X) a).

    Both sides are computed through independent contraction orders, each
    weighted partial trace as the slice against 1 times its weight; the
    report stores the absolute discrepancy in lhs (rhs = 0) and the two
    complex values in params.
    """
    Xm = space.operand(X, 0, "X")
    am = space.operand(a, 1, "a")
    w1, w2 = float(weights[0]), float(weights[1])
    require_trace_weights(w1, w2)
    pt1 = w1 * slice_map(conjugate_compress(Xm, am, space), np.eye(space.d1), "left", space)
    lhs_val = w2 * complex(np.trace(pt1))
    pt2 = w2 * slice_map(Xm, np.eye(space.d2), "right", space)
    rhs_val = w1 * complex(np.trace(am.conj().T @ pt2 @ am))
    discrepancy = abs(lhs_val - rhs_val)
    tol_val = tol.bound(abs(lhs_val), abs(rhs_val))
    passed = discrepancy <= tol_val
    params = {
        "d1": space.d1, "d2": space.d2, "w1": w1, "w2": w2,
        "lhs_value": lhs_val, "rhs_value": rhs_val,
    }
    inputs = dict(X=Xm, a=am, space=space, weights=(w1, w2), tol=tol,
                  enforce_hypotheses=enforce_hypotheses)
    return _report(
        "check_partial_trace_duality", params,
        discrepancy, 0.0, -discrepancy, tol_val, passed, inputs,
    )


def check_state_version(
    H,
    a,
    f: ScalarFunction,
    rho1,
    rho2,
    space: TensorSpace,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """Normal-state version: for faithful states rho_i(y) = Tr(D_i y), a
    contraction a, and operator convex f with f(0) <= 0 unless a is unitary,
      rho_2 f[(rho_1 x id)((a* x 1) H (a x 1))] <= rho_1(a* (id x rho_2)(f(H)) a),
    the sides of the tracial forms taken over the densities D_1, D_2 in place
    of w_1 1, w_2 1.
    """
    Hm = hermitize(space.operand(H, 0, "H"))
    am = space.operand(a, 1, "a")
    d1_m = hermitize(space.operand(rho1, 1, "rho1"))
    d2_m = hermitize(space.operand(rho2, 2, "rho2"))
    _require("check_state_version", enforce_hypotheses, f=f, a=am,
             a_unitary=_is_numerically_unitary(am), tol=tol, rho1=d1_m, rho2=d2_m)
    lhs, rhs = _jensen_sides(Hm, am, f, space, d1_m, d2_m)
    params = {"d1": space.d1, "d2": space.d2, "function": f.label}
    inputs = dict(H=Hm, a=am, f=f, rho1=d1_m, rho2=d2_m, space=space, tol=tol,
                  enforce_hypotheses=enforce_hypotheses)
    return _one_sided_report("check_state_version", params, lhs, rhs, inputs)


def _is_numerically_unitary(a: np.ndarray) -> bool:
    n = a.shape[0]
    return frob(a.conj().T @ a - np.eye(n)) <= _HYPOTHESIS_SLACK * max(1.0, math.sqrt(n))


def check_hansen_pedersen(
    H,
    a,
    f: ScalarFunction,
    space: TensorSpace,
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """Operator-level contractive Jensen inequality
    f((a* x 1) H (a x 1)) <= (a* x 1) f(H) (a x 1) in the Loewner order.

    Requires operator convex f with f(0) <= 0 for a genuine contraction; for
    a unitary a the compression is a *-isomorphism and the condition on f(0)
    is not needed (both sides agree exactly).
    """
    Hm = hermitize(space.operand(H, 0, "H"))
    am = space.operand(a, 1, "a")
    unitary = _is_numerically_unitary(am)
    _require("check_hansen_pedersen", enforce_hypotheses, f=f, a=am, a_unitary=unitary, tol=tol)
    fH = matrix_function(Hm, f)
    compressed = symmetrize(conjugate_compress(Hm, am, space))
    lhs_mat = matrix_function(compressed, f)
    diff = symmetrize(conjugate_compress(fH, am, space)) - lhs_mat
    lam_min = float(hermitian_eigvals(diff)[0])
    tol_val = tol.bound(float(np.linalg.norm(fH, 2)))
    passed = lam_min >= -tol_val
    params = {
        "d1": space.d1, "d2": space.d2, "function": f.label,
        "a_unitary": unitary,
    }
    inputs = dict(H=Hm, a=am, f=f, space=space, tol=tol, enforce_hypotheses=enforce_hypotheses)
    return _report(
        "check_hansen_pedersen", params, 0.0, lam_min, lam_min, tol_val, passed, inputs
    )


# ---------------------------------------------------------------------------
# Hypotheses: each a name and a predicate over the facts it reads, passed as
# keyword arguments: f, branch, phi_flags, rho_spectrum, norm_sq, a,
# a_unitary, tol, xi, piece_sign, rho1, rho2. A campaign cell fixes f, branch
# and phi_flags.
# ---------------------------------------------------------------------------

_CONVEX = {"f_convex": lambda f: f.is_convex}
# Petz-type checks: a unital positive map, or a contractive one with f(0) = 0.
_PETZ = dict(
    _CONVEX,
    map_positive=lambda phi_flags: phi_flags.positive,
    map_unital_or_contractive=lambda phi_flags: phi_flags.unital or phi_flags.contractive,
    f0_zero_unless_map_unital=lambda f, phi_flags: phi_flags.unital or f.vanishes_at_zero,
)
# Compressions by a contraction a: operator convex f, with f(0) <= 0 unless
# a is unitary.
_COMPRESSION = {
    "f_operator_convex": lambda f: f.is_operator_convex,
    "a_contraction": lambda a: np.linalg.norm(a, 2) <= 1.0 + _HYPOTHESIS_SLACK,
    "f0_nonpositive_unless_a_unitary": lambda f, a_unitary, tol: a_unitary or (
        f.defined_at_zero() and f(0.0) <= tol.bound()),
}


def _unit_trace(spectrum: np.ndarray) -> bool:
    return abs(float(np.sum(spectrum)) - 1.0) <= _HYPOTHESIS_SLACK


def _faithful_state(rho: np.ndarray) -> bool:
    w = hermitian_eigvals(rho)
    return w[0] > 0.0 and _unit_trace(w)


def _require(name: str, enforce: bool, **facts) -> None:
    """With `enforce`, raise a HypothesisError naming every hypothesis of
    check `name` that `facts` break; without, evaluate nothing."""
    broken = CHECKS[name].broken(facts) if enforce else None
    if broken:
        raise HypothesisError(f"{name}: hypotheses fail: {', '.join(broken)}", broken)


# ---------------------------------------------------------------------------
# Seeded instance generation
# ---------------------------------------------------------------------------

def _fit_spectrum(h: np.ndarray, f: ScalarFunction) -> np.ndarray:
    """Shift a Hermitian matrix so its spectrum sits inside f's domain.

    Only lower-bounded domains occur in the catalog; the spectrum is shifted
    to keep a safety margin of 0.5 above the lower endpoint.
    """
    dom = f.domain
    if not math.isfinite(dom.lo):
        return h
    w_min = float(hermitian_eigvals(h)[0])
    target = dom.lo + 0.5
    if w_min >= target:
        return h
    return h + (target - w_min) * np.eye(h.shape[0])


def _faithful_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random density mixed with 0.05 * identity, so it is faithful."""
    d = random_density(dim, rng)
    mixed = (d + 0.05 * np.eye(dim)) / (1.0 + 0.05 * dim)
    return hermitize(mixed)


def _subnormalized_element(dim: int, rng: np.random.Generator, w1: float) -> np.ndarray:
    g = complex_gaussian(rng, dim, dim)
    s = rng.uniform(0.05, 0.95)
    norm_sq = w1 * float(np.trace(g.conj().T @ g).real)
    return g * (s / math.sqrt(norm_sq))


# A campaign cell carries the sweep axes (d1, d2, function, map_kind, w1, w2,
# branch). Each check's `draw` turns a cell into the keyword inputs of one
# random instance, plus, under `labels`, any params the report should carry;
# keyword arguments are evaluated left to right, which fixes the order the
# RNG is consumed in.

def _space(cell: dict) -> TensorSpace:
    return TensorSpace(int(cell.get("d1", 2)), int(cell.get("d2", 2)))


def _weights(cell: dict) -> tuple[float, float]:
    return float(cell.get("w1", 1.0)), float(cell.get("w2", 1.0))


def _draw_cfl(cell: dict, rng: np.random.Generator) -> dict:
    f, space = cell["function"], _space(cell)
    return dict(H=_fit_spectrum(random_hermitian(space.total_dim, rng), f),
                rho=random_density(space.d1, rng), f=f, space=space)


def _draw_main_tracial(cell: dict, rng: np.random.Generator) -> dict:
    f, space, (w1, w2) = cell["function"], _space(cell), _weights(cell)
    branch = cell.get("branch", "normalized")
    draw_a = random_l2_normalized if branch == "normalized" else _subnormalized_element
    return dict(H=_fit_spectrum(random_hermitian(space.total_dim, rng), f),
                a=draw_a(space.d1, rng, w1), f=f, space=space, weights=(w1, w2), branch=branch)


def _draw_map_input(cell: dict, rng: np.random.Generator) -> dict:
    """A positive map Phi and self-adjoint x, plus the weighted algebra Phi
    maps into, for the Petz-type checks."""
    f, space = cell["function"], _space(cell)
    phi = random_positive_map(cell["map_kind"], space.d1, space.d2, rng)
    return dict(phi=phi, x=_fit_spectrum(random_hermitian(space.d1, rng), f), f=f,
                algebra=BlockAlgebra.single(phi.out_dim, _weights(cell)[1]))


def _draw_vector_jensen(cell: dict, rng: np.random.Generator) -> dict:
    inputs = _draw_map_input(cell, rng)
    del inputs["algebra"]
    return dict(inputs, xi=random_unit_vector(inputs["phi"].out_dim, rng))


def _draw_preorder_lemma(cell: dict, rng: np.random.Generator) -> dict:
    """A map input plus one monotone sign piece of f, drawn uniformly and
    labelled with its slot."""
    inputs = _draw_map_input(cell, rng)
    f = inputs["f"]
    y = symmetrize(apply_map(inputs["phi"], hermitize(inputs["x"])))
    split = monotone_sign_split(f, working_interval(hermitian_eigvals(y), domain=f.domain))
    pieces = [(slot, p) for slot, p in enumerate(split) if p is not None]
    slot, piece = pieces[int(rng.integers(len(pieces)))]
    return dict(inputs, piece=piece, labels={"piece_slot": slot})


def _draw_duality(cell: dict, rng: np.random.Generator) -> dict:
    space = _space(cell)
    return dict(X=complex_gaussian(rng, space.total_dim, space.total_dim),
                a=complex_gaussian(rng, space.d1, space.d1), space=space,
                weights=_weights(cell))


_EXACT = ToleranceConfig(atol=0.0, rtol=0.0)


def _draw_compression(cell: dict, rng: np.random.Generator) -> dict:
    """H with spectrum in f's domain and a contraction a: a non-unitary one
    where the f(0) hypothesis lets one through (asked at zero tolerance),
    else a unitary, since unitary compression is a *-isomorphism."""
    f, space = cell["function"], _space(cell)
    lets_through = _COMPRESSION["f0_nonpositive_unless_a_unitary"](
        f=f, a_unitary=False, tol=_EXACT)
    draw_a = random_contraction if lets_through else random_unitary
    return dict(H=_fit_spectrum(random_hermitian(space.total_dim, rng), f),
                a=draw_a(space.d1, rng), f=f, space=space)


def _draw_state_version(cell: dict, rng: np.random.Generator) -> dict:
    inputs = _draw_compression(cell, rng)
    d1, d2 = inputs["space"].d1, inputs["space"].d2
    return dict(inputs, rho1=_faithful_density(d1, rng), rho2=_faithful_density(d2, rng))


# ---------------------------------------------------------------------------
# Witness codec: check argument -> (encode, decode, JSON shape of its keys)
# ---------------------------------------------------------------------------

def _encode_map(phi: PositiveMap) -> dict:
    ops = ({"kraus": [encode_matrix(v) for v in phi.kraus]} if phi.kraus is not None
           else {"action": encode_matrix(phi.action)})
    return {"map": dict(kind=phi.kind, in_dim=phi.in_dim, out_dim=phi.out_dim,
                        claimed_positive=phi.claimed_positive, **ops)}


def _decode_map(d: dict) -> PositiveMap:
    m = d["map"]
    return PositiveMap(m["kind"], m["in_dim"], m["out_dim"], m.get("kraus"), m.get("action"),
                       m["claimed_positive"])


# Arguments not listed here are matrices stored under their own name. A
# decoder reads inputs typed by its check's rows; a key no row declares (such
# as the map claims old witnesses recorded) is kept unread. Every witness records
# `tol` and `enforce_hypotheses`; older witnesses decode them to the defaults.
_FIELDS: dict[str, tuple[Callable, Callable, dict]] = {
    "f": (lambda f: {"function": {"name": f.name, "params": list(f.params)}},
          lambda d: get_function(d["function"]["name"], d["function"]["params"]),
          {"function": {"name": str, "params": list}}),
    "phi": (_encode_map, _decode_map, {"map": {
        "kind": str, "in_dim": int, "out_dim": int, "claimed_positive": bool,
        "kraus": [np.ndarray], "action": np.ndarray}}),
    "space": (asdict, lambda d: TensorSpace(d["d1"], d["d2"]), {"d1": int, "d2": int}),
    "weights": (lambda w: {"w1": w[0], "w2": w[1]}, lambda d: (d["w1"], d["w2"]),
                {"w1": float, "w2": float}),
    "branch": (lambda b: {"branch": b}, lambda d: d["branch"], {"branch": str}),
    "algebra": (lambda alg: {"algebra": {"block_dims": list(alg.block_dims),
                                         "trace_weights": list(alg.trace_weights)}},
                lambda d: BlockAlgebra(**d["algebra"]),
                {"algebra": {"block_dims": [int], "trace_weights": [float]}}),
    "piece": (lambda p: {"piece": asdict(p)}, lambda d: Interval(**d["piece"]), {"piece": {
        "lo": numbers.Real, "hi": numbers.Real, "lo_open": bool, "hi_open": bool}}),
    "tol": (lambda t: {"tol": [t.atol, t.rtol, t.eig_cluster_tol]},
            lambda d: ToleranceConfig(*d["tol"]) if "tol" in d else DEFAULT_TOL,
            {"tol": (numbers.Real,) * 3}),
    "enforce_hypotheses": (lambda e: {"enforce_hypotheses": e},
                           lambda d: d.get("enforce_hypotheses", True),
                           {"enforce_hypotheses": bool}),
}


def _field(arg: str) -> tuple[Callable, Callable, dict]:
    return _FIELDS.get(arg) or (
        lambda m: {arg: encode_matrix(m)}, lambda d: d[arg], {arg: np.ndarray})


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    """Everything the campaign runner and replay know about one check.

    `axes` are the campaign-config axes its cells sweep, and `draw(cell,
    rng)` gives the keyword inputs of one random instance (and its report
    labels, under `labels`). `hypotheses` maps the name of each hypothesis
    of the inequality to a predicate over the facts it reads, as keyword
    arguments. The check passes its facts to one `_require` call, and
    `compatible(cell)` evaluates the hypotheses whose facts a cell fixes. A
    witness records every argument of the check.
    """

    name: str
    axes: tuple[str, ...]
    draw: Callable[[dict, np.random.Generator], dict]
    hypotheses: dict[str, Callable[..., bool]]

    @functools.cached_property
    def args(self) -> tuple[str, ...]:
        return tuple(inspect.signature(globals()[self.name]).parameters)

    @functools.cached_property
    def _predicates(self) -> tuple[tuple[str, Callable[..., bool], tuple[str, ...]], ...]:
        """(name, predicate, the facts it reads in parameter order) per hypothesis."""
        return tuple((name, holds, tuple(inspect.signature(holds).parameters))
                     for name, holds in self.hypotheses.items())

    def broken(self, facts: dict) -> list[str]:
        """The names of the hypotheses that fail on `facts`, skipping those
        that read a fact not given."""
        return [name for name, holds, reads in self._predicates
                if all(k in facts for k in reads) and not holds(*[facts[k] for k in reads])]

    def compatible(self, cell: dict) -> bool:
        """Whether a campaign cell meets the hypotheses whose facts it fixes:
        f, branch, and phi_flags, the flags its map kind is built with."""
        facts = {"f": cell.get("function"), "branch": cell.get("branch"),
                 "phi_flags": KIND_FLAGS.get(cell.get("map_kind"))}
        return not self.broken({k: v for k, v in facts.items() if v is not None})

    @functools.cached_property
    def shape(self) -> dict:
        """The JSON shape of a witness's inputs: the union of its arguments' rows."""
        return {key: s for arg in self.args for key, s in _field(arg)[2].items()}

    def encode(self, inputs: dict) -> dict:
        return {key: v for arg in self.args for key, v in _field(arg)[0](inputs[arg]).items()}

    def decode(self, obj: dict) -> dict:
        typed = read_json(obj, self.shape, "inputs")
        return {arg: _field(arg)[1](typed) for arg in self.args}

    def run(self, **inputs) -> CheckReport:
        # Through the module attribute, so wrappers installed there see it.
        return globals()[self.name](**inputs)


_MAP_AXES = ("dims", "functions", "map_kinds", "weights")

CHECKS: dict[str, CheckSpec] = {spec.name: spec for spec in (
    CheckSpec("check_cfl", ("dims", "functions"), _draw_cfl, dict(
        _CONVEX,
        rho_unit_trace=lambda rho_spectrum: _unit_trace(rho_spectrum),
        rho_positive=lambda rho_spectrum: rho_spectrum[0] >= -_HYPOTHESIS_SLACK)),
    CheckSpec("check_main_tracial", ("dims", "functions", "weights", "branches"),
              _draw_main_tracial, dict(
        _CONVEX,
        a_unit_l2_if_normalized=lambda branch, norm_sq:
            branch != "normalized" or abs(norm_sq - 1.0) <= _HYPOTHESIS_SLACK,
        a_subunit_l2_if_subnormalized=lambda branch, norm_sq:
            branch != "subnormalized" or norm_sq <= 1.0 + _HYPOTHESIS_SLACK,
        f0_zero_if_subnormalized=lambda f, branch:
            branch != "subnormalized" or f.vanishes_at_zero)),
    CheckSpec("check_petz", _MAP_AXES, _draw_map_input, _PETZ),
    CheckSpec("check_vector_jensen", ("dims", "functions", "map_kinds"), _draw_vector_jensen,
              dict(_PETZ, xi_unit=lambda xi: abs(np.linalg.norm(xi) - 1.0) <= 1e-12)),
    CheckSpec("check_spectral_preorder_lemma", _MAP_AXES, _draw_preorder_lemma,
              dict(_PETZ, f_one_sign_on_piece=lambda piece_sign: piece_sign != 0)),
    CheckSpec("check_pinching_chain", _MAP_AXES, _draw_map_input, _PETZ),
    CheckSpec("check_partial_trace_duality", ("dims", "weights"), _draw_duality, {}),
    CheckSpec("check_state_version", ("dims", "functions"), _draw_state_version, dict(
        _COMPRESSION,
        rho1_faithful_state=lambda rho1: _faithful_state(rho1),
        rho2_faithful_state=lambda rho2: _faithful_state(rho2))),
    CheckSpec("check_hansen_pedersen", ("dims", "functions"), _draw_compression,
              _COMPRESSION),
)}


def lookup_check(name: str) -> CheckSpec:
    """The registry entry of a check; an unknown name is a usage error."""
    if name not in CHECKS:
        raise UsageError(f"unknown check {name!r}; valid checks: {', '.join(CHECKS)}")
    return CHECKS[name]


def generate_trial(
    check_name: str,
    cell: dict,
    entropy: tuple[int, ...],
    tol: ToleranceConfig = DEFAULT_TOL,
    enforce_hypotheses: bool = True,
) -> CheckReport:
    """Draw one random instance for a check and run it.

    `entropy` keys the RNG stream, so identical (cell, entropy) always
    reproduces the same trial. The report is stamped with the stream's token
    as its seed and with the draw's labels. Campaign trials enforce the
    check's hypotheses; ablation searches turn them off. An unknown check or
    a negative entropy entry is a usage error.
    """
    spec = lookup_check(check_name)
    if any(e < 0 for e in entropy):
        raise UsageError(f"seed and trial entropy must be non-negative, got {tuple(entropy)}")
    rng, token = random_stream(*entropy)
    inputs = spec.draw(cell, rng)
    labels = inputs.pop("labels", {})
    report = spec.run(**inputs, tol=tol, enforce_hypotheses=enforce_hypotheses)
    return _stamped(report, token, labels)


def _stamped(report: CheckReport, seed: int, labels: dict) -> CheckReport:
    """The report with the seed of its trial and its labels in params."""
    report.seed = seed
    report.params.update(labels)
    return report


def run_trial(
    check_name: str,
    cell: dict,
    master_seed: int,
    trial_index: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CheckReport:
    """One campaign trial with deterministic resampling.

    Boundary-ambiguity errors (an eigenvalue landing on a spectral-window
    endpoint) resample the trial with fresh entropy, at most 64 times; the
    resample count is recorded in the report params.
    """
    attempts = 0
    while True:
        try:
            report = generate_trial(
                check_name, cell, (master_seed, trial_index, attempts), tol
            )
            break
        except BoundaryAmbiguityError:
            attempts += 1
            if attempts > _MAX_RESAMPLES:
                raise NumericError(
                    f"{check_name}: trial {trial_index} hit boundary ambiguity "
                    f"{_MAX_RESAMPLES} times in a row"
                ) from None
    report.params.update(trial=trial_index, resampled=attempts)
    return report


# ---------------------------------------------------------------------------
# Hypothesis-ablation searches
# ---------------------------------------------------------------------------

@dataclass
class AblationResult:
    target: str
    trials: int
    max_violation: float
    witness: CheckReport | None

    @property
    def found_violation(self) -> bool:
        return self.witness is not None


# Each ablation target: the check it runs with hypotheses off, the one
# hypothesis its instances break, and the cell the check's registered draw
# fills in; a search adds d1 = d2 = n.
_ABLATIONS: dict[str, tuple[str, str, dict]] = {
    "petz_drop_f0": ("check_petz", "f0_zero_unless_map_unital",
                     {"function": get_function("shifted_square", (1.0,)), "map_kind": "zero"}),
    "state_drop_opconvex": ("check_state_version", "f_operator_convex",
                            {"function": get_function("quartic")}),
    "drop_positivity": ("check_petz", "map_positive",
                        {"function": get_function("quartic"), "map_kind": "nonpositive_unital"}),
    "drop_contractive": ("check_petz", "map_unital_or_contractive",
                         {"function": get_function("square"), "map_kind": "expansive"}),
}
ABLATION_TARGETS = tuple(_ABLATIONS)


def ablation_search(
    target: str,
    trials: int,
    dims: list[int],
    seed: int,
) -> AblationResult:
    """Re-run a check with one hypothesis removed and hunt for violations.

    Trial i is `generate_trial` on the target's cell at d1 = d2 =
    dims[i % len(dims)] and the stream (seed, i), with hypotheses off, and its
    report is labelled with the target and i. Only petz_drop_f0
    guarantees a violation: the zero map is positive and contractive, and f
    with f(0) != 0 gives tau(f(Phi(x))) = n * f(0) against
    tau(Phi(f(x))) = 0, a gap of exactly -n * f(0). The other targets are
    exploratory searches; the most negative gap found is reported either way.
    """
    if target not in _ABLATIONS:
        raise UsageError(
            f"unknown ablation target {target!r}; valid targets: {', '.join(ABLATION_TARGETS)}"
        )
    if not dims:
        raise UsageError("ablation_search needs at least one dimension")
    for what, value in (("trials", trials), ("seed", seed)):
        if value < 0:
            raise UsageError(f"{what} must be a non-negative integer, got {value}")
    require_within("trials", trials, 0, MAX_TRIALS)
    for n in dims:
        require_dims(dims=n)
    check_name, _, cell = _ABLATIONS[target]
    worst_gap = math.inf
    worst: CheckReport | None = None
    for i in range(trials):
        n = int(dims[i % len(dims)])
        report = generate_trial(check_name, dict(cell, d1=n, d2=n), (seed, i),
                                enforce_hypotheses=False)
        report.params.update(ablation=target, trial=i)
        if report.gap < worst_gap:
            worst_gap = report.gap
            worst = report
    witness = worst if worst is not None and not worst.passed else None
    return AblationResult(
        target=target, trials=trials,
        max_violation=worst_gap if trials else math.nan,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def replay_report(report: CheckReport | dict) -> CheckReport:
    """Re-run a failure witness from its serialized inputs.

    The checks are pure functions, so the replay reproduces lhs, rhs, and gap
    bit-for-bit from the recorded matrices. A report that names no known
    check, or lacks a field or input, or has one of the wrong JSON type, is a
    usage error.
    """
    try:
        rep = report if isinstance(report, CheckReport) else CheckReport.from_dict(report)
        if not rep.witness or "inputs" not in rep.witness:
            raise UsageError("report carries no witness inputs to replay")
        spec = lookup_check(rep.check_name)
        inputs = spec.decode(rep.witness["inputs"])
    except UsageError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot decode the witness report ({exc!r})") from exc
    return _stamped(spec.run(**inputs), rep.seed, {})
