"""Acceptance suite: the release gate for the verification toolkit.

Each test prints one [acceptance NN] PASS/FAIL line (run with -s to stream
them). Tolerances are pinned here, not tuned at run time.
"""

import json
import time
from pathlib import Path

import numpy as np

from opjensen.convex_catalog import check_operator_convex, get_function
from opjensen.harness_cli import (
    CampaignConfig,
    EXIT_OK,
    cli_entry,
    default_campaign,
    run_campaign,
)
from opjensen.jensen_checks import check_cfl, check_main_tracial, run_trial
from opjensen.linalg_core import (
    ToleranceConfig,
    frob,
    hermitian_eig,
    psd_sqrt,
    random_density,
    random_hermitian,
    random_unitary,
    rng_stream,
)
from opjensen.spectral_tools import kaplansky_verify, singular_value_function
from opjensen.tensor_ops import BlockAlgebra, TensorSpace

TOL = ToleranceConfig(atol=1e-9, rtol=1e-9)
JOBS = 2


def _record(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_acceptance_01_cfl_suite(tmp_path):
    config = CampaignConfig(
        checks=["check_cfl"],
        trials=5000,
        dims=[(d1, d2) for d1 in (2, 3, 4) for d2 in (2, 3, 4)],
        functions=["square", "abs", "quartic", "exp", "hinge:0"],
        master_seed=101,
        tolerances=TOL,
        out_path=str(tmp_path / "cfl.jsonl"),
    )
    t0 = time.perf_counter()
    summary = run_campaign(config, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    ok = summary["failed"] == 0 and summary["total"] == 5000 and elapsed < 60.0
    _record(1, ok, f"5000 trials, {summary['failed']} violations, {elapsed:.1f}s")


def test_acceptance_02_main_tracial_both_branches():
    weights = [(w1, w2) for w1 in (0.3, 1.0, 2.5) for w2 in (0.3, 1.0, 2.5)]
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    funcs_norm = ["square", "abs", "quartic", "exp", "hinge:0"]
    funcs_sub = ["square", "abs", "quartic", "hinge:0"]
    failures = 0
    for branch, fnames, seed in (
        ("normalized", funcs_norm, 201),
        ("subnormalized", funcs_sub, 202),
    ):
        cells = [
            {"d1": d1, "d2": d2, "function": get_function(*_split(fn)),
             "w1": w1, "w2": w2, "branch": branch}
            for (d1, d2) in dims for fn in fnames for (w1, w2) in weights
        ]
        for t in range(2000):
            rep = run_trial("check_main_tracial", cells[t % len(cells)], seed, t, TOL)
            failures += 0 if rep.passed else 1
    # the a = rho^(1/2), unit-weight sub-suite coincides with check_cfl
    mismatch = 0.0
    rng = rng_stream(203)
    space = TensorSpace(2, 3)
    for fname in ("square", "abs", "exp", "quartic", "hinge:0"):
        f = get_function(*_split(fname))
        for _ in range(60):
            h = random_hermitian(6, rng)
            rho = random_density(2, rng)
            r1 = check_cfl(h, rho, f, space, TOL)
            r2 = check_main_tracial(h, psd_sqrt(rho), f, space, (1.0, 1.0), "normalized", TOL)
            mismatch = max(mismatch, abs(r1.lhs - r2.lhs), abs(r1.rhs - r2.rhs))
    ok = failures == 0 and mismatch <= 1e-12
    _record(2, ok, f"4000 weighted trials, {failures} violations, cfl-agreement {mismatch:.2e}")


def _split(spec: str):
    name, _, tail = spec.partition(":")
    return name, tuple(float(p) for p in tail.split(",")) if tail else ()


def test_acceptance_03_petz_self_adjoint(tmp_path):
    config = CampaignConfig(
        checks=["check_petz"],
        trials=2000,
        dims=[(2, 2), (3, 3), (4, 4), (3, 2)],
        functions=["square", "abs", "quartic", "exp", "hinge:0"],
        map_kinds=["ucp_stinespring", "transpose", "pinching", "scaled_contractive", "zero"],
        weights=[(1.0, 1.0), (1.0, 2.5)],
        master_seed=301,
        tolerances=TOL,
        out_path=str(tmp_path / "petz.jsonl"),
    )
    summary = run_campaign(config, jobs=JOBS)
    reports = [json.loads(ln) for ln in Path(config.out_path).read_text().splitlines()]
    kinds = {r["params"]["map_kind"] for r in reports}
    branches = {r["params"]["branch"] for r in reports}
    ok = (
        summary["failed"] == 0
        and summary["total"] == 2000
        and "transpose" in kinds
        and {"zero", "scaled_contractive"} <= kinds
        and "contractive" in branches
    )
    _record(3, ok, f"2000 trials, {summary['failed']} violations, kinds {sorted(kinds)}")


def test_acceptance_04_zero_map_negative_control(tmp_path, capsys):
    wpath = str(tmp_path / "witness.jsonl")
    rc = cli_entry(["search", "--target", "petz_drop_f0", "--trials", "10",
                    "--seed", "1", "--dims", "2,3,4", "--out", wpath])
    captured = capsys.readouterr().out
    rec = json.loads(Path(wpath).read_text().splitlines()[0])
    n = rec["params"]["d2"]
    ok = (
        rc == EXIT_OK
        and '"violation_found": true' in captured
        and abs(rec["gap"] + n) <= 1e-12
        and rec["witness"] is not None
    )
    _record(4, ok, f"zero-map gap {rec['gap']} for output dim {n}")


def test_acceptance_05_vector_inequality(tmp_path):
    config = CampaignConfig(
        checks=["check_vector_jensen"],
        trials=10_000,
        dims=[(2, 2), (3, 2), (4, 3)],
        functions=["square", "abs", "quartic", "exp", "hinge:0"],
        map_kinds=["ucp_stinespring", "transpose", "pinching", "scaled_contractive", "zero"],
        master_seed=501,
        tolerances=TOL,
        out_path=str(tmp_path / "vector.jsonl"),
    )
    summary = run_campaign(config, jobs=JOBS)
    ok = summary["failed"] == 0 and summary["total"] == 10_000
    _record(5, ok, f"10000 trials, {summary['failed']} violations")


def test_acceptance_06_preorder_and_pinching_chain(tmp_path):
    f = get_function("shifted_square", (-1.0,))
    failures = 0
    resampled = 0
    for t in range(500):
        rep = run_trial(
            "check_spectral_preorder_lemma",
            {"d1": 4, "d2": 4, "function": f,
             "map_kind": ("ucp_stinespring", "transpose", "pinching")[t % 3]},
            601, t, TOL,
        )
        failures += 0 if rep.passed else 1
        resampled += rep.params["resampled"]
    for t in range(500):
        rep = run_trial(
            "check_pinching_chain",
            {"d1": 4, "d2": 3, "function": f,
             "map_kind": ("ucp_stinespring", "transpose", "pinching")[t % 3]},
            602, t, TOL,
        )
        failures += 0 if rep.passed else 1
        resampled += rep.params["resampled"]
    rate = resampled / 1000.0
    ok = failures == 0 and rate < 0.01
    _record(6, ok, f"1000 sign-changing trials, {failures} failures, resample rate {rate:.4f}")


def test_acceptance_07_duality(tmp_path):
    strict = ToleranceConfig(atol=0.0, rtol=1e-10)
    weights = [(1.0, 1.0), (0.3, 2.5), (2.5, 0.3)]
    dims = [(2, 2), (2, 3), (3, 2), (4, 2)]
    worst = 0.0
    failures = 0
    for t in range(1000):
        d1, d2 = dims[t % len(dims)]
        w1, w2 = weights[t % len(weights)]
        rep = run_trial(
            "check_partial_trace_duality",
            {"d1": d1, "d2": d2, "w1": w1, "w2": w2},
            701, t, strict,
        )
        failures += 0 if rep.passed else 1
        lv = complex(rep.params["lhs_value"].real, rep.params["lhs_value"].imag) \
            if isinstance(rep.params["lhs_value"], complex) else complex(*rep.params["lhs_value"])
        rv = complex(rep.params["rhs_value"].real, rep.params["rhs_value"].imag) \
            if isinstance(rep.params["rhs_value"], complex) else complex(*rep.params["rhs_value"])
        scale = max(1.0, abs(lv), abs(rv))
        worst = max(worst, rep.lhs / scale)
    ok = failures == 0 and worst <= 1e-10
    _record(7, ok, f"1000 trials incl. weighted traces, worst |lhs-rhs|/scale {worst:.2e}")


def test_acceptance_08_state_version_with_hansen_pedersen():
    failures_state = 0
    failures_hp = 0
    for fname, params in (("square", ()), ("power", (1.5,)), ("inv", ())):
        f = get_function(fname, params)
        for t in range(334):
            cell = {"d1": (2, 3, 2)[t % 3], "d2": (2, 2, 3)[t % 3], "function": f}
            rep = run_trial("check_state_version", cell, 801, t, TOL)
            failures_state += 0 if rep.passed else 1
            # same entropy draws the same (H, a) pair for the operator-level check
            rep_hp = run_trial("check_hansen_pedersen", cell, 801, t, TOL)
            failures_hp += 0 if rep_hp.passed else 1
    ok = failures_state == 0 and failures_hp == 0
    _record(8, ok, f"1002 state trials ({failures_state} fail),"
                   f" operator-level companion ({failures_hp} fail)")


def test_acceptance_09_operator_convexity_discriminator():
    found_quartic = check_operator_convex(get_function("quartic"), 2, 1000, 901)
    found_abs = check_operator_convex(get_function("abs"), 2, 1000, 902)
    clean = True
    for fname, params in (("square", ()), ("inv", ()), ("power", (1.5,))):
        f = get_function(fname, params)
        for dim in (2, 3, 4):
            rep = check_operator_convex(f, dim, 334, 903 + dim)
            clean = clean and rep.verdict == "no_violation_found"
    ok = found_quartic.found_violation and found_abs.found_violation and clean
    _record(
        9, ok,
        f"quartic violation at trial {found_quartic.trial}, "
        f"abs at trial {found_abs.trial}, operator-convex catalog clean: {clean}",
    )


def test_acceptance_10_numerics_floor():
    rng = rng_stream(1001)
    worst_recon = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 13))
        m = random_hermitian(d, rng)
        dec = hermitian_eig(m)
        worst_recon = max(worst_recon, frob(dec.reconstruct() - m) / max(frob(m), 1e-300))
    mu_ok = True
    for _ in range(200):
        alg = BlockAlgebra((2, 3), (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))))
        x = np.zeros((5, 5), dtype=complex)
        x[:2, :2] = random_hermitian(2, rng)
        x[2:, 2:] = random_hermitian(3, rng)
        mu = singular_value_function(x, alg)
        expected = sum(
            w * float(np.sum(np.abs(hermitian_eig(blk).eigenvalues)))
            for w, blk in zip(alg.trace_weights, alg.blocks(x))
        )
        mu_ok = mu_ok and abs(mu.integral() - expected) <= 1e-10 * max(1.0, abs(expected))
    kaplansky_ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        u = random_unitary(d, rng)
        v = random_unitary(d, rng)
        kp = int(rng.integers(1, d + 1))
        kq = int(rng.integers(1, d + 1))
        p = u[:, :kp] @ u[:, :kp].conj().T
        q = v[:, :kq] @ v[:, :kq].conj().T
        kaplansky_ok = kaplansky_ok and kaplansky_verify(p, q)
    ok = worst_recon <= 1e-11 and mu_ok and kaplansky_ok
    _record(
        10, ok,
        f"eig reconstruction {worst_recon:.2e}, mu-integral ok: {mu_ok}, "
        f"rank identity 1000 pairs ok: {kaplansky_ok}",
    )


def test_acceptance_11_campaign_determinism(tmp_path):
    cfg = default_campaign(master_seed=42, out_path=str(tmp_path / "one.jsonl"))
    run_campaign(cfg, jobs=JOBS)
    first = Path(cfg.out_path).read_bytes()
    cfg.out_path = str(tmp_path / "two.jsonl")
    run_campaign(cfg, jobs=1)
    second = Path(cfg.out_path).read_bytes()
    ok = first == second and len(first) > 0
    _record(11, ok, f"default campaign byte-identical across runs ({len(first)} bytes)")
