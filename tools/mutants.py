"""Count the tests that kill each one-line mutant of the layers a verdict reads.

Run `python tools/mutants.py` from anywhere. For each mutant in `MUTANTS`,
the script copies `src/`, `tests/`, `tools/`, `README.md` and
`pyproject.toml` to a temporary directory, replaces the mutant's source line
there, runs the tier-1 suite on the copy without acceptance 01 (which runs
only `check_cfl`, and costs most of a run) and prints how many tests failed.

A mutant is a plausible wrong side or a dead assertion: a check whose
enforced trials all still PASS, so that no campaign can tell. Only a test
can, so each should fail at least `MIN_KILLERS` tests, not one test that may
be edited away. The script exits 1 when a mutant's original text no longer
occurs exactly once in its module (the table must follow the source), or
when a mutant fails fewer than `MIN_KILLERS` tests; else 0.

Each mutant costs one tier-1 run, about 20-35 s on two cores, so the tests
workflow does not run it. The `mutants` workflow runs it weekly, on demand,
and on each pull request that edits a module of `src/opjensen/`, the tests
or this script.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "tools", "README.md", "pyproject.toml")
DESELECTED = "tests/test_acceptance.py::test_acceptance_01_cfl_suite"
MIN_KILLERS = 3

_CHECKS = "src/opjensen/jensen_checks.py"
_SPECTRAL = "src/opjensen/spectral_tools.py"
_LINALG = "src/opjensen/linalg_core.py"
_TENSOR = "src/opjensen/tensor_ops.py"
_MAPS = "src/opjensen/positive_maps.py"
_REPORTING = "src/opjensen/reporting.py"

# (name, module, original text, mutated text)
MUTANTS = [
    ("_petz_sides lhs = rhs (gap 0 for CFL, main tracial, the state version and Petz)",
     _CHECKS,
     "    rhs = omega(apply(matrix_function(x, f)))",
     "    rhs = lhs = omega(apply(matrix_function(x, f)))"),
    ("_petz_sides rhs = lhs", _CHECKS,
     "    return lhs, rhs\n\n\ndef _jensen_sides(",
     "    return lhs, lhs\n\n\ndef _jensen_sides("),
    ("_jensen_sides omega drops D2", _CHECKS,
     "                       lambda y: float(np.trace(d2 @ y).real))",
     "                       lambda y: float(np.trace(y).real))"),
    ("check_cfl uses rho for rho^(1/2)", _CHECKS,
     "_jensen_sides(Hm, psd_sqrt(rho_m, decomp=dec), f, space,",
     "_jensen_sides(Hm, rho_m, f, space,"),
    ("check_vector_jensen's vector state drops xi's .conj()", _CHECKS,
     "_petz_sides(lambda y: np.reshape(v.conj() @ apply_map(phi, y) @ v, (1, 1)),",
     "_petz_sides(lambda y: np.reshape(v @ apply_map(phi, y) @ v, (1, 1)),"),
    ("check_state_version passes I/d1 for rho1", _CHECKS,
     "    lhs, rhs = _jensen_sides(Hm, am, f, space, d1_m, d2_m)",
     "    lhs, rhs = _jensen_sides(Hm, am, f, space, np.eye(space.d1) / space.d1, d2_m)"),
    ("_jensen_sides slices against a (I/d1) a* instead of a D1 a*", _CHECKS,
     "    rho = symmetrize(a @ d1 @ a.conj().T)",
     "    rho = symmetrize(a @ (np.eye(space.d1) / space.d1) @ a.conj().T)"),
    ("check_hansen_pedersen reports |lambda_min|", _CHECKS,
     "    lam_min = float(hermitian_eigvals(diff)[0])",
     "    lam_min = abs(float(hermitian_eigvals(diff)[0]))"),
    ("pinching chain: positive-parts pre-order never fails", _CHECKS,
     "    bad = preorder_violation(fy_pos, e_pos, algebra, tol)",
     "    bad = None"),
    ("pinching chain: negative-parts pre-order never fails", _CHECKS,
     "    bad = preorder_violation(e_neg, fy_neg, algebra, tol)",
     "    bad = None"),
    ("pinching chain: trace inequality never fails", _CHECKS,
     "    if tr_e < tr_fy - tol.bound(tr_e, tr_fy):",
     "    if False:"),
    ("pre-order lemma: compressed positivity never fails", _CHECKS,
     "        if lam_min < -tol.bound(lam_min, float(w[-1])):",
     "        if False:"),
    ("pre-order lemma: nonnegative-piece pre-order never fails", _CHECKS,
     "        bad = preorder_violation(a_side, b_side, algebra, tol)",
     "        bad = None"),
    ("pre-order lemma: nonpositive-piece pre-order never fails", _CHECKS,
     "        bad = preorder_violation(neg_part, -a_side, algebra, tol)",
     "        bad = None"),
    ("preorder_violation counts off by one", _SPECTRAL,
     "            if count_a > count_b:",
     "            if count_a > count_b + 1:"),
    ("ToleranceConfig.bound uses 10 rtol", _LINALG,
     "        return self.atol + self.rtol * scale",
     "        return self.atol + 10 * self.rtol * scale"),
    ("BlockAlgebra.trace drops the weights", _TENSOR,
     "            total += w * np.trace(blk)",
     "            total += np.trace(blk)"),
    ("slice_map slices against D^T (drops .conj())", _TENSOR,
     '    dens = space.operand(density, 2 if side == "right" else 1, "density").conj()',
     '    dens = space.operand(density, 2 if side == "right" else 1, "density")'),
    ("conjugate_compress forms a X a* for a* X a", _TENSOR,
     "    return e.conj().T @ xm @ e",
     "    return e @ xm @ e.conj().T"),
    ("matrix_function hands f.poly to _polynomial reversed", _LINALG,
     "        return _polynomial(hermitize(m), f.poly)",
     "        return _polynomial(hermitize(m), f.poly[::-1])"),
    ("_fit_to_domain clamps within 1e-6 instead of 1e-12", _LINALG,
     "            if abs(t - endpoint) <= 1e-12 * max(1.0, abs(endpoint)):",
     "            if abs(t - endpoint) <= 1e-6 * max(1.0, abs(endpoint)):"),
    ("psd_sqrt takes sqrt|lambda| instead of sqrt max(lambda, 0)", _LINALG,
     "    return dec.with_eigenvalues(np.sqrt(np.where(w > 1e-14 * frob(w), w, 0.0)))",
     "    return dec.with_eigenvalues(np.sqrt(np.abs(w)))"),
    ("apply_map's Kraus side computes V^T x conj(V)", _MAPS,
     "            out += v.conj().T @ xm @ v",
     "            out += v.T @ xm @ v.conj()"),
    ("conjugate_compress lifts a to 1 (x) a instead of a (x) 1", _TENSOR,
     '    e = np.kron(space.operand(a, 1, "a"), np.eye(space.d2, dtype=np.complex128))',
     '    e = np.kron(np.eye(space.d2, dtype=np.complex128), space.operand(a, 1, "a"))'),
    ("_clamp_inside clamps onto an open lower endpoint", _CHECKS,
     "        lo = max(lo, domain.lo + (1e-9 * max(1.0, abs(domain.lo)) if domain.lo_open else 0.0))",
     "        lo = max(lo, domain.lo)"),
    ("_HYPOTHESIS_SLACK 1e-6 instead of 1e-10", _CHECKS,
     "_HYPOTHESIS_SLACK = 1e-10",
     "_HYPOTHESIS_SLACK = 1e-6"),
    ("_cluster_tol drops the spectrum scale", _SPECTRAL,
     "    return tol.eig_cluster_tol * max(1.0, float(np.max(np.abs(w))) if len(w) else 0.0)",
     "    return tol.eig_cluster_tol"),
    ("decode_matrix reads a JSON boolean entry as a number", _REPORTING,
     "    if bool in types or not all(issubclass(t, (int, float)) for t in types):",
     "    if not all(issubclass(t, (int, float)) for t in types):"),
    ("the one shape rule checks d1 where it should check d2", _TENSOR,
     "        d = (self.total_dim, self.d1, self.d2)[factor]",
     "        d = (self.total_dim, self.d1, self.d1)[factor]"),
    ("require_shape compares only shape[:1]", _LINALG,
     "    if m.shape != shape:",
     "    if m.shape[:1] != shape[:1]:"),
    ("MAX_DIM ten times too large", _LINALG,
     "MAX_DIM = 64  #",
     "MAX_DIM = 640  #"),
    ("require_dims drops its integer test", _LINALG,
     "        if isinstance(d, bool) or not isinstance(d, numbers.Integral):",
     "        if False:"),
    ("the int shape reads any integral float, 1e300 too", _REPORTING,
     "                and not (value.is_integer() and abs(value) < 2 ** 53)):",
     "                and not value.is_integer()):"),
]


def apply_mutant(root: str, module: str, original: str, mutated: str) -> bool:
    """Replace `original` by `mutated` in root/module; False unless it occurs once."""
    path = os.path.join(root, module)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    if source.count(original) != 1:
        return False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source.replace(original, mutated))
    return True


def failed_tests(root: str) -> int:
    """Failed plus erroring tests of one tier-1 run on the copy at root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", DESELECTED],
        cwd=root, env=env, capture_output=True, text=True,
    )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = re.findall(r"(\d+) (failed|errors?)\b", summary)
    if proc.returncode not in (0, 1) and not counts:
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return sum(int(n) for n, _ in counts)


def main() -> int:
    status = 0
    for name, module, original, mutated in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="opjensen-mutant-") as tmp:
            for item in COPIED:
                src = os.path.join(ROOT, item)
                if os.path.isdir(src):
                    shutil.copytree(src, os.path.join(tmp, item),
                                    ignore=shutil.ignore_patterns("__pycache__"))
                else:
                    shutil.copy2(src, tmp)
            if not apply_mutant(tmp, module, original, mutated):
                print(f"{name}: original text not found once in {module}", flush=True)
                status = 1
                continue
            killed = failed_tests(tmp)
        print(f"{name}: {killed} failing tests", flush=True)
        if killed < MIN_KILLERS:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
