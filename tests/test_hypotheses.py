"""Named hypotheses: each check's registry entry states them once, and they
drive both campaign cell filtering and the guard inside the check."""

import importlib.util
import inspect
import itertools
import math
import os
import pickle

import numpy as np
import pytest

from opjensen import jensen_checks
from opjensen.convex_catalog import parse_function_spec
from opjensen.errors import HypothesisError
from opjensen.jensen_checks import (
    _ABLATIONS,
    ABLATION_TARGETS,
    CHECKS,
    check_cfl,
    check_hansen_pedersen,
    check_main_tracial,
    check_state_version,
    run_trial,
)
from opjensen.linalg_core import random_stream
from opjensen.positive_maps import MAP_KINDS
from opjensen.tensor_ops import TensorSpace

SPACE22 = TensorSpace(2, 2)
H = np.diag([0.3, 1.0, -0.7, 2.0])
H_POSITIVE = np.diag([0.3, 1.0, 0.7, 2.0])
HALF = np.eye(2) / 2


def _load_cell_functions() -> list[str]:
    """`CELL_FUNCTIONS` of tools/report_digests.py, which is a script, not a
    package: the cell-filter tests run over the specs the `cells` digest does."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "report_digests.py")
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CELL_FUNCTIONS


FUNCTIONS = _load_cell_functions()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


# rho = diag(1.5, -0.5) has unit trace but is not a state; rho^(1/2) clips
# it to diag(1.5, 0), so lhs and rhs read different weights of H's blocks.
@pytest.mark.parametrize("spec, gap", [("const:-1", -1.0), ("shifted_square:-1", -1.8175)])
def test_cfl_needs_positive_rho(spec, gap):
    rho = np.diag([1.5, -0.5])
    f = parse_function_spec(spec)
    with pytest.raises(HypothesisError) as exc:
        check_cfl(H, rho, f, SPACE22)
    assert exc.value.hypotheses == ("rho_positive",)
    rep = check_cfl(H, rho, f, SPACE22, enforce_hypotheses=False)
    assert not rep.passed and _close(rep.gap, gap), rep.gap


# With rho1 = rho2 = I/2 both sides are exact: for a = I/2 the compression is
# H/4, so with f(t) = t^2 + 1 the sides are 1.0715625 and 0.59875, and with
# f(t) = 1/t they are 16/3 and (13/24 + 27/112)/2.
@pytest.mark.parametrize("spec, a, h, gap", [
    ("const:1", np.zeros((2, 2)), H, -1.0),
    ("shifted_square:1", HALF, H, 0.59875 - 1.0715625),
    ("inv", HALF, H_POSITIVE, (13 / 24 + 27 / 112) / 2 - 16 / 3),
], ids=["const:1", "shifted_square:1", "inv"])
def test_state_version_needs_f0_nonpositive_for_a_nonunitary_a(spec, a, h, gap):
    f = parse_function_spec(spec)
    with pytest.raises(HypothesisError) as exc:
        check_state_version(h, a, f, HALF, HALF, SPACE22)
    assert exc.value.hypotheses == ("f0_nonpositive_unless_a_unitary",)
    rep = check_state_version(h, a, f, HALF, HALF, SPACE22, enforce_hypotheses=False)
    assert not rep.passed and _close(rep.gap, gap), rep.gap


# The numerical hypotheses allow 1e-10 of rounding slack and no more: each
# refuses a miss of 1e-8.
def test_cfl_refuses_a_rho_of_trace_1_plus_1e_8():
    with pytest.raises(HypothesisError) as exc:
        check_cfl(H, np.diag([0.5, 0.5 + 1e-8]), parse_function_spec("square"), SPACE22)
    assert exc.value.hypotheses == ("rho_unit_trace",)


@pytest.mark.parametrize("branch, hypothesis", [
    ("normalized", "a_unit_l2_if_normalized"),
    ("subnormalized", "a_subunit_l2_if_subnormalized"),
])
def test_main_tracial_refuses_a_tau1_of_a_star_a_of_1_plus_1e_8(branch, hypothesis):
    a = math.sqrt((1.0 + 1e-8) / 2.0) * np.eye(2)
    with pytest.raises(HypothesisError) as exc:
        check_main_tracial(H, a, parse_function_spec("square"), SPACE22, (1.0, 1.0), branch)
    assert exc.value.hypotheses == (hypothesis,)


@pytest.mark.parametrize("check", [
    lambda a, f: check_hansen_pedersen(H, a, f, SPACE22),
    lambda a, f: check_state_version(H, a, f, HALF, HALF, SPACE22),
], ids=["hansen_pedersen", "state_version"])
def test_compressions_refuse_an_a_of_norm_1_plus_1e_8(check):
    with pytest.raises(HypothesisError) as exc:
        check((1.0 + 1e-8) * np.eye(2), parse_function_spec("square"))
    assert exc.value.hypotheses == ("a_contraction",)


def test_hypothesis_error_names_every_broken_hypothesis():
    f = parse_function_spec("exp")  # not operator convex, and f(0) = 1 > 0
    a = 2.0 * np.eye(2)  # neither a contraction nor unitary
    with pytest.raises(HypothesisError) as exc:
        check_hansen_pedersen(H, a, f, SPACE22)
    assert exc.value.hypotheses == (
        "f_operator_convex", "a_contraction", "f0_nonpositive_unless_a_unitary")
    for name in exc.value.hypotheses:
        assert name in str(exc.value)


@pytest.mark.parametrize("target", ABLATION_TARGETS)
def test_ablation_row_breaks_exactly_its_hypothesis(target):
    check_name, hypothesis, cell = _ABLATIONS[target]
    assert hypothesis in CHECKS[check_name].hypotheses
    for n in (2, 3, 4):
        for i in range(20):
            rng, _ = random_stream(11, n, i)
            inputs = CHECKS[check_name].draw(dict(cell, d1=n, d2=n), rng)
            with pytest.raises(HypothesisError) as exc:
                CHECKS[check_name].run(**inputs)
            assert exc.value.hypotheses == (hypothesis,), (n, i)
            rep = CHECKS[check_name].run(**inputs, enforce_hypotheses=False)
            assert rep.params.get("branch", "ablated") == "ablated"


def _every_cell(axes: tuple[str, ...]):
    """Every cell over a check's axes, before hypothesis filtering."""
    functions = [parse_function_spec(s) for s in FUNCTIONS] if "functions" in axes else [None]
    kinds = MAP_KINDS if "map_kinds" in axes else [None]
    branches = ("normalized", "subnormalized") if "branches" in axes else (None,)
    for (d1, d2), f, kind, branch in itertools.product(
            [(2, 2), (2, 3)], functions, kinds, branches):
        cell = {"d1": d1, "d2": d2, "w1": 1.0, "w2": 1.0, "function": f,
                "map_kind": kind, "branch": branch}
        yield {key: value for key, value in cell.items() if value is not None}


@pytest.mark.parametrize("name", list(CHECKS))
def test_cell_filter_agrees_with_the_guard_in_the_check(name):
    # A cell is dropped exactly when an instance drawn for it breaks a
    # hypothesis: the filter and the guard evaluate the same predicates.
    spec = CHECKS[name]
    for index, cell in enumerate(_every_cell(spec.axes)):
        if spec.compatible(cell):
            run_trial(name, cell, 5, index)
        else:
            with pytest.raises(HypothesisError):
                run_trial(name, cell, 5, index)


def test_every_hypothesis_receives_every_fact_it_reads(monkeypatch):
    # CheckSpec.broken skips a hypothesis whose fact is missing, so a fact
    # misspelt at a `_require` call would switch its hypothesis off unseen.
    calls = []
    original = jensen_checks._require

    def recorded(name, enforce, **facts):
        calls.append((name, set(facts)))
        return original(name, enforce, **facts)

    monkeypatch.setattr(jensen_checks, "_require", recorded)
    for name, spec in CHECKS.items():
        for index, cell in enumerate(_every_cell(spec.axes)):
            if spec.compatible(cell):
                run_trial(name, cell, 5, index)
    assert {name for name, _ in calls} == {n for n, s in CHECKS.items() if s.hypotheses}
    for name, given in calls:
        reads = {h: set(inspect.signature(holds).parameters)
                 for h, holds in CHECKS[name].hypotheses.items()}
        for hypothesis, facts in reads.items():
            assert facts <= given, (name, hypothesis, facts - given)
        assert given == set().union(*reads.values()), (name, given)


def _readme_rows() -> list[list[str]]:
    """The cells of each README table row that starts with a backquoted name."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(path, encoding="utf-8") as fh:
        return [[c.strip() for c in line.split("|")[1:-1]] for line in fh
                if line.startswith("| `")]


def test_readme_tables_name_the_registry_hypotheses():
    rows = _readme_rows()
    for name, spec in CHECKS.items():
        listed = ", ".join(f"`{h}`" for h in spec.hypotheses) or "none"
        assert [f"`{name}`", listed] in rows, name
    for target, (check_name, hypothesis, _) in _ABLATIONS.items():
        assert [f"`{target}`", f"`{check_name}`", f"`{hypothesis}`"] in rows, target


def test_hypothesis_error_pickles_with_its_names():
    # a pool worker's error reaches the parent pickled
    err = pickle.loads(pickle.dumps(HypothesisError("check_cfl: hypotheses fail: rho_positive",
                                                    ("rho_positive",))))
    assert err.hypotheses == ("rho_positive",)
    assert str(err) == "check_cfl: hypotheses fail: rho_positive"
