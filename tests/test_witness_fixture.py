"""Recorded failure witnesses, one per check, replay and re-encode unchanged,
and every witness codec row writes the keys its shape declares.

`data/witnesses.jsonl` holds one failing report line per check. The
duality line comes from `run_trial("check_partial_trace_duality",
cells[1 % len(cells)], 7, 1, ToleranceConfig(0, 0, 1e-10))` over the
`default_campaign()` cells: with zero tolerance, rounding alone decides it,
but that check has no hypothesis to break and runs no eigensolver. The
other eight are direct calls with one hypothesis broken and
`enforce_hypotheses=False`, at the default tolerances, failing far beyond
any rounding:
  * `check_cfl` with a trace-2 `rho` and `square`;
  * `check_main_tracial` with `exp` on the subnormalized branch;
  * `check_state_version` with `exp`, which is not operator convex;
  * `check_petz` with the zero map on M_2 and `shifted_square:1`, where
    f(0) = 1: lhs 2, rhs 0, a gap of exactly -2;
  * `check_vector_jensen` and `check_pinching_chain` with the same f and
    the zero map on M_2, x and xi drawn after it from `rng_stream(17)`:
    f(<Phi(x) xi, xi>) = f(0) = 1 against 0, a gap of exactly -1, and
    f(Phi(x)) = 1 against E(Phi(f(x))) = 0, which fails
    `preorder_positive_parts` and `trace_inequality`, a gap of -2;
  * `check_hansen_pedersen` with the same f, a = 0 (a contraction, not
    unitary, with f(0) = 1 > 0) and H = `random_hermitian(4,
    rng_stream(19))`: f(0) = 1 against (a* x 1) f(H) (a x 1) = 0, a
    minimum eigenvalue of exactly -1;
  * `check_spectral_preorder_lemma` with `random_positive_map(
    "nonpositive_unital", 2, 2, rng_stream(17))`, the next
    `random_hermitian(2, ...)` draw as x, `square` and a piece enclosing the
    whole spectrum of Phi(x): Phi(x^2) has eigenvalue -0.805, so both the
    compressed positivity and the pre-order assertion fail.
"""

import json
import os

import numpy as np
import pytest

from opjensen.jensen_checks import _FIELDS, CHECKS, _field, replay_report
from opjensen.reporting import read_json

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "witnesses.jsonl")
with open(FIXTURE, encoding="utf-8") as _fh:
    LINES = [ln for ln in _fh.read().splitlines() if ln]
IDS = [json.loads(ln)["check_name"] for ln in LINES]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _encoded(witness: dict) -> str:
    return json.dumps(witness, sort_keys=True, separators=(",", ":"))


def test_fixture_covers_every_check():
    assert sorted(IDS) == sorted(CHECKS)


@pytest.mark.parametrize("line", LINES, ids=IDS)
def test_witness_replays(line):
    original = json.loads(line)
    replayed = replay_report(original)
    assert not replayed.passed
    for a, b in ((replayed.lhs, original["lhs"]), (replayed.rhs, original["rhs"]),
                 (replayed.gap, original["gap"])):
        assert _close(a, b)


@pytest.mark.parametrize("line", LINES, ids=IDS)
def test_witness_reencodes_to_same_bytes(line):
    original = json.loads(line)
    got = replay_report(original).to_dict()["witness"]
    want = original["witness"]
    # A witness without the key was recorded with enforce_hypotheses=True;
    # re-encoding writes the key. A map recorded with the claim keys it no
    # longer has is written without them. Nothing else may change.
    want["inputs"].setdefault("enforce_hypotheses", True)
    for claim in ("claimed_unital", "claimed_contractive"):
        want["inputs"].get("map", {}).pop(claim, None)
    assert _encoded(got) == _encoded(want)


def test_every_check_argument_is_a_matrix_or_a_codec_row_true_to_its_shape():
    # An argument not in the table is a matrix. On each line a row writes the
    # keys its shape declares, no other, each of its declared JSON type; over
    # all lines every row is used, and an object row writes every key it
    # declares (a map "kraus" or "action").
    used = set()
    written: dict[tuple[str, str], set] = {}
    for line in LINES:
        rec = json.loads(line)
        spec = CHECKS[rec["check_name"]]
        inputs = spec.decode(rec["witness"]["inputs"])
        for arg in spec.args:
            if arg not in _FIELDS:
                assert isinstance(inputs[arg], np.ndarray) and inputs[arg].dtype == complex, arg
            encode, _, shape = _field(arg)
            out = encode(inputs[arg])
            assert out.keys() == shape.keys(), arg
            read_json(json.loads(json.dumps(out)), shape, arg, closed=True)
            used.add(arg)
            for key, s in shape.items():
                if isinstance(s, dict):
                    written.setdefault((arg, key), set()).update(out[key])
    assert used >= set(_FIELDS)
    for (arg, key), keys in written.items():
        assert keys == _field(arg)[2][key].keys(), (arg, key)
