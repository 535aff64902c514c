"""Report wire format: the matrix codec, when witnesses are encoded, and the
reader of JSON inputs."""

import json

import numpy as np
import pytest

from opjensen import jensen_checks
from opjensen.jensen_checks import CheckSpec, ablation_search, replay_report
from opjensen.reporting import JSON_SHAPES, CheckReport, decode_matrix, encode_matrix, read_json

# The shape of every witness key a codec row declares; matrices are no row.
WITNESS_INPUTS = {key: shape for row in jensen_checks._FIELDS.values()
                  for key, shape in row[2].items()}


def _reference_encode(m) -> list:
    """The per-element codec: [re, im] of each entry, as Python floats."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        return [[complex(z).real, complex(z).imag] for z in a]
    return [[[complex(z).real, complex(z).imag] for z in row] for row in a]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("m", [
    np.array([[-0.0, 0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]]),
    np.array([[5e-324, -5e-324j], [complex(5e-324, 1e308), -1e308]]),
    np.array([[1e308, -1e308], [1e308j, complex(-1e308, 1e308)]]),
    np.array([[1.0, 2.5], [-3.0, 0.1]]),                    # real dtype
    np.array([[1, -2], [3, 4]]),                            # integer dtype
    np.array([0.1 + 0.2j, -0.0, 7e-300 - 3j]),              # vector
    np.array([-0.0 + 0.0j]),                                # 1-vector
    np.array([[complex(-0.0, 5e-324)]]),                    # 1x1
    np.array([[2.0]]),                                      # real 1x1
    np.random.default_rng(5).standard_normal((7, 7, 2)) @ [1, 1j],
], ids=["signed_zeros", "subnormal", "huge", "real", "int", "vector", "vector1",
        "one_by_one", "real_one_by_one", "random"])
def test_encode_matrix_matches_per_element_reference(m):
    got = encode_matrix(m)
    want = _reference_encode(m)
    assert _dumps(got) == _dumps(want)
    # the same values with the same signs, as Python floats
    assert repr(got) == repr(want)
    np.testing.assert_array_equal(decode_matrix(got), np.asarray(m, dtype=np.complex128))


@pytest.mark.parametrize("entry", ["0.5", True, False, None], ids=["string", "true", "false", "null"])
def test_decode_matrix_refuses_an_entry_that_is_not_a_json_number(entry):
    # numpy read "0.5" as 0.5, true as 1.0 and null as nan
    for payload in ([[[1.0, 0.0], [entry, 0.0]]], [[0, 1], [2.5, entry]]):
        with pytest.raises(ValueError) as err:
            decode_matrix(payload, "H")
        assert str(err.value) == (
            f"H must be a vector or matrix of [re, im] pairs of numbers, got the entry {entry!r}")
    # ints and floats, numpy's float subclass too, are numbers
    np.testing.assert_array_equal(decode_matrix([[[1, 0], [np.float64(0.5), -2]]]),
                                  [[1, 0.5 - 2j]])


def test_an_integer_shape_refuses_a_float_of_magnitude_2_pow_53():
    # such a float is no integer written exactly: 1e300 read as 10**300
    assert read_json(2.0 ** 53 - 1, int, "trials") == 2 ** 53 - 1
    assert read_json(2 ** 64, int, "seed") == 2 ** 64
    for value in (2.0 ** 53, -(2.0 ** 53), 1e300):
        with pytest.raises(ValueError, match="trials must be an integer"):
            read_json(value, int, "trials")


@pytest.fixture
def encodes(monkeypatch):
    """Count CheckSpec.encode calls, by check name."""
    calls: list[str] = []
    original = CheckSpec.encode

    def counted(self, inputs):
        calls.append(self.name)
        return original(self, inputs)

    monkeypatch.setattr(CheckSpec, "encode", counted)
    return calls


def test_ablation_search_encodes_only_the_written_witness(encodes):
    for target in jensen_checks.ABLATION_TARGETS:
        ablation_search(target, 6, [2, 3], 4)
    res = ablation_search("drop_positivity", 12, [2, 3, 4], 1)
    assert res.witness is not None
    assert encodes == []
    line = res.witness.to_json_line()
    assert encodes == ["check_petz"]
    # encoded once: reading and writing again reuse it
    assert res.witness.to_json_line() == line
    assert res.witness.to_dict()["witness"] == json.loads(line)["witness"]
    assert res.witness.witness["inputs"]["map"]["kind"] == "nonpositive_unital"
    assert encodes == ["check_petz"]


def test_replay_report_encodes_nothing(encodes):
    line = ablation_search("petz_drop_f0", 3, [2, 3], 2).witness.to_json_line()
    del encodes[:]
    replayed = replay_report(json.loads(line))
    assert not replayed.passed
    assert encodes == []
    # the replayed report still writes its witness on demand, to the same bytes
    assert _dumps(replayed.to_dict()["witness"]) == _dumps(json.loads(line)["witness"])
    assert encodes == ["check_petz"]


def test_witness_given_as_dict_or_callable():
    assert CheckReport("check_cfl", 1).witness is None
    witness = {"inputs": {"x": encode_matrix(np.eye(2))}}
    calls = []
    deferred = CheckReport("check_cfl", 1, passed=False,
                           witness=lambda: calls.append(1) or witness)
    eager = CheckReport("check_cfl", 1, passed=False, witness=witness)
    assert calls == []
    assert deferred == eager
    assert deferred.to_json_line() == eager.to_json_line()
    assert calls == [1]


def test_numpy_scalars_in_a_witness_still_serialize():
    rep = CheckReport("check_cfl", np.int64(3), params={"k": np.int64(2)}, passed=False,
                      witness={"inputs": {"space": {"d1": np.int64(2), "d2": np.float64(0.5)}}})
    assert json.loads(rep.to_json_line())["witness"] == {
        "inputs": {"space": {"d1": 2, "d2": 0.5}}}
    with pytest.raises(TypeError, match="not JSON serializable"):
        CheckReport("check_cfl", 1, passed=False, witness={"inputs": object()}).to_json_line()


def test_params_write_complex_arrays_and_numpy_scalars():
    # one path from report to JSON: complex scalars as [re, im], arrays as
    # encode_matrix writes them, numpy numbers as Python numbers, nested too
    params = {
        "z": 1.5 - 0.25j,
        "m": np.array([[1.0, 2j], [-0.0, 0.1 - 3j]]),
        "k": np.int64(7),
        "x": np.float64(0.1),
        "pair": [np.complex128(complex(-0.0, 5e-324)), (2, np.float32(0.5))],
        "nested": {"w": [np.int64(-1), np.array([1.0, -2.5])]},
    }
    line = CheckReport("check_partial_trace_duality", params=params).to_json_line()
    assert line == (
        '{"check_name":"check_partial_trace_duality","gap":0.0,"lhs":0.0,"params":{'
        '"k":7,"m":[[[1.0,0.0],[0.0,2.0]],[[-0.0,0.0],[0.1,-3.0]]],'
        '"nested":{"w":[-1,[[1.0,0.0],[-2.5,0.0]]]},"pair":[[-0.0,5e-324],[2,0.5]],'
        '"x":0.1,"z":[1.5,-0.25]},"pass":true,"rhs":0.0,"seed":0,"tol":0.0}'
    )


def test_read_json_converts_numbers_as_their_shape_says():
    got = read_json({"d1": 2.0, "w1": 1, "tol": [0, 0, 1e-10], "x": [[[1, 0]]],
                     "piece": {"lo": 0, "hi": 1.5, "lo_open": False, "hi_open": True}},
                    WITNESS_INPUTS, "inputs")
    assert got == {"d1": 2, "w1": 1.0, "tol": (0, 0, 1e-10), "x": [[[1, 0]]],
                   "piece": {"lo": 0, "hi": 1.5, "lo_open": False, "hi_open": True}}
    # a dimension as an int, a weight as a float; tol and piece ends as given
    assert [type(got["d1"]), type(got["w1"]), type(got["tol"][0]), type(got["piece"]["lo"])] == [
        int, float, int, int]


@pytest.mark.parametrize("obj, message", [
    ({"d1": 2.5}, "d1 must be an integer, got 2.5"),
    ({"tol": [1e-9, 1e-9]}, "tol must be a JSON list of 3 numbers, got [1e-09, 1e-09]"),
    ({"branch": None}, "'branch' must be a JSON string, got None"),
    ({"map": {"in_dim": True}}, "in_dim must be an integer, got True"),
    ({"algebra": []}, "algebra must be a JSON object, got []"),
    ({"algebra": {"trace_weights": ["1"]}},
     "trace_weights must be a JSON list of numbers, got ['1']"),
])
def test_read_json_names_the_field_of_the_wrong_json_type(obj, message):
    with pytest.raises(ValueError) as err:
        read_json(obj, WITNESS_INPUTS, "inputs")
    assert str(err.value) == message


def test_read_json_refuses_unknown_keys_only_when_closed():
    shape = JSON_SHAPES["config"]
    assert read_json({"checks": [], "dim": 1}, shape, "config") == {"checks": [], "dim": 1}
    with pytest.raises(ValueError, match="unknown key\\(s\\) 'dim' in config"):
        read_json({"checks": [], "dim": 1}, shape, "config", closed=True)
    with pytest.raises(ValueError) as err:
        read_json({"dims": [[2, 2, 2]]}, shape, "config", closed=True)
    assert str(err.value) == "dims must be a JSON list of JSON lists of 2 integers, got [[2, 2, 2]]"


@pytest.mark.parametrize("key, value", [
    ("seed", "7"), ("pass", "false"), ("pass", 0), ("lhs", None), ("check_name", 1),
])
def test_report_fields_of_the_wrong_json_type_are_refused(key, value):
    # int("7") and bool("false") read the first two as seed 7 and a PASS
    obj = dict(CheckReport("check_cfl", seed=3).to_dict(), **{key: value})
    with pytest.raises(ValueError, match=f"{key}'? must be"):
        CheckReport.from_dict(obj)
