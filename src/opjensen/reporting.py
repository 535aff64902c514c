"""Check reports, their wire format, and the reader of every JSON input.

One CheckReport per verification trial. Reports serialize to JSON objects
with sorted keys and repr-roundtrip floats, so identical trials produce
byte-identical JSON Lines. Complex scalars serialize as [re, im] pairs and
matrices as row-major nested arrays of such pairs; failure witnesses carry
every input needed to replay the trial bit-exactly. A failing report made by
a check keeps its inputs and encodes them as the witness only when the
witness is first read or written, and then only once. `read_json` types a
campaign config, a report and a witness's inputs as `JSON_SHAPES` says.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


def encode_matrix(m: np.ndarray) -> list:
    """A vector or matrix as nested [re, im] pairs of Python floats."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def decode_matrix(obj) -> np.ndarray:
    """A vector or matrix from its nested [re, im] pairs."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-1] != 2:
        raise ValueError(f"cannot decode matrix payload of shape {arr.shape}: need [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


# The JSON shape of every outside input, as `read_json` reads it: `int` is an
# integral number read as an int (2.0 reads as 2), `float` a number read as a
# float, `numbers.Real` a number kept as written, `bool` and `str` a JSON
# boolean and string, `dict` any object; [s] is a list of s, (s, ...) a list
# of that length, {key: s} an object. A key not listed is read elsewhere: a
# matrix payload by `decode_matrix`, function parameters by `get_function`.
JSON_SHAPES: dict[str, dict] = {
    "config": {
        "checks": [str], "trials": int, "dims": [(int, int)], "functions": [str],
        "map_kinds": [str], "weights": [(float, float)], "master_seed": int,
        "tolerances": {"atol": float, "rtol": float, "eig_cluster_tol": float},
        "out_path": str,
    },
    "report": {
        "check_name": str, "seed": int, "params": dict, "lhs": float, "rhs": float,
        "gap": float, "tol": float, "pass": bool, "witness": dict,
    },
    # The keys of `jensen_checks._FIELDS`; every other input is a matrix.
    "witness inputs": {
        "function": {"name": str},
        "map": {"kind": str, "in_dim": int, "out_dim": int, "claimed_positive": bool},
        "d1": int, "d2": int, "w1": float, "w2": float, "branch": str,
        "algebra": {"block_dims": [int], "trace_weights": [float]},
        "piece": {"lo": numbers.Real, "hi": numbers.Real, "lo_open": bool, "hi_open": bool},
        "tol": (numbers.Real,) * 3,
        "enforce_hypotheses": bool,
    },
}

_NOUNS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          numbers.Real: ("a number", "numbers"), bool: ("a JSON boolean", "JSON booleans"),
          str: ("a JSON string", "strings"), dict: ("a JSON object", "JSON objects")}
_WRONG = object()  # what `_converted` returns for a value of the wrong JSON type


def _describe(shape, plural: bool = False) -> str:
    if not isinstance(shape, (list, tuple)):
        return _NOUNS[shape][plural]
    length = f"{len(shape)} " if isinstance(shape, tuple) else ""
    return f"{'JSON lists' if plural else 'a JSON list'} of {length}{_describe(shape[0], True)}"


def read_json(value, shape, name: str, closed: bool = False):
    """`value` read as `shape`, a `JSON_SHAPES` entry: numbers converted as
    the shape says, fixed-length lists as tuples, all else as written. An
    object's unlisted keys are kept unread, or refused when `closed`. A value
    of the wrong JSON type is a ValueError naming its innermost key."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object, got {value!r}")
        unknown = closed and sorted(value.keys() - shape.keys())
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))} in {name}")
        return {key: read_json(v, shape[key], key, closed) if key in shape else v
                for key, v in value.items()}
    out = _converted(value, shape)
    if out is _WRONG:
        # A field of strings is named in quotes, as its value would be.
        label = repr(name) if shape in (str, [str]) else name
        raise ValueError(f"{label} must be {_describe(shape)}, got {value!r}")
    return out


def _converted(value, shape):
    """`value` as the shape of a list or a scalar says, or _WRONG."""
    if isinstance(shape, (list, tuple)):  # a tuple is a list, as json writes it
        if not isinstance(value, (list, tuple)) or (
                isinstance(shape, tuple) and len(value) != len(shape)):
            return _WRONG
        items = [_converted(v, s) for v, s in zip(
            value, shape * len(value) if isinstance(shape, list) else shape)]
        if any(item is _WRONG for item in items):
            return _WRONG
        return items if isinstance(shape, list) else tuple(items)
    if shape in (int, float, numbers.Real):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                shape is int and isinstance(value, float) and not value.is_integer()):
            return _WRONG
        return value if shape is numbers.Real else shape(value)
    return value if isinstance(value, shape) else _WRONG  # bool, str or dict


class _EncodedOnRead:
    """Field descriptor: a zero-argument callable stored in the field is
    called on the first read, and its result replaces it."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value


def _json_default(value: Any) -> Any:
    """What json cannot write itself, in params or a witness: a complex
    scalar as [re, im], an array as `encode_matrix` writes it, and a numpy
    integer or float as the Python number."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return encode_matrix(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class CheckReport:
    """Outcome of one verification trial.

    `gap` is rhs - lhs and `passed` is gap >= -tol for the one-sided
    inequality checks. Equality-style checks (the partial-trace duality) and
    indicator-style checks (pre-order assertions) store the absolute
    discrepancy / failed-assertion count in `lhs` with rhs = 0, which keeps
    the same pass criterion; params then carry the underlying values.

    A check leaves `seed` at 0; the trial drivers stamp the seed of the
    trial's random stream, and add labels such as the trial index to
    `params`. `params` is written as it is: complex numbers as [re, im] and
    arrays as nested [re, im] pairs.

    `witness` is None on a passing report and on a failing one the encoded
    inputs, JSON values only, written as they are. It may be given as a
    zero-argument callable returning that dict, which runs on first read.
    """

    check_name: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    lhs: float = 0.0
    rhs: float = 0.0
    gap: float = 0.0
    tol: float = 0.0
    passed: bool = True
    witness: dict | Callable[[], dict] | None = _EncodedOnRead()

    def to_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "seed": int(self.seed),
            "params": self.params,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "gap": float(self.gap),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def to_json_line(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=_json_default
        )

    @classmethod
    def from_dict(cls, obj: dict) -> "CheckReport":
        """The report `to_dict` wrote, its fields typed by `read_json`."""
        d = read_json(obj, JSON_SHAPES["report"], "report")
        return cls(d["check_name"], d["seed"], dict(d.get("params", {})), d["lhs"], d["rhs"],
                   d["gap"], d["tol"], d["pass"], d.get("witness"))
