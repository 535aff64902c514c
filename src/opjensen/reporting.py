"""Check reports, their wire format, and the reader of every JSON input.

One CheckReport per verification trial. Reports serialize to JSON objects
with sorted keys and repr-roundtrip floats, so identical trials produce
byte-identical JSON Lines. Complex scalars serialize as [re, im] pairs and
matrices as row-major nested arrays of such pairs; failure witnesses carry
every input needed to replay the trial bit-exactly. A failing report made by
a check keeps its inputs and encodes them as the witness only when the
witness is first read or written, and then only once. `read_json` types a
campaign config and a report as `JSON_SHAPES` says, and a witness's inputs
as the rows of `jensen_checks._FIELDS` say.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable

import numpy as np


def encode_matrix(m: np.ndarray) -> list:
    """A vector or matrix as nested [re, im] pairs of Python floats."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


_PAIRS = "a vector or matrix of [re, im] pairs of numbers"


def decode_matrix(obj, name: str = "matrix payload") -> np.ndarray:
    """A vector or matrix from nested [re, im] pairs of JSON numbers (not bools,
    strings or nulls); a ValueError names `name`, and a bad entry if there is one."""
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be {_PAIRS} ({exc})") from None
    if arr.ndim not in (2, 3) or arr.shape[-1] != 2:
        raise ValueError(f"{name} must be {_PAIRS}, got a payload of shape {arr.shape}")
    # The entries' types in one pass at C speed; only a bad one is looked for.
    entries = list(chain.from_iterable(obj if arr.ndim == 2 else chain.from_iterable(obj)))
    types = set(map(type, entries))
    if bool in types or not all(issubclass(t, (int, float)) for t in types):
        bad = next(v for v in entries if isinstance(v, bool) or not isinstance(v, (int, float)))
        raise ValueError(f"{name} must be {_PAIRS}, got the entry {bad!r}")
    return arr[..., 0] + 1j * arr[..., 1]


# The JSON shape of every outside input, as `read_json` reads it: `int` an
# integral number read as an int (2.0 reads as 2; a float of magnitude 2**53
# or more is refused), `float` a number read as a float, `numbers.Real` a
# number kept as written, `bool`, `str`, `dict` and `list` a JSON boolean,
# string, object and list, `np.ndarray` a matrix payload read by
# `decode_matrix`; [s] is a list of s, (s, ...) a list of that length, {key:
# s} an object. A witness's inputs have the shapes of `jensen_checks._FIELDS`.
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
}

_NOUNS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          numbers.Real: ("a number", "numbers"), bool: ("a JSON boolean", "JSON booleans"),
          str: ("a JSON string", "strings"), dict: ("a JSON object", "JSON objects"),
          list: ("a JSON list", "JSON lists"),
          np.ndarray: (_PAIRS, "vectors or matrices of [re, im] pairs of numbers")}
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
    out = _converted(value, shape, name)
    if out is _WRONG:
        # A field of strings is named in quotes, as its value would be.
        label = repr(name) if shape in (str, [str]) else name
        raise ValueError(f"{label} must be {_describe(shape)}, got {value!r}")
    return out


def _converted(value, shape, name: str):
    """`value` as the shape of a list or a scalar says, or _WRONG; a matrix
    payload is read, or refused, by `decode_matrix` under `name`."""
    if isinstance(shape, (list, tuple)):  # a tuple is a list, as json writes it
        if not isinstance(value, (list, tuple)) or (
                isinstance(shape, tuple) and len(value) != len(shape)):
            return _WRONG
        items = [_converted(v, s, name) for v, s in zip(
            value, shape * len(value) if isinstance(shape, list) else shape)]
        if any(item is _WRONG for item in items):
            return _WRONG
        return items if isinstance(shape, list) else tuple(items)
    if shape is np.ndarray:
        return decode_matrix(value, name)
    if shape in (int, float, numbers.Real):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                shape is int and isinstance(value, float)
                and not (value.is_integer() and abs(value) < 2 ** 53)):
            return _WRONG
        return value if shape is numbers.Real else shape(value)
    return value if isinstance(value, shape) else _WRONG  # bool, str, dict or list


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
        out = {"check_name": self.check_name, "seed": int(self.seed), "params": self.params,
               "lhs": float(self.lhs), "rhs": float(self.rhs), "gap": float(self.gap),
               "tol": float(self.tol), "pass": bool(self.passed)}
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
