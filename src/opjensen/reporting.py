"""Check reports and their wire format.

One CheckReport per verification trial. Reports serialize to JSON objects
with sorted keys and repr-roundtrip floats, so identical trials produce
byte-identical JSON Lines. Complex scalars serialize as [re, im] pairs and
matrices as row-major nested arrays of such pairs; failure witnesses carry
every input needed to replay the trial bit-exactly. A failing report made by
a check keeps its inputs and encodes them as the witness only when the
witness is first read or written, and then only once.
"""

from __future__ import annotations

import json
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


# Readers of JSON scalars, shared by the campaign config and the witness
# codec: each refuses a value of the wrong JSON type with a ValueError.
def _integer(value, what: str) -> int:
    """int(value) of a JSON number, refusing a bool, a string or a fractional
    number it would truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a JSON boolean, got {value!r}")
    return value


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
        return cls(
            check_name=obj["check_name"],
            seed=int(obj["seed"]),
            params=dict(obj.get("params", {})),
            lhs=float(obj["lhs"]),
            rhs=float(obj["rhs"]),
            gap=float(obj["gap"]),
            tol=float(obj["tol"]),
            passed=bool(obj["pass"]),
            witness=obj.get("witness"),
        )
