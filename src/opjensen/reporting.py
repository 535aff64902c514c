"""Check reports and their wire format.

One CheckReport per verification trial. Reports serialize to JSON objects
with sorted keys and repr-roundtrip floats, so identical trials produce
byte-identical JSON Lines. Complex scalars serialize as [re, im] pairs and
matrices as row-major nested arrays of such pairs; failure witnesses carry
every input needed to replay the trial bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        return [encode_complex(z) for z in a]
    return [[encode_complex(z) for z in row] for row in a]


def decode_matrix(obj) -> np.ndarray:
    """A vector or matrix from its nested [re, im] pairs."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-1] != 2:
        raise ValueError(f"cannot decode matrix payload of shape {arr.shape}: need [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return encode_matrix(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return encode_complex(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class CheckReport:
    """Outcome of one verification trial.

    `gap` is rhs - lhs and `passed` is gap >= -tol for the one-sided
    inequality checks. Equality-style checks (the partial-trace duality) and
    indicator-style checks (pre-order assertions) store the absolute
    discrepancy / failed-assertion count in `lhs` with rhs = 0, which keeps
    the same pass criterion; params then carry the underlying values.
    """

    check_name: str
    seed: int
    params: dict = field(default_factory=dict)
    lhs: float = 0.0
    rhs: float = 0.0
    gap: float = 0.0
    tol: float = 0.0
    passed: bool = True
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "seed": int(self.seed),
            "params": _jsonable(self.params),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "gap": float(self.gap),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

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

    @classmethod
    def from_json_line(cls, line: str) -> "CheckReport":
        return cls.from_dict(json.loads(line))
