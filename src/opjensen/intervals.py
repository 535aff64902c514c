"""Real intervals with explicit endpoint-openness, used for spectral windows
and scalar-function domains."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, lo_open=False, hi_open=False)

    @classmethod
    def half_open(cls, lo: float, hi: float) -> "Interval":
        """[lo, hi) — the convention used for monotone pieces."""
        return cls(lo, hi, lo_open=False, hi_open=True)

    @classmethod
    def greater_than(cls, s: float) -> "Interval":
        """(s, +inf), the window defining spectral counting functions."""
        return cls(s, math.inf, lo_open=True, hi_open=True)

    @classmethod
    def at_least(cls, s: float) -> "Interval":
        """[s, +inf)."""
        return cls(s, math.inf, lo_open=False, hi_open=True)

    @classmethod
    def real_line(cls) -> "Interval":
        return cls()

    def contains(self, t: float) -> bool:
        if t < self.lo or (t == self.lo and self.lo_open):
            return False
        if t > self.hi or (t == self.hi and self.hi_open):
            return False
        return True

    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def finite_endpoints(self) -> tuple[float, ...]:
        return tuple(e for e in (self.lo, self.hi) if math.isfinite(e))

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


REAL_LINE = Interval.real_line()
