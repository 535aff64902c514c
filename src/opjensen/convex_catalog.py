"""Catalog of scalar test functions with convexity metadata, plus a sampled
operator-convexity checker.

Operator-convexity flags record standard facts (t^2 and t^p for p in [1, 2]
are operator convex; |t|, t^4, exp are convex but not operator convex) and
are defended numerically by check_operator_convex rather than proved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownFunctionError
from .intervals import Interval, REAL_LINE
from .linalg_core import (
    hermitian_eig,
    hermitian_eigvals,
    matrix_function,
    random_hermitian,
    rng_stream,
)

__all__ = [
    "ScalarFunction",
    "get_function",
    "catalog_names",
    "parse_function_spec",
    "check_operator_convex",
    "OperatorConvexityReport",
]

_POSITIVE_AXIS = Interval.at_least(0.0)
_STRICT_POSITIVE = Interval.greater_than(0.0)


@dataclass(frozen=True)
class ScalarFunction:
    name: str
    params: tuple[float, ...]
    fn: Callable[[float], float]
    domain: Interval
    is_convex: bool
    is_operator_convex: bool
    vanishes_at_zero: bool
    # Coefficients, lowest degree first, when fn is this polynomial on the
    # whole real line; matrix_function then skips the eigensolve. Leave None
    # on a smaller domain: its domain check needs the spectrum.
    poly: tuple[float, ...] | None = None

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    def __reduce__(self):
        # Pickles as its catalog key: `fn` is a closure, which pickle cannot
        # carry, and `get_function` rebuilds it.
        return get_function, (self.name, self.params)

    @property
    def label(self) -> str:
        """Stable identifier, e.g. 'hinge:0' or 'square'."""
        if not self.params:
            return self.name
        return self.name + ":" + ",".join(repr(p) for p in self.params)

    def defined_at_zero(self) -> bool:
        return self.domain.contains(0.0)


def _xlogx(t: float) -> float:
    return 0.0 if t == 0.0 else t * math.log(t)


def _square():
    return ScalarFunction(
        "square", (), lambda t: t * t, REAL_LINE, True, True, True, poly=(0.0, 0.0, 1.0)
    )


def _abs():
    return ScalarFunction("abs", (), abs, REAL_LINE, True, False, True)


def _quartic():
    return ScalarFunction(
        "quartic", (), lambda t: t ** 4, REAL_LINE, True, False, True,
        poly=(0.0, 0.0, 0.0, 0.0, 1.0),
    )


def _exp():
    return ScalarFunction("exp", (), math.exp, REAL_LINE, True, False, False)


def _hinge(c):
    return ScalarFunction(
        "hinge", (c,), lambda t: max(t - c, 0.0), REAL_LINE, True, False,
        vanishes_at_zero=(c >= 0.0),
    )


def _shifted_square(c):
    return ScalarFunction(
        "shifted_square", (c,), lambda t: t * t + c, REAL_LINE, True, True,
        vanishes_at_zero=(c == 0.0), poly=(c, 0.0, 1.0),
    )


def _entropy():
    return ScalarFunction("entropy", (), _xlogx, _POSITIVE_AXIS, True, True, True)


def _inv():
    return ScalarFunction("inv", (), lambda t: 1.0 / t, _STRICT_POSITIVE, True, True, False)


def _neglog():
    return ScalarFunction(
        "neglog", (), lambda t: -math.log(t), _STRICT_POSITIVE, True, True, False
    )


def _power(p):
    if p < 1.0:
        raise UnknownFunctionError(f"power exponent must be >= 1 (t^p is not convex below), got {p}")
    return ScalarFunction(
        "power", (p,), lambda t: t ** p, _POSITIVE_AXIS, True,
        is_operator_convex=(1.0 <= p <= 2.0),
        vanishes_at_zero=True,
    )


def _linear(alpha):
    return ScalarFunction(
        "linear", (alpha,), lambda t: alpha * t, REAL_LINE, True, True, True, poly=(0.0, alpha)
    )


def _const(c):
    return ScalarFunction(
        "const", (c,), lambda t: c, REAL_LINE, True, True, vanishes_at_zero=(c == 0.0),
        poly=(c,),
    )


# Each name's factory and the defaults of its parameters, in order; None
# marks a parameter the spec must give.
_CATALOG: dict[str, tuple[Callable[..., ScalarFunction], tuple[float | None, ...]]] = {
    "square": (_square, ()),
    "abs": (_abs, ()),
    "quartic": (_quartic, ()),
    "exp": (_exp, ()),
    "hinge": (_hinge, (0.0,)),
    "shifted_square": (_shifted_square, (None,)),
    "entropy": (_entropy, ()),
    "inv": (_inv, ()),
    "neglog": (_neglog, ()),
    "power": (_power, (None,)),
    "linear": (_linear, (1.0,)),
    "const": (_const, (None,)),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


class _BadParameters(UnknownFunctionError):
    """A catalog function given a parameter that is not a finite real number."""


def get_function(name: str, params: tuple[float, ...] | list[float] = ()) -> ScalarFunction:
    """Catalog function `name`, omitted trailing parameters set to their
    defaults. A parameter that is not a finite real number (a bool or a
    string is not), too many, or a missing required one is an
    UnknownFunctionError."""
    try:
        factory, defaults = _CATALOG[name]
    except KeyError:
        raise UnknownFunctionError(
            f"unknown function {name!r}; valid names: {', '.join(catalog_names())}"
        ) from None
    if not all(isinstance(p, numbers.Real) and not isinstance(p, bool) and math.isfinite(p)
               for p in params):
        raise _BadParameters(
            f"function {name!r}: parameters must be finite real numbers, got {list(params)!r}")
    given = tuple(float(p) for p in params)
    full = given + defaults[len(given):]
    if len(given) > len(defaults) or None in full:
        raise UnknownFunctionError(
            f"function {name!r} takes {len(defaults)} parameter(s), got {len(given)}")
    return factory(*full)


def parse_function_spec(spec: str) -> ScalarFunction:
    """Parse 'name' or 'name:p1[,p2...]' as used in CLI flags and configs;
    an error in a parameter quotes the whole spec."""
    name, _, tail = spec.partition(":")
    try:
        return get_function(name.strip(), [float(p) for p in tail.split(",")] if tail else [])
    except (ValueError, _BadParameters):
        raise UnknownFunctionError(f"function spec {spec!r}: parameters must be finite") from None


# ---------------------------------------------------------------------------
# Sampled operator-convexity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorConvexityReport:
    verdict: str  # "no_violation_found" | "violation"
    min_eigenvalue: float | None = None
    witness_a: np.ndarray | None = None
    witness_b: np.ndarray | None = None
    trial: int | None = None

    @property
    def found_violation(self) -> bool:
        return self.verdict == "violation"


def _sampling_box(domain: Interval) -> tuple[float, float]:
    """Compact spectrum box inside the domain, 0.2 away from open endpoints;
    5 wide, or [-2.5, 2.5], where the domain is unbounded."""
    lo_finite = math.isfinite(domain.lo)
    hi_finite = math.isfinite(domain.hi)
    lo = domain.lo + (0.2 if domain.lo_open else 0.0) if lo_finite else -2.5
    hi = domain.hi - (0.2 if domain.hi_open else 0.0) if hi_finite else 2.5
    if lo_finite and not hi_finite:
        hi = lo + 5.0
    elif hi_finite and not lo_finite:
        lo = hi - 5.0
    if lo >= hi:
        raise ValueError(f"domain {domain} leaves no room to sample")
    return lo, hi


def _clipped_pair(m: np.ndarray, f: ScalarFunction, lo: float, hi: float):
    """(matrix with clipped spectrum, f of it, max |f| over its spectrum)."""
    dec = hermitian_eig(m)
    w = np.clip(dec.eigenvalues, lo, hi)
    fw = np.array([f(float(t)) for t in w])
    return dec.with_eigenvalues(w), dec.with_eigenvalues(fw), float(np.max(np.abs(fw)))


def check_operator_convex(
    f: ScalarFunction,
    dim: int,
    trials: int,
    seed: int,
) -> OperatorConvexityReport:
    """Random search for midpoint violations of operator convexity.

    Draws Hermitian pairs with spectra clipped into f's domain and tests the
    lam = 1/2 Loewner inequality; midpoint operator convexity plus continuity
    already implies the full property, so lam is fixed at 1/2.
    """
    rng = rng_stream(seed)
    lo, hi = _sampling_box(f.domain)
    for trial in range(trials):
        a, fa, top_a = _clipped_pair(random_hermitian(dim, rng), f, lo, hi)
        b, fb, top_b = _clipped_pair(random_hermitian(dim, rng), f, lo, hi)
        fmid = matrix_function(0.5 * (a + b), f)
        delta = 0.5 * (fa + fb) - fmid
        lam_min = float(hermitian_eigvals(delta)[0])
        scale = max(1.0, top_a, top_b)
        if lam_min < -1e-9 * scale:
            return OperatorConvexityReport(
                verdict="violation",
                min_eigenvalue=lam_min,
                witness_a=a,
                witness_b=b,
                trial=trial,
            )
    return OperatorConvexityReport(verdict="no_violation_found")
