"""Exception types shared across the package."""


class OpJensenError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(OpJensenError, ValueError):
    """Matrix or tensor-factor dimensions do not match the operation."""


class NonHermitianError(OpJensenError, ValueError):
    """Input claimed self-adjoint deviates from its adjoint beyond tolerance."""


class NumericError(OpJensenError, ArithmeticError):
    """A numerical routine failed to converge or produced non-finite values."""


class DomainError(OpJensenError, ValueError):
    """A spectral value falls outside the domain of a scalar function."""


class BoundaryAmbiguityError(OpJensenError, ArithmeticError):
    """An eigenvalue cluster straddles a spectral-interval endpoint.

    Callers should perturb the endpoint or resample the trial.
    """


class PartitionError(OpJensenError, ValueError):
    """A projection family is not a resolution of the identity."""


class ConvexityError(OpJensenError, ValueError):
    """A function claimed convex fails a sampled convexity test."""


class HypothesisError(OpJensenError, ValueError):
    """Inputs violate the hypotheses of the inequality being checked;
    `hypotheses` names the ones that fail."""

    def __init__(self, message: str, hypotheses: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.hypotheses = tuple(hypotheses)

    def __reduce__(self):
        # Pool workers pickle the error; the default would drop `hypotheses`.
        return type(self), (str(self), self.hypotheses)


class UnknownFunctionError(OpJensenError, KeyError):
    """Requested scalar function is not in the catalog."""

    # KeyError's str() quotes the message as if it were a key
    __str__ = Exception.__str__


class UsageError(OpJensenError, ValueError):
    """Invalid command-line arguments or campaign configuration."""


def require_within(name: str, value: int, least: int, most: int, error=UsageError) -> None:
    """Refuse, as `error` naming `name`, an integer outside least..most, in a short message."""
    if not least <= value <= most:
        shown = value if abs(value) < 10 ** 12 else f"an integer of {len(str(abs(value)))} digits"
        raise error(f"{name} must be from {least} to {most}, got {shown}")
