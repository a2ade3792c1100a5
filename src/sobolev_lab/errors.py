"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A structural precondition (orthogonality, bandlimit, axis match) fails."""


class ComputationError(RuntimeError):
    """A numerical routine failed to produce a trustworthy value."""


class DegenerateInputError(ValueError):
    """The input sits on a degenerate locus where the quantity is undefined."""


class InconsistencyError(RuntimeError):
    """Two independent routes to the same quantity disagree beyond tolerance."""


def check_seed(seed: int) -> None:
    """Refuse a negative seed, on which numpy would raise a bare ValueError."""
    if seed < 0:
        raise DomainError("seed must be nonnegative, got %r" % (seed,))
