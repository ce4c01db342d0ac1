"""Shared exception types, and the one rule that reads a count."""

from operator import index


class ParameterError(ValueError):
    """A caller-supplied value violates a documented precondition: every
    refusal of a caller value, the linear-algebra ones below included."""


class ValidationError(ParameterError):
    """Scheme parameters rejected at construction.

    ``reason`` is a stable machine-readable tag (e.g. ``"rate_bound"``,
    ``"packet_length"``) so callers can map rejections to exit codes or
    assertions without parsing the message.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class SingularMatrixError(ParameterError):
    """Matrix has no (left) inverse of the requested kind."""


class InconsistentSystemError(ParameterError):
    """Linear system has no solution."""


class UnderdeterminedSystemError(ParameterError):
    """Linear system has more than one solution."""


class BudgetExceededError(RuntimeError):
    """A request would exceed its work budget.

    Raised *before* any work is done; this is a refusal, not a failure
    verdict. ``needed`` carries the exact count, in ``unit`` (cases
    unless said otherwise), that the request would have taken.
    """

    def __init__(self, needed: int, budget: int, what: str = "enumeration",
                 unit: str = "cases"):
        super().__init__(
            f"{what} needs {needed} {unit}, exceeding the budget of {budget}; "
            f"raise the budget to at least {needed} to run it"
        )
        self.needed = needed
        self.budget = budget


def check_budget(needed: int, budget: int, what: str, unit: str = "cases"):
    """Refuse, before any work, a request that needs more than `budget`."""
    if needed > budget:
        raise BudgetExceededError(needed, budget, what, unit)


def read_count(value, name: str, low: int | None = 0, high: int | None = None) -> int:
    """The count `value` as an int in low..high (a bound of None is open),
    else a ParameterError: a float or None is refused, not truncated."""
    try:
        value = index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ParameterError(f"{name} = {value} must be {bounds}")
    return value
