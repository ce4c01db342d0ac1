"""Shared exception types."""


class ParameterError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class ValidationError(ParameterError):
    """Scheme parameters rejected at construction.

    ``reason`` is a stable machine-readable tag (e.g. ``"rate_bound"``,
    ``"packet_length"``) so callers can map rejections to exit codes or
    assertions without parsing the message.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class SingularMatrixError(ValueError):
    """Matrix has no (left) inverse of the requested kind."""


class InconsistentSystemError(ValueError):
    """Linear system has no solution."""


class UnderdeterminedSystemError(ValueError):
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
