"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class FloorsumError(Exception):
    """Base class for all package errors."""


class DomainError(FloorsumError, ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetExceededError(FloorsumError, RuntimeError):
    """A computation would exceed the configured term or memory budget."""


def charge(need: int, budget: int, what: str) -> None:
    """Refuse need units of work, what names them, when need > budget.

    The one budget check of the package: every caller charges before it
    allocates or computes anything.
    """
    if need > budget:
        raise BudgetExceededError(f"{need} {what} exceed budget {budget}")


class InfeasibleBoxError(DomainError):
    """A box constraint with lower bound above its upper bound."""


class BracketTooWideError(FloorsumError, RuntimeError):
    """A constant bracket is too wide for the requested error resolution."""
