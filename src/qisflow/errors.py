"""Exception hierarchy shared across the package."""


class QisflowError(Exception):
    """Base class for all package errors."""


class ContractError(QisflowError):
    """An argument violates a documented precondition (shape, symmetry, range)."""


class ParamError(ContractError):
    """An integration parameter is invalid: ``reason`` says what is wrong with
    the fields ``names``."""

    def __init__(self, names, reason):
        self.names, self.reason = names, reason
        super().__init__(self.labelled(str))

    def labelled(self, label) -> str:
        """The message with each field written as ``label(name)``, so that a
        reader of files or flags can name where the value came from."""
        return " / ".join(map(label, self.names)) + " " + self.reason


class RegularityError(QisflowError):
    """A state left the regular domain (eigenvalue/coordinate at or below the floor,
    rank deficiency)."""


class NumericError(QisflowError):
    """A numeric computation failed (non-finite values, eigensolver breakdown).

    ``last_state`` carries the last valid state when an integration blows up.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state
