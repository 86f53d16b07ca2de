"""Exception types raised by scenario loading, simulation, and analysis."""


class MesosimError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateNode(MesosimError):
    """Two node rows share the same name."""


class UnknownNode(MesosimError):
    """A link or demand references a node name that does not exist."""


class ValidationError(MesosimError):
    """A field value violates a scenario invariant."""


class ParseError(ValidationError):
    """A CSV row could not be read or built into a spec. Carries the 1-based data row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class UnreachableDemand(MesosimError):
    """No path exists from a demand's origin to its destination."""


class ConsistencyError(MesosimError):
    """Internal state violated a simulation invariant; indicates an engine bug."""


class UnknownLink(MesosimError):
    """An analysis request names a link that is not in the network."""


class DisconnectedPath(MesosimError):
    """A link sequence given as a corridor does not form a connected path."""
