"""Exception types shared across the package."""


class TelegateError(Exception):
    """Base class for package-specific failures."""


class LocalityViolation(TelegateError):
    """A party attempted to operate on a qubit it does not hold."""


class MissingMessage(TelegateError):
    """A conditional operation tried to read a bit that was never delivered."""


class InvolutionRequired(TelegateError):
    """The series simultaneous protocol demands an involutory payload."""


class TopologyMismatch(TelegateError):
    """A protocol was launched on a network with the wrong entanglement layout."""


class ImpossibleBranchError(TelegateError):
    """A forced measurement outcome has (numerically) zero probability."""
