"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """A parameter or parameter combination is invalid."""


class ProtocolError(RuntimeError):
    """The peer sent something the session state machine cannot accept."""


class TransportError(RuntimeError):
    """The channel was used after close or a receive could not complete."""


class DecodeError(ValueError):
    """A wire message could not be decoded; the message names the bad field."""


class TreeStructureError(ValueError):
    """An interval does not lie on the dyadic split lattice of a parity tree."""


class SyndromeConflictError(TreeStructureError):
    """Two different parities were recorded for one interval in the same round."""
