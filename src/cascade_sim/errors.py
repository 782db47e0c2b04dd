"""Exception types shared across the simulator."""


class CascadeError(Exception):
    """Base of every error the simulator raises for bad input or a bad peer."""


class ConfigurationError(CascadeError, ValueError):
    """A parameter or parameter combination is invalid."""


class ProtocolError(CascadeError, RuntimeError):
    """The peer sent something the session state machine cannot accept."""


class TransportError(CascadeError, RuntimeError):
    """The channel was used after close or a receive could not complete."""


class DecodeError(CascadeError, ValueError):
    """A wire message could not be decoded; the message names the bad field."""


class TreeStructureError(CascadeError, ValueError):
    """An interval does not lie on the dyadic split lattice of a parity tree."""


class SyndromeConflictError(TreeStructureError):
    """Two different parities were recorded for one interval in the same round."""
