"""Dichotomic error search as an explicit request/response state machine.

The search owns no frame data and sends no messages itself; it only tracks
the shrinking interval.  At each step the caller must supply the local and
remote parity of the FIRST half of the current interval (the remote one is
the single bit that costs channel disclosure; the second half's parity is
implied and never transmitted).  A mismatch on the first half recurses
left, a match recurses right, and a one-position interval is a located
error.  Halving uses the same ``split_point`` as the parity trees, so every
interval the search touches is a tree lattice node.

A state is a named tuple, so a step costs one tuple.  ``pending_query``
names the next first half as a ``ParityQuery``; a caller that computes the
midpoint itself, as the engine's responder does, calls ``step`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import ConfigurationError, ProtocolError
from .paritytree import Interval, split_point


@dataclass(frozen=True)
class ParityQuery:
    """One remote parity the caller must obtain to advance a search."""

    interval: Interval
    round_index: int


class BinarySearchState(NamedTuple):
    """Immutable snapshot of one running (or finished) search."""

    lo: int
    hi: int
    round_index: int
    disclosed: int = 0
    found: Optional[int] = None

    @property
    def interval(self) -> Interval:
        return (self.lo, self.hi)

    @property
    def is_found(self) -> bool:
        return self.found is not None


def start(lo: int, hi: int, round_index: int = 0) -> BinarySearchState:
    """Begin a search on a block whose parities are known to mismatch.

    A one-position block is immediately located with zero disclosures.
    """
    if hi <= lo:
        raise ConfigurationError(f"cannot search the empty interval [{lo}, {hi})")
    found = lo if hi - lo == 1 else None
    return BinarySearchState(lo, hi, round_index, disclosed=0, found=found)


def pending_query(state: BinarySearchState) -> Optional[ParityQuery]:
    """The first-half parity needed next, or ``None`` once found."""
    if state.is_found:
        return None
    mid = split_point(state.lo, state.hi)
    return ParityQuery((state.lo, mid), state.round_index)


def step(
    state: BinarySearchState,
    local_first_parity: int,
    remote_first_parity: int,
    *,
    from_reuse: bool = False,
) -> BinarySearchState:
    """Advance one level using the first-half parities.

    ``from_reuse`` marks a remote parity served from storage rather than
    the channel; it advances the search identically but does not count as
    a disclosure.
    """
    lo, hi, round_index, disclosed, found = state
    if found is not None:
        raise ProtocolError("search already terminated")
    if local_first_parity not in (0, 1) or remote_first_parity not in (0, 1):
        raise ConfigurationError("parities must be bits")
    mid = split_point(lo, hi)
    if local_first_parity != remote_first_parity:
        hi = mid
    else:
        lo = mid
    if not from_reuse:
        disclosed += 1
    return BinarySearchState(lo, hi, round_index, disclosed, lo if hi - lo == 1 else None)


def disclosed_count(state: BinarySearchState) -> int:
    """Remote parity bits this search pulled over the channel."""
    return state.disclosed
