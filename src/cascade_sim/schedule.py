"""Block size schedules, round partitioning and break conditions.

Block sizing follows the classic reconciliation rules: the first round uses
``ceil(1 / qber_estimate)`` and later rounds either grow geometrically
(static schedule, factor ``k``) or are recomputed from the error rate the
previous round actually observed (dynamic schedule).  A dynamic round that
saw zero corrections degenerates to a single whole-frame block.  All sizes
are clamped to ``[2, frame_length]`` before use; 2 is the smallest block a
parity comparison can say anything useful about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import ConfigurationError


def check_estimate(qber_estimate: float) -> None:
    """Refuse an error-rate estimate outside (0, 0.5]; NaN lies outside."""
    if not 0.0 < qber_estimate <= 0.5:
        raise ConfigurationError(f"qber estimate must lie in (0, 0.5], got {qber_estimate!r}")


@dataclass(frozen=True)
class StaticSchedule:
    """Geometric schedule: round r uses ``ceil(1 / qber_estimate) * k**r``."""

    qber_estimate: float
    k: int = 2

    def __post_init__(self):
        check_estimate(self.qber_estimate)
        if self.k < 2:
            raise ConfigurationError("block growth factor k must be at least 2")


@dataclass(frozen=True)
class DynamicSchedule:
    """Round r >= 1 uses ``ceil(1 / observed_qber)`` from round r - 1."""

    qber_estimate: float

    def __post_init__(self):
        check_estimate(self.qber_estimate)


# A schedule's name to its type; the order is the wire byte order.
SCHEDULES = {"static": StaticSchedule, "dynamic": DynamicSchedule}

ScheduleConfig = Union[StaticSchedule, DynamicSchedule]


@dataclass(frozen=True)
class QuietRoundsBreak:
    """Stop once the last ``quiet_rounds`` rounds corrected nothing."""

    quiet_rounds: int

    def __post_init__(self):
        if self.quiet_rounds < 1:
            raise ConfigurationError("quiet_rounds must be at least 1")


@dataclass(frozen=True)
class ThresholdBreak:
    """Stop once a round corrects fewer than ``min_corrected`` bits."""

    min_corrected: int

    def __post_init__(self):
        if self.min_corrected < 1:
            raise ConfigurationError("min_corrected must be at least 1")


@dataclass(frozen=True)
class FixedRoundsBreak:
    """Always run exactly ``total_rounds`` rounds."""

    total_rounds: int

    def __post_init__(self):
        if self.total_rounds < 1:
            raise ConfigurationError("total_rounds must be at least 1")


# A break rule's name to its type; the order is the wire byte order.
BREAKS = {"fixed": FixedRoundsBreak, "quiet": QuietRoundsBreak, "threshold": ThresholdBreak}

BreakCondition = Union[QuietRoundsBreak, ThresholdBreak, FixedRoundsBreak]


@dataclass(frozen=True)
class RoundPlan:
    """Concrete block layout of one round."""

    round_index: int
    block_size: int
    intervals: tuple[tuple[int, int], ...]


def initial_block_size(qber_estimate: float) -> int:
    """``ceil(1 / qber_estimate)``; the caller clamps to the frame."""
    check_estimate(qber_estimate)
    return math.ceil(1.0 / qber_estimate)


def clamp_block_size(size: int, frame_length: int) -> int:
    """Clamp a proposed block size to ``[2, frame_length]``."""
    if frame_length < 1:
        raise ConfigurationError("frame length must be positive")
    return max(1, min(max(size, 2), frame_length))


def block_size_for_round(
    config: ScheduleConfig,
    round_index: int,
    frame_length: int,
    corrected_history: Sequence[int],
) -> int:
    """Block size of ``round_index`` given the corrected-per-round history.

    ``corrected_history`` holds one entry per completed round; only the
    entry for ``round_index - 1`` is consulted, and only by the dynamic
    schedule.  Round 0 always uses the initial estimate.
    """
    if round_index < 0:
        raise ConfigurationError("round index must be nonnegative")
    if round_index == 0:
        return clamp_block_size(initial_block_size(config.qber_estimate), frame_length)
    if isinstance(config, StaticSchedule):
        base = initial_block_size(config.qber_estimate)
        return clamp_block_size(base * config.k**round_index, frame_length)
    if isinstance(config, DynamicSchedule):
        if len(corrected_history) < round_index:
            raise ConfigurationError("dynamic schedule needs the previous round's count")
        corrected = corrected_history[round_index - 1]
        if corrected <= 0:
            return clamp_block_size(frame_length, frame_length)
        return clamp_block_size(math.ceil(frame_length / corrected), frame_length)
    raise ConfigurationError(f"unknown schedule config: {config!r}")


def partition_into_blocks(frame_length: int, block_size: int) -> tuple[tuple[int, int], ...]:
    """Contiguous disjoint blocks covering ``[0, frame_length)`` in order.

    Every block has ``block_size`` positions except possibly the last.
    """
    if frame_length < 1:
        raise ConfigurationError("frame length must be positive")
    if block_size < 1:
        raise ConfigurationError("block size must be positive")
    return tuple(
        (lo, min(lo + block_size, frame_length))
        for lo in range(0, frame_length, block_size)
    )


def plan_round(
    config: ScheduleConfig,
    round_index: int,
    frame_length: int,
    corrected_history: Sequence[int],
) -> RoundPlan:
    """Block size plus partition for one round."""
    size = block_size_for_round(config, round_index, frame_length, corrected_history)
    return RoundPlan(round_index, size, partition_into_blocks(frame_length, size))


def should_terminate(condition: BreakCondition, corrected_history: Sequence[int]) -> bool:
    """Decide after a completed round whether the session is done.

    ``corrected_history`` has one entry per completed round, oldest first.
    """
    if isinstance(condition, FixedRoundsBreak):
        return len(corrected_history) == condition.total_rounds
    if isinstance(condition, QuietRoundsBreak):
        q = condition.quiet_rounds
        if len(corrected_history) < q:
            return False
        return all(c == 0 for c in corrected_history[-q:])
    if isinstance(condition, ThresholdBreak):
        if not corrected_history:
            raise ConfigurationError("threshold break needs at least one round")
        return corrected_history[-1] < condition.min_corrected
    raise ConfigurationError(f"unknown break condition: {condition!r}")
