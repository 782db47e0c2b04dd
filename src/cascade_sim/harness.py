"""Experiment harness: seeded trials, parameter sweeps, record export.

A trial builds a random reference frame, pushes it through a noise model,
runs a full reconciliation session over an observed channel, and distills
the outcome into one flat :class:`TrialRecord`.  Sweeps fan trials out over
a parameter grid with per-trial seeds derived from one base seed, so any
record can be reproduced in isolation.  Every trial cross-checks disclosure
accounting three ways (engine counters, transcript, eavesdropper tap) and
refuses to produce a record if they disagree.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Collection, List, Optional, Sequence, get_type_hints

from .bitframe import BitFrame, Bsc, FixedErrors, NoiseSpec, apply_noise, hamming_distance
from .channel import Channel, EveTap, SessionStatus, leakage_report
from .engine import PairResult, SessionConfig, run_session_pair
from .errors import ConfigurationError, ProtocolError
from .rng import SeededRng, label_from_text
from .schedule import (
    SCHEDULES,
    BreakCondition,
    FixedRoundsBreak,
    ScheduleConfig,
    StaticSchedule,
    check_estimate,
)

_FRAME_LABEL = label_from_text("trial-frame-seed")
_NOISE_LABEL = label_from_text("trial-noise-seed")
_SESSION_LABEL = label_from_text("trial-session-seed")


@dataclass(frozen=True)
class SessionTemplate:
    """Reusable session policy; per-trial parameters get filled in later.

    ``schedule_variant`` names a schedule in ``schedule.SCHEDULES``; the
    default is the first, ``"static"``.  ``qber_estimate`` pins the
    schedule's error-rate estimate and must lie in (0, 0.5]; when left
    ``None`` each trial estimates from its own noise model (the nominal flip
    probability, or injected-count / length for counted noise).  Either
    estimate is raised to at least one expected error per frame.
    """

    schedule_variant: str = next(iter(SCHEDULES))
    growth_factor: int = 2
    break_condition: BreakCondition = FixedRoundsBreak(4)
    permutation_kind: str = "lcg"
    aggregation: bool = False
    parity_reuse: bool = True
    qber_estimate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.schedule_variant not in SCHEDULES:
            raise ConfigurationError(
                f"schedule_variant must be one of {tuple(SCHEDULES)}, "
                f"got {self.schedule_variant!r}"
            )
        # The schedule refuses the same values; checked here because the
        # clamp in schedule_for would otherwise hide them.
        if self.qber_estimate is not None:
            check_estimate(self.qber_estimate)

    def schedule_for(self, length: int, true_rate: float) -> ScheduleConfig:
        estimate = self.qber_estimate if self.qber_estimate is not None else true_rate
        estimate = min(0.5, max(estimate, 1.0 / length))
        schedule = SCHEDULES[self.schedule_variant]
        if schedule is StaticSchedule:
            return StaticSchedule(estimate, self.growth_factor)
        return schedule(estimate)

    def config_for(self, length: int, true_rate: float, seed: int) -> SessionConfig:
        return SessionConfig(
            frame_length=length,
            schedule=self.schedule_for(length, true_rate),
            break_condition=self.break_condition,
            permutation_kind=self.permutation_kind,
            seed=seed,
            aggregation=self.aggregation,
            parity_reuse=self.parity_reuse,
        )


@dataclass(frozen=True)
class TrialRecord:
    """Flat, exportable outcome of one reconciliation trial."""

    scenario_id: str
    trial_index: int
    seed: int
    length: int
    qber_true: float
    qber_estimate: float
    injected_errors: int
    rounds_executed: int
    corrected_errors: int
    residual_errors: int
    parity_bits_disclosed: int
    parity_fraction: float
    messages_sent: int
    messages_baseline: Optional[int]
    success: bool
    wall_time: float


@dataclass(frozen=True)
class TrialDetail:
    """A record plus the raw artifacts it was distilled from."""

    record: TrialRecord
    result: PairResult
    eavesdropper: EveTap
    reference_frame: BitFrame
    noisy_frame: BitFrame


@dataclass(frozen=True)
class PairedOutcome:
    """One seed run twice: query batching off, then on."""

    unbatched: TrialRecord
    batched: TrialRecord
    frames_identical: bool


@dataclass(frozen=True)
class QberSweep:
    """Grid over channel error rates at fixed frame length."""

    start: float = 0.005
    step: float = 0.005
    steps: int = 60
    length: int = 4096
    repeats: int = 3

    def points(self) -> List[float]:
        return [self.start + self.step * i for i in range(self.steps)]


@dataclass(frozen=True)
class LengthSweep:
    """Grid over frame lengths with a fixed number of injected errors."""

    start: int = 512
    step: int = 512
    stop: int = 20480
    fixed_errors: int = 10
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ConfigurationError(f"length grid step must be >= 1, got {self.step}")

    def points(self) -> List[int]:
        return list(range(self.start, self.stop + 1, self.step))


def _true_rate(noise: NoiseSpec, length: int) -> float:
    if isinstance(noise, Bsc):
        return noise.qber
    return noise.count / length


def run_trial_detailed(
    template: SessionTemplate,
    length: int,
    noise: NoiseSpec,
    seed: int,
    *,
    scenario_id: str = "adhoc",
    trial_index: int = 0,
    scheduling: str = "lockstep",
) -> TrialDetail:
    """Run one full trial and keep the raw session artifacts around."""
    if length < 1:
        # Checked before the error-rate estimate divides by the length.
        raise ConfigurationError(f"frame length must be >= 1, got {length}")
    root = SeededRng(seed)
    frame_seed = root.derive(_FRAME_LABEL).next_u64()
    noise_seed = root.derive(_NOISE_LABEL).next_u64()
    session_seed = root.derive(_SESSION_LABEL).next_u64()

    reference = BitFrame.random(length, frame_seed)
    noisy, injected = apply_noise(reference, noise, noise_seed)
    rate = _true_rate(noise, length)
    config = template.config_for(length, rate, session_seed)

    eve = EveTap()
    channel_obj = Channel(taps=(eve,))
    started = time.perf_counter()
    result = run_session_pair(
        config, config, reference, noisy, channel_obj=channel_obj, scheduling=scheduling
    )
    wall_time = time.perf_counter() - started

    report = leakage_report(result.channel.transcript)
    engine_bits_a = result.initiator.parity_bits_disclosed
    engine_bits_b = result.responder.parity_bits_disclosed
    if not (engine_bits_a == engine_bits_b == report.parity_bits_disclosed == eve.parity_bits_seen):
        raise ProtocolError(
            "disclosure accounting diverged: "
            f"initiator={engine_bits_a} responder={engine_bits_b} "
            f"transcript={report.parity_bits_disclosed} eavesdropper={eve.parity_bits_seen}"
        )

    residual = hamming_distance(reference, result.responder.final_frame)
    success = (
        result.initiator.status is SessionStatus.SUCCESS
        and result.responder.status is SessionStatus.SUCCESS
    )
    record = TrialRecord(
        scenario_id=scenario_id,
        trial_index=trial_index,
        seed=seed,
        length=length,
        qber_true=rate,
        qber_estimate=config.schedule.qber_estimate,
        injected_errors=injected,
        rounds_executed=result.responder.rounds_executed,
        corrected_errors=result.responder.corrected_total,
        residual_errors=residual,
        parity_bits_disclosed=engine_bits_b,
        parity_fraction=engine_bits_b / length,
        messages_sent=report.messages_total,
        messages_baseline=None,
        success=success,
        wall_time=wall_time,
    )
    return TrialDetail(record, result, eve, reference, noisy)


def run_trial(
    template: SessionTemplate,
    length: int,
    noise: NoiseSpec,
    seed: int,
    *,
    scenario_id: str = "adhoc",
    trial_index: int = 0,
    scheduling: str = "lockstep",
) -> TrialRecord:
    """Run one trial and return just its record."""
    return run_trial_detailed(
        template,
        length,
        noise,
        seed,
        scenario_id=scenario_id,
        trial_index=trial_index,
        scheduling=scheduling,
    ).record


def run_paired_trial(
    template: SessionTemplate,
    length: int,
    noise: NoiseSpec,
    seed: int,
    *,
    scenario_id: str = "paired",
    trial_index: int = 0,
) -> PairedOutcome:
    """Run the identical trial with query batching off, then on.

    The batched record carries the unbatched message count in
    ``messages_baseline`` so reductions can be read off one row.
    """
    off, on = (
        run_trial_detailed(
            dataclasses.replace(template, aggregation=aggregation),
            length,
            noise,
            seed,
            scenario_id=scenario_id,
            trial_index=trial_index,
        )
        for aggregation in (False, True)
    )
    batched = dataclasses.replace(on.record, messages_baseline=off.record.messages_sent)
    identical = off.result.responder.final_frame == on.result.responder.final_frame
    return PairedOutcome(off.record, batched, identical)


def _fan_out(jobs: Sequence[Callable[[], object]], workers: int) -> List[object]:
    """Run ``jobs`` and return their results in order.

    ``workers`` is clamped to the job count and the usable CPUs.  Beyond one,
    ``workers - 1`` forked processes take jobs from the front of the queue
    while the caller, the last worker, claims them from the back.  So the
    calling process still runs sessions itself, and instrumentation installed
    in it sees them.  Forked workers start with the program already imported;
    the pool forks them before it starts its own threads.  A job's exception
    is re-raised in its place in job order.
    """
    workers = min(workers, len(jobs), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [job() for job in jobs]
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor

    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(job) for job in jobs]
        for index in reversed(range(len(jobs))):
            if not futures[index].cancel():
                break  # the pool started this job, so it holds every earlier one
            futures[index] = Future()
            try:
                futures[index].set_result(jobs[index]())
            except Exception as error:
                futures[index].set_exception(error)
        return [future.result() for future in futures]


def _sweep(
    run: Callable[..., object],
    template: SessionTemplate,
    label: str,
    grid: Sequence[tuple],
    repeats: int,
    base_seed: int,
    workers: int,
) -> List[object]:
    """Run ``repeats`` trials of each ``(length, noise, scenario_id)`` point.

    Each trial's seed derives from ``base_seed``, the sweep's ``label``, the
    point's index and the repeat, and the results come back in grid order.
    ``workers`` (at least 1) runs the trials in that many processes, the
    caller being one of them, with the count clamped to the usable CPUs; the
    records equal the serial run's.  Each job is a ``functools.partial`` of
    a module-level function, so it pickles.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    root = SeededRng(base_seed)
    sweep_label = label_from_text(label)
    jobs = [
        functools.partial(
            run,
            template,
            length,
            noise,
            root.derive(sweep_label, point_index, repeat).next_u64(),
            scenario_id=scenario_id,
            trial_index=repeat,
        )
        for point_index, (length, noise, scenario_id) in enumerate(grid)
        for repeat in range(repeats)
    ]
    return _fan_out(jobs, workers)


def sweep_qber(
    template: SessionTemplate,
    sweep: QberSweep = QberSweep(),
    *,
    base_seed: int = 1,
    workers: int = 1,
) -> List[TrialRecord]:
    """Run the error-rate sweep in ``workers`` processes; records come back in grid order."""
    grid = [(sweep.length, Bsc(q), f"qber={q:.6g}/len={sweep.length}") for q in sweep.points()]
    return _sweep(run_trial, template, "qber-sweep", grid, sweep.repeats, base_seed, workers)


def sweep_length(
    template: SessionTemplate,
    sweep: LengthSweep = LengthSweep(),
    *,
    base_seed: int = 1,
    workers: int = 1,
) -> List[TrialRecord]:
    """Run the frame-length sweep in ``workers`` processes; records come back in grid order."""
    noise = FixedErrors(sweep.fixed_errors)
    grid = [(n, noise, f"len={n}/errors={sweep.fixed_errors}") for n in sweep.points()]
    return _sweep(run_trial, template, "length-sweep", grid, sweep.repeats, base_seed, workers)


def compare_aggregation(
    template: SessionTemplate,
    sweep: LengthSweep = LengthSweep(),
    *,
    base_seed: int = 1,
    workers: int = 1,
) -> List[PairedOutcome]:
    """Paired batching-off/batching-on runs across the length sweep, in ``workers`` processes."""
    noise = FixedErrors(sweep.fixed_errors)
    grid = [(n, noise, f"paired/len={n}") for n in sweep.points()]
    return _sweep(
        run_paired_trial, template, "aggregation-compare", grid, sweep.repeats, base_seed, workers
    )


# ---------------------------------------------------------------------------
# record export / import
# ---------------------------------------------------------------------------


def _bool_from_text(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# Per annotated field type: the parser of a CSV cell's text, and what a JSON
# value may be, with the types it may have (compared exactly, so that a bool
# is not an int).  A new TrialRecord field of one of these types needs no
# edit here.
_FROM_TEXT = {
    str: str,
    int: int,
    float: float,
    bool: _bool_from_text,
    Optional[int]: lambda text: int(text) if text else None,
}
_JSON_TYPES = {
    str: ("a string", (str,)),
    int: ("an integer", (int,)),
    float: ("a number", (float, int)),
    bool: ("true or false", (bool,)),
    Optional[int]: ("an integer or null", (int, type(None))),
}
_HINTS = get_type_hints(TrialRecord)
_COLUMNS = {name: _FROM_TEXT[hint] for name, hint in _HINTS.items()}


def _csv_text(value) -> str:
    """The CSV cell of one record value, as a ``_FROM_TEXT`` parser reads it back."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a float's str is its shortest round-tripping repr


FORMATS = ("csv", "jsonl")


def _format(path: str, fmt: Optional[str]) -> str:
    """``fmt`` if given; otherwise JSON lines for a ``.jsonl`` path, CSV for any other."""
    if fmt is None:
        return "jsonl" if path.endswith(".jsonl") else "csv"
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown export format: {fmt!r}")
    return fmt


def export_records(records: Sequence[TrialRecord], path: str, fmt: Optional[str] = None) -> None:
    """Write records to ``path`` as CSV (with header) or JSON lines.

    ``fmt`` is one of ``FORMATS``; without it the path's suffix decides.
    """
    if _format(path, fmt) == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_COLUMNS)
            for record in records:
                writer.writerow(_csv_text(getattr(record, name)) for name in _COLUMNS)
    else:
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(asdict(record)) + "\n")


def _check_names(path: str, line: int, names: Collection[str]) -> None:
    """Refuse a CSV header or JSON object whose names are not ``TrialRecord``'s fields."""
    missing = [name for name in _COLUMNS if name not in names]
    unexpected = [name for name in names if name not in _COLUMNS]
    if missing or unexpected:
        raise ConfigurationError(
            f"{path}, line {line}: not a trial record (missing: {', '.join(missing) or 'none'}; "
            f"unexpected: {', '.join(unexpected) or 'none'})"
        )


def load_records(path: str, fmt: Optional[str] = None) -> List[TrialRecord]:
    """Read records back from a file produced by :func:`export_records`.

    A file that is not one raises ``ConfigurationError`` naming the path and
    the line, and the field when a value does not fit its annotation: a CSV
    cell its parser refuses (a bool is ``true`` or ``false``), or a JSON value
    of another type (no bool in an int field, ``null`` only where the field
    is optional).
    """
    records: List[TrialRecord] = []
    if _format(path, fmt) == "csv":
        with open(path, newline="") as handle:
            rows = csv.reader(handle)
            header = next(rows, [])
            _check_names(path, 1, header)
            for row in rows:
                if not row:
                    continue
                where = f"{path}, line {rows.line_num}"
                if len(row) != len(header):
                    raise ConfigurationError(f"{where}: {len(row)} cells for {len(header)} columns")
                values = {}
                for name, text in zip(header, row):
                    try:
                        values[name] = _COLUMNS[name](text)
                    except ValueError as exc:
                        raise ConfigurationError(f"{where}, field {name}: {exc}") from None
                records.append(TrialRecord(**values))
    else:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    values = json.loads(line)
                except ValueError as exc:
                    raise ConfigurationError(f"{path}, line {number}: {exc}") from None
                if not isinstance(values, dict):
                    raise ConfigurationError(f"{path}, line {number}: not a JSON object")
                _check_names(path, number, values)
                for name, value in values.items():
                    expected, types = _JSON_TYPES[_HINTS[name]]
                    if type(value) not in types:
                        raise ConfigurationError(
                            f"{path}, line {number}, field {name}: "
                            f"expected {expected}, got {json.dumps(value)}"
                        )
                records.append(TrialRecord(**values))
    return records
