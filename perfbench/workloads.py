"""The benchmark's workloads and the operations each one times.

A workload is a fixed list of operations that does not depend on the run's
``--seed``; the seed only shuffles the order within each pass.  An operation
is one ``harness.run_trial_detailed`` call, or for the sweep workload one
whole ``harness.sweep_qber`` call.  The first time an operation runs in a
process its outputs go through every check in :mod:`checks`; later passes
must reproduce those verified outputs exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from cascade_sim import Bsc, FixedErrors, QberSweep, SessionTemplate, harness
from cascade_sim.channel import encode_message

import checks


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    template: SessionTemplate
    length: int
    noise: object = None  # per-trial noise; None for the sweep
    seeds: tuple = ()  # trial seeds, one operation each
    scheduling: str = "lockstep"
    sweep: Optional[QberSweep] = None  # one operation: the whole sweep
    base_seed: int = 1
    workers: int = 1

    def operations(self) -> tuple:
        return ("sweep",) if self.sweep is not None else self.seeds

    def sessions_per_operation(self) -> int:
        return self.sweep.steps * self.sweep.repeats if self.sweep is not None else 1


_AGGREGATED = SessionTemplate(aggregation=True)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chatty-threaded-4k",
            SessionTemplate(),
            4096,
            Bsc(0.02),
            seeds=tuple(range(1000, 1040)),
            scheduling="threaded",
        ),
        Workload("dense-batched-4k", _AGGREGATED, 4096, Bsc(0.10), seeds=tuple(range(1000, 1016))),
        Workload(
            "long-sparse-256k", _AGGREGATED, 262144, FixedErrors(64), seeds=tuple(range(1000, 1004))
        ),
        Workload(
            "qber-sweep-2w",
            _AGGREGATED,
            4096,
            sweep=QberSweep(start=0.01, step=0.01, steps=12, length=4096, repeats=2),
            base_seed=1,
            workers=2,
        ),
    )
}


def run_operation(workload: Workload, operation):
    """Execute one operation; the caller times this call alone."""
    if workload.sweep is not None:
        return harness.sweep_qber(
            workload.template, workload.sweep, base_seed=workload.base_seed, workers=workload.workers
        )
    return harness.run_trial_detailed(
        workload.template,
        workload.length,
        workload.noise,
        operation,
        scheduling=workload.scheduling,
    )


def records_of(workload: Workload, output) -> list:
    """The trial records an operation produced."""
    return list(output) if workload.sweep is not None else [output.record]


def sweep_trials(workload: Workload) -> list:
    """``(qber, seed, scenario, repeat)`` of every sweep trial, in grid order."""
    sweep = workload.sweep
    trials = []
    for point in range(sweep.steps):
        qber = sweep.start + sweep.step * point
        for repeat in range(sweep.repeats):
            seed = checks.sweep_seed(workload.base_seed, point, repeat)
            trials.append((qber, seed, f"qber={qber:.6g}/len={sweep.length}", repeat))
    return trials


def trial_details(workload: Workload, output) -> list:
    """``(detail, noise, seed)`` per session, re-running sweep trials untimed.

    ``sweep_qber`` returns records only; each trial is run again through
    ``run_trial_detailed`` so its transcript can be checked, and its record
    must equal the sweep's.
    """
    if workload.sweep is None:
        return [(output, workload.noise, output.record.seed)]
    trials = sweep_trials(workload)
    checks.require(len(output) == len(trials), f"sweep returned {len(output)} records")
    details = []
    for record, (qber, seed, scenario, repeat) in zip(output, trials):
        checks.require(record.seed == seed and record.qber_true == qber, f"sweep grid at seed {seed}")
        detail = harness.run_trial_detailed(
            workload.template, workload.sweep.length, Bsc(qber), seed,
            scenario_id=scenario, trial_index=repeat,
        )
        checks.require(
            _stable(detail.record) == _stable(record), f"sweep record of seed {seed} does not replay"
        )
        details.append((detail, Bsc(qber), seed))
    return details


def _stable(record):
    return dataclasses.replace(record, wall_time=0.0)


def verify_first(workload: Workload, output) -> tuple[list, object]:
    """Fully check an operation's first output.

    Returns one figures dict per session (from :func:`checks.check_trial`,
    plus ``wire_bytes``) and a signature later passes must reproduce.
    """
    figures = []
    signature = []
    for detail, noise, seed in trial_details(workload, output):
        facts = checks.check_trial(detail, len(detail.reference_frame), noise, seed)
        transcript = detail.result.channel.transcript
        facts["wire_bytes"] = sum(len(encode_message(entry.message)) for entry in transcript)
        figures.append(facts)
        if workload.sweep is None:
            signature.append(_session_signature(detail))
    if workload.sweep is not None:
        signature = [_stable(record) for record in output]
    return figures, signature


def verify_repeat(workload: Workload, output, signature) -> None:
    """A later pass of the same operation must reproduce the checked output."""
    if workload.sweep is not None:
        checks.require([_stable(r) for r in output] == signature, "sweep records changed between passes")
        return
    checks.require(
        [_session_signature(output)] == signature,
        f"seed {output.record.seed}: session output changed between passes",
    )


def _session_signature(detail):
    final = np.asarray(detail.result.responder.final_frame.bits)
    messages = tuple(entry.message for entry in detail.result.channel.transcript)
    return (
        _stable(detail.record),
        detail.result.responder.status,
        hash(final.tobytes()),
        len(messages),
        hash(messages),
    )
