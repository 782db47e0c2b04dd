"""Interactive-reconciliation simulator for noisy shared bit frames.

Two parties hold almost-identical bit frames.  Over an authenticated
classical channel they exchange block parities, chase individual
differences with dichotomic searches, and cascade each correction back
through earlier rounds — while an accountant tallies every parity bit an
eavesdropper could have seen.

The package root exports the experiment API: noise models, break rules,
the session policy and sweep grids, trial and sweep runners, records and
the error types.  Everything else is reached through its module: the
protocol engine and its drivers (``engine``), the channel, wire format and
transcript files (``channel``), schedules (``schedule``), frames and
permutations (``bitframe``), the search state machine (``binary_search``)
and the standalone colored parity trees (``paritytree``).
"""

from .bitframe import Bsc, FixedErrors
from .errors import CascadeError, ConfigurationError, DecodeError, ProtocolError, TransportError
from .harness import (
    LengthSweep,
    PairedOutcome,
    QberSweep,
    SessionTemplate,
    TrialRecord,
    compare_aggregation,
    export_records,
    load_records,
    run_paired_trial,
    run_trial,
    run_trial_detailed,
    sweep_length,
    sweep_qber,
)
from .schedule import FixedRoundsBreak, QuietRoundsBreak, ThresholdBreak

__version__ = "0.1.0"

__all__ = [
    "Bsc",
    "CascadeError",
    "ConfigurationError",
    "DecodeError",
    "FixedErrors",
    "FixedRoundsBreak",
    "LengthSweep",
    "PairedOutcome",
    "ProtocolError",
    "QberSweep",
    "QuietRoundsBreak",
    "SessionTemplate",
    "ThresholdBreak",
    "TransportError",
    "TrialRecord",
    "compare_aggregation",
    "export_records",
    "load_records",
    "run_paired_trial",
    "run_trial",
    "run_trial_detailed",
    "sweep_length",
    "sweep_qber",
]
