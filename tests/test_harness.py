"""Tests for the experiment harness: trials, sweeps, records, exports."""

import dataclasses
import json
import multiprocessing
import re
import threading

import pytest

from cascade_sim.bitframe import Bsc, FixedErrors
from cascade_sim.errors import ConfigurationError
from cascade_sim.harness import (
    LengthSweep,
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
from cascade_sim.schedule import DynamicSchedule, QuietRoundsBreak, StaticSchedule


def strip_time(record):
    return dataclasses.replace(record, wall_time=0.0)


# ------------------------------------------------------------------ trials


def test_trial_is_reproducible_except_wall_time():
    template = SessionTemplate()
    first = run_trial(template, 1024, Bsc(0.02), seed=5)
    second = run_trial(template, 1024, Bsc(0.02), seed=5)
    assert strip_time(first) == strip_time(second)
    assert first.length == 1024
    assert first.qber_true == 0.02
    assert first.corrected_errors + first.residual_errors >= first.injected_errors
    assert first.parity_fraction == first.parity_bits_disclosed / 1024


def test_trials_differ_across_seeds():
    template = SessionTemplate()
    a = run_trial(template, 512, FixedErrors(5), seed=1)
    b = run_trial(template, 512, FixedErrors(5), seed=2)
    assert a.seed != b.seed
    assert a.injected_errors == b.injected_errors == 5


def test_detailed_trial_exposes_session_artifacts():
    detail = run_trial_detailed(SessionTemplate(), 256, FixedErrors(4), seed=9)
    assert len(detail.reference_frame) == 256
    assert detail.record.injected_errors == 4
    # the eavesdropper saw exactly what the engines counted
    assert (
        detail.eavesdropper.parity_bits_seen
        == detail.record.parity_bits_disclosed
        == detail.result.responder.parity_bits_disclosed
    )
    assert detail.eavesdropper.messages_seen == detail.record.messages_sent
    if detail.record.success:
        assert detail.result.responder.final_frame == detail.reference_frame


def test_template_estimates_default_to_the_true_rate():
    template = SessionTemplate()
    assert template.schedule_for(4096, 0.02) == StaticSchedule(0.02, 2)
    # explicit estimate wins
    pinned = SessionTemplate(qber_estimate=0.05)
    assert pinned.schedule_for(4096, 0.02) == StaticSchedule(0.05, 2)
    # tiny rates clamp to one expected error per frame, pinned or not
    assert template.schedule_for(256, 0.0001) == StaticSchedule(1 / 256, 2)
    tiny = SessionTemplate(qber_estimate=0.0001)
    assert tiny.schedule_for(256, 0.02) == StaticSchedule(1 / 256, 2)
    assert SessionTemplate(qber_estimate=0.5).schedule_for(256, 0.02) == StaticSchedule(0.5, 2)
    dynamic = SessionTemplate(schedule_variant="dynamic")
    assert dynamic.schedule_for(512, 0.03) == DynamicSchedule(0.03)
    with pytest.raises(ConfigurationError):
        SessionTemplate(schedule_variant="annealed")


@pytest.mark.parametrize("estimate", [-1.0, 0.0, 0.7, float("nan"), float("inf")])
def test_template_refuses_a_pinned_estimate_outside_the_schedule_range(estimate):
    with pytest.raises(ConfigurationError, match=r"qber estimate must lie in \(0, 0\.5\]"):
        SessionTemplate(qber_estimate=estimate)


@pytest.mark.parametrize("noise", [Bsc(0.02), FixedErrors(3)], ids=["bsc", "fixed-errors"])
@pytest.mark.parametrize("length", [0, -1])
def test_trials_reject_lengths_below_one(length, noise):
    with pytest.raises(ConfigurationError, match="frame length must be >= 1"):
        run_trial(SessionTemplate(), length, noise, seed=1)
    with pytest.raises(ConfigurationError, match="frame length must be >= 1"):
        sweep_qber(SessionTemplate(), QberSweep(steps=1, length=length, repeats=1), workers=2)


def test_zero_error_trials_always_succeed():
    record = run_trial(SessionTemplate(), 512, FixedErrors(0), seed=3)
    assert record.success
    assert record.corrected_errors == 0
    assert record.residual_errors == 0


def test_paired_trial_shares_seeds_and_fills_baseline():
    outcome = run_paired_trial(SessionTemplate(), 768, FixedErrors(6), seed=11)
    assert outcome.unbatched.messages_baseline is None
    assert outcome.batched.messages_baseline == outcome.unbatched.messages_sent
    assert outcome.frames_identical
    assert outcome.batched.seed == outcome.unbatched.seed
    assert outcome.batched.messages_sent <= outcome.unbatched.messages_sent
    assert (
        outcome.batched.parity_bits_disclosed == outcome.unbatched.parity_bits_disclosed
    )


# ------------------------------------------------------------------ sweeps


def test_qber_sweep_produces_grid_ordered_records():
    sweep = QberSweep(start=0.01, step=0.01, steps=3, length=256, repeats=2)
    records = sweep_qber(SessionTemplate(), sweep, base_seed=5)
    assert len(records) == 6
    assert [r.qber_true for r in records] == [0.01, 0.01, 0.02, 0.02, 0.03, 0.03]
    assert [r.trial_index for r in records] == [0, 1, 0, 1, 0, 1]
    assert len({r.seed for r in records}) == 6  # pairwise distinct seeds
    for record in records:
        assert record.scenario_id.startswith("qber=")
        assert record.length == 256


def test_length_sweep_produces_grid_ordered_records():
    sweep = LengthSweep(start=128, step=128, stop=512, fixed_errors=3, repeats=2)
    records = sweep_length(SessionTemplate(), sweep, base_seed=5)
    assert len(records) == 8
    assert [r.length for r in records] == [128, 128, 256, 256, 384, 384, 512, 512]
    assert all(r.injected_errors == 3 for r in records)
    assert len({r.seed for r in records}) == 8


@pytest.mark.parametrize("workers", [1, 2])
def test_length_sweep_rejects_oversized_error_count(workers):
    # Only the first, 128-bit point is too short.  With two workers the caller
    # runs the long last point while a child process takes the first, whose
    # ConfigurationError comes back through the pool unchanged.
    sweep = LengthSweep(start=128, step=32768, stop=65664, fixed_errors=300, repeats=1)
    with pytest.raises(ConfigurationError, match="cannot inject more errors"):
        sweep_length(SessionTemplate(), sweep, base_seed=1, workers=workers)


def test_parallel_sweep_equals_serial_sweep():
    sweep = QberSweep(start=0.01, step=0.02, steps=3, length=384, repeats=2)
    serial = sweep_qber(SessionTemplate(), sweep, base_seed=9, workers=1)
    parallel = sweep_qber(SessionTemplate(), sweep, base_seed=9, workers=3)
    assert [strip_time(r) for r in serial] == [strip_time(r) for r in parallel]


def test_more_workers_than_jobs_equals_serial_sweep():
    sweep = QberSweep(start=0.02, step=0.03, steps=3, length=256, repeats=1)
    serial = sweep_qber(SessionTemplate(), sweep, base_seed=3, workers=1)
    parallel = sweep_qber(SessionTemplate(), sweep, base_seed=3, workers=8)
    assert [strip_time(r) for r in serial] == [strip_time(r) for r in parallel]


def test_parallel_sweep_leaves_nothing_running():
    threads = threading.active_count()
    sweep = QberSweep(start=0.01, step=0.01, steps=2, length=256, repeats=2)
    records = sweep_qber(SessionTemplate(), sweep, base_seed=2, workers=2)
    assert len(records) == 4
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [0, -3])
def test_sweeps_refuse_fewer_than_one_worker(workers):
    message = f"workers must be >= 1, got {workers}"
    with pytest.raises(ConfigurationError, match=message):
        sweep_qber(SessionTemplate(), QberSweep(steps=1, length=64, repeats=1), workers=workers)
    with pytest.raises(ConfigurationError, match=message):
        sweep_length(SessionTemplate(), LengthSweep(64, 64, 64, 1, 1), workers=workers)
    with pytest.raises(ConfigurationError, match=message):
        compare_aggregation(SessionTemplate(), LengthSweep(64, 64, 64, 1, 1), workers=workers)


def test_compare_aggregation_pairs_up():
    sweep = LengthSweep(start=256, step=256, stop=768, fixed_errors=4, repeats=1)
    outcomes = compare_aggregation(SessionTemplate(), sweep, base_seed=4)
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert outcome.frames_identical
        assert outcome.batched.messages_sent <= outcome.unbatched.messages_sent
        assert outcome.batched.scenario_id == outcome.unbatched.scenario_id


# ----------------------------------------------------------------- exports


def test_csv_round_trip_preserves_records(tmp_path):
    sweep = QberSweep(start=0.02, step=0.02, steps=2, length=256, repeats=2)
    records = sweep_qber(SessionTemplate(), sweep, base_seed=2)
    path = str(tmp_path / "records.csv")
    export_records(records, path, fmt="csv")
    assert load_records(path, fmt="csv") == records


def test_jsonl_round_trip_preserves_records(tmp_path):
    records = [
        run_trial(SessionTemplate(), 256, FixedErrors(3), seed=s) for s in (1, 2)
    ]
    path = str(tmp_path / "records.jsonl")
    export_records(records, path, fmt="jsonl")
    assert load_records(path) == records  # format inferred from suffix


def test_export_format_follows_the_suffix_unless_given(tmp_path):
    records = [run_trial(SessionTemplate(), 128, FixedErrors(2), seed=s) for s in (1, 2)]
    jsonl = tmp_path / "x.jsonl"
    export_records(records, str(jsonl))
    assert [json.loads(line)["seed"] for line in jsonl.read_text().splitlines()] == [1, 2]
    assert load_records(str(jsonl)) == records
    forced = tmp_path / "forced.jsonl"
    export_records(records, str(forced), fmt="csv")
    assert forced.read_text().startswith("scenario_id,")
    assert load_records(str(forced), fmt="csv") == records
    with pytest.raises(ConfigurationError, match="unknown export format: 'xml'"):
        export_records(records, str(tmp_path / "x.xml"), fmt="xml")
    assert not (tmp_path / "x.xml").exists()
    with pytest.raises(ConfigurationError, match="unknown export format: 'xml'"):
        load_records(str(forced), fmt="xml")


def test_csv_text_of_a_fixed_record(tmp_path):
    record = TrialRecord(
        scenario_id="pinned",
        trial_index=1,
        seed=2**63 + 5,
        length=3,
        qber_true=0.1,
        qber_estimate=1e-05,
        injected_errors=0,
        rounds_executed=4,
        corrected_errors=0,
        residual_errors=0,
        parity_bits_disclosed=1,
        parity_fraction=1 / 3,
        messages_sent=9,
        messages_baseline=None,
        success=True,
        wall_time=0.25,
    )
    path = tmp_path / "pinned.csv"
    export_records([record], str(path), fmt="csv")
    assert path.read_bytes() == (
        b"scenario_id,trial_index,seed,length,qber_true,qber_estimate,injected_errors,"
        b"rounds_executed,corrected_errors,residual_errors,parity_bits_disclosed,"
        b"parity_fraction,messages_sent,messages_baseline,success,wall_time\r\n"
        b"pinned,1,9223372036854775813,3,0.1,1e-05,0,4,0,0,1,0.3333333333333333,9,,true,0.25\r\n"
    )
    assert load_records(str(path)) == [record]


def test_baseline_column_round_trips_when_present(tmp_path):
    outcome = run_paired_trial(SessionTemplate(), 256, FixedErrors(3), seed=6)
    records = [outcome.unbatched, outcome.batched]
    for fmt, name in (("csv", "p.csv"), ("jsonl", "p.jsonl")):
        path = str(tmp_path / name)
        export_records(records, path, fmt=fmt)
        loaded = load_records(path, fmt=fmt)
        assert loaded[0].messages_baseline is None
        assert loaded[1].messages_baseline == outcome.unbatched.messages_sent
        assert loaded == records


def test_a_file_that_holds_no_records_is_refused(tmp_path):
    record = run_trial(SessionTemplate(), 64, FixedErrors(1), seed=1)
    fields = dataclasses.asdict(record)
    line = json.dumps(fields) + "\n"
    header = ",".join(fields) + "\n"
    cells = [str(value) for value in fields.values()]
    cells[2] = "x"  # the seed
    yes = {**fields, "success": "yes"}
    bool_cells = ["" if value is None else str(value) for value in yes.values()]
    cases = {
        # A JSON-lines file under a CSV name: its line is no record header.
        "r.csv": (line, r"line 1: not a trial record \(missing: scenario_id, .*; unexpected: \{"),
        "other.csv": ("a,b\n1,2\n", r"line 1: .*\(missing: scenario_id, .*; unexpected: a, b\)"),
        "cell.csv": (
            header + ",".join(cells) + "\n",
            r"line 2, field seed: invalid literal for int\(\)",
        ),
        "bool.csv": (
            header + ",".join(bool_cells) + "\n",
            r"line 2, field success: expected true or false, got 'yes'",
        ),
        "short.csv": (header + "adhoc,0\n", r"line 2: 2 cells for 16 columns"),
        "empty.jsonl": (line + "{}\n", r"line 2: .*\(missing: scenario_id, .*; unexpected: none\)"),
        "extra.jsonl": (
            json.dumps({**fields, "colour": "red"}),
            r"line 1: not a trial record \(missing: none; unexpected: colour\)",
        ),
        "list.jsonl": ("[]\n", r"line 1: not a JSON object"),
        "seed.jsonl": (
            line + json.dumps({**fields, "seed": "x"}),
            r'line 2, field seed: expected an integer, got "x"',
        ),
        "success.jsonl": (
            json.dumps({**fields, "success": "no"}),
            r'line 1, field success: expected true or false, got "no"',
        ),
        "length.jsonl": (
            json.dumps({**fields, "length": True}),
            r"line 1, field length: expected an integer, got true",
        ),
        "null.jsonl": (
            json.dumps({**fields, "injected_errors": None}),
            r"line 1, field injected_errors: expected an integer, got null",
        ),
        "float.jsonl": (
            json.dumps({**fields, "wall_time": "0.5"}),
            r'line 1, field wall_time: expected a number, got "0.5"',
        ),
        "broken.jsonl": (line + line[:-2], r"line 2: Expecting ',' delimiter"),
    }
    for name, (text, error) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}, ") + error):
            load_records(str(path))


def test_quiet_break_template_runs_until_quiet():
    template = SessionTemplate(
        schedule_variant="dynamic", break_condition=QuietRoundsBreak(2)
    )
    detail = run_trial_detailed(template, 512, FixedErrors(4), seed=8)
    history = detail.result.responder.corrected_history
    # the break fires exactly when the last two rounds were silent
    assert len(history) >= 2
    assert history[-2:] == (0, 0)
    assert not any(
        history[i] == 0 and history[i + 1] == 0 for i in range(len(history) - 2)
    )
    # outcome stays honest either way
    assert detail.record.success == (detail.record.residual_errors == 0)
