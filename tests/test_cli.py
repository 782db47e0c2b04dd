"""Command-line interface: exit codes, output files, config-file layering."""

import json
import subprocess
import sys

import pytest

from cascade_sim import cli
from cascade_sim.channel import read_transcript
from cascade_sim.cli import main
from cascade_sim.errors import (
    CascadeError,
    ConfigurationError,
    DecodeError,
    ProtocolError,
    SyndromeConflictError,
    TransportError,
    TreeStructureError,
)
from cascade_sim.harness import (
    LengthSweep,
    QberSweep,
    SessionTemplate,
    compare_aggregation,
    load_records,
    sweep_length,
    sweep_qber,
)


def run_cli(*argv):
    return main(list(argv))


def test_run_success_exit_code_and_summary_line(capsys):
    code = run_cli("run", "--length", "256", "--errors", "4", "--seed", "1")
    out = capsys.readouterr().out
    assert code == 0
    assert "status=success" in out
    assert "residual=0" in out
    assert "parity_bits=" in out


def test_run_failure_exit_code(capsys):
    # One round is not enough to clear a dense error pattern.
    code = run_cli(
        "run", "--length", "256", "--errors", "40", "--seed", "1", "--break", "fixed:1"
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "status=failure" in out


def test_run_errors_flag_beats_qber(tmp_path, capsys):
    # --errors pins the noise model even when --qber is also given.
    out_file = tmp_path / "one.csv"
    code = run_cli(
        "run",
        "--length", "128",
        "--qber", "0.4",
        "--errors", "2",
        "--seed", "1",
        "--out", str(out_file),
    )
    capsys.readouterr()
    assert code == 0
    (record,) = load_records(str(out_file))
    assert record.injected_errors == 2
    assert record.success


def test_run_out_format_follows_the_suffix_unless_given(tmp_path, capsys):
    jsonl, forced = tmp_path / "r.jsonl", tmp_path / "forced.jsonl"
    flags = ("run", "--length", "128", "--errors", "2", "--seed", "3")
    assert run_cli(*flags, "--out", str(jsonl)) == 0
    assert run_cli(*flags, "--out", str(forced), "--format", "csv") == 0
    capsys.readouterr()
    (record,) = load_records(str(jsonl))
    assert json.loads(jsonl.read_text())["seed"] == record.seed == 3
    assert forced.read_text().startswith("scenario_id,trial_index,seed,")
    (forced_record,) = load_records(str(forced), fmt="csv")
    assert forced_record.seed == 3


def test_run_writes_readable_transcript(tmp_path, capsys):
    transcript_file = tmp_path / "wire.bin"
    out_file = tmp_path / "one.jsonl"
    code = run_cli(
        "run",
        "--length", "128",
        "--errors", "3",
        "--seed", "9",
        "--transcript", str(transcript_file),
        "--out", str(out_file),
        "--format", "jsonl",
    )
    out = capsys.readouterr().out
    assert code == 0
    replay = read_transcript(str(transcript_file))
    (record,) = load_records(str(out_file))
    assert len(replay) == record.messages_sent
    assert len({entry.direction for entry in replay}) == 2  # both parties spoke
    # The summary's wire_bytes counts the message payloads, not the file's framing.
    fields = dict(field.split("=") for field in out.split())
    assert int(fields["wire_bytes"]) == sum(len(entry.payload) for entry in replay) > 0


def test_config_file_sets_defaults_and_flags_win(tmp_path, capsys):
    config = tmp_path / "policy.json"
    config.write_text(json.dumps({"break": "fixed:2", "parity-reuse": "off"}))
    out_file = tmp_path / "rec.csv"
    code = run_cli(
        "run",
        "--length", "128",
        "--errors", "2",
        "--seed", "4",
        "--config", str(config),
        "--break", "fixed:3",  # explicit flag overrides the file's fixed:2
        "--out", str(out_file),
    )
    capsys.readouterr()
    assert code == 0
    (record,) = load_records(str(out_file))
    assert record.rounds_executed == 3


def test_config_file_unknown_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "policy.json"
    config.write_text(json.dumps({"blocksize": 8}))
    code = run_cli("run", "--config", str(config))
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    assert "blocksize" in err


@pytest.mark.parametrize(
    "values",
    [
        {"aggregation": True},
        {"aggregation": "yes"},
        {"parity-reuse": "of"},
        {"length": "abc"},
        {"length": True},
    ],
    ids=["json-bool-choice", "unknown-choice", "misspelt-choice", "not-an-int", "json-bool-int"],
)
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, values):
    config = tmp_path / "policy.json"
    config.write_text(json.dumps(values))
    code = run_cli(
        "run", "--length", "1024", "--qber", "0.05", "--seed", "3", "--config", str(config)
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    (key,) = values
    assert repr(key) in err


@pytest.mark.parametrize("estimate", ["0", "nan"])
def test_out_of_range_qber_estimate_is_a_configuration_error(tmp_path, capsys, estimate):
    code = run_cli("run", "--length", "256", "--qber-estimate", estimate)
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error: qber estimate must lie in (0, 0.5]" in err
    config = tmp_path / "policy.json"
    config.write_text(json.dumps({"qber-estimate": float(estimate)}))
    code = run_cli("run", "--length", "256", "--config", str(config))
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error: qber estimate must lie in (0, 0.5]" in err


def test_bad_break_spec_is_a_configuration_error(capsys):
    code = run_cli("run", "--break", "often")
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err


def test_tree_structure_error_exits_with_code_one(monkeypatch, capsys):
    def broken_trial(*args, **kwargs):
        raise TreeStructureError("conflicting syndromes for [0, 1) in round 1")

    monkeypatch.setattr(cli, "run_trial_detailed", broken_trial)
    code = run_cli("run", "--length", "64", "--errors", "1", "--seed", "2")
    err = capsys.readouterr().err
    assert code == 1
    assert "error: conflicting syndromes" in err


def test_every_error_shares_one_base_and_keeps_its_builtin_base():
    bases = {
        ConfigurationError: ValueError,
        ProtocolError: RuntimeError,
        TransportError: RuntimeError,
        DecodeError: ValueError,
        TreeStructureError: ValueError,
        SyndromeConflictError: TreeStructureError,
    }
    for error, base in bases.items():
        assert issubclass(error, CascadeError), error
        assert issubclass(error, base), error
    assert not issubclass(CascadeError, (ValueError, RuntimeError))


def test_flag_defaults_are_the_policy_and_grid_defaults():
    parser = cli._build_parser()
    assert cli._template_from_args(parser.parse_args(["run"])) == SessionTemplate()
    for command, run, build, grid in (
        ("sweep-qber", sweep_qber, cli._qber_sweep, QberSweep()),
        ("sweep-length", sweep_length, cli._length_sweep, LengthSweep()),
        ("compare-aggregation", compare_aggregation, cli._length_sweep, LengthSweep()),
    ):
        args = parser.parse_args([command, "--out", "records.csv"])
        assert cli._template_from_args(args) == SessionTemplate()
        assert build(args) == grid
        assert {"base_seed": args.base_seed, "workers": args.workers} == run.__kwdefaults__


def test_sweep_qber_writes_full_grid(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep-qber",
        "--length", "128",
        "--start", "0.01",
        "--step", "0.01",
        "--steps", "3",
        "--repeats", "2",
        "--out", str(out_file),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 6 records" in out
    records = load_records(str(out_file))
    assert len(records) == 6
    assert sorted({r.qber_true for r in records}) == [0.01, 0.02, 0.03]


def test_sweep_length_writes_full_grid(tmp_path, capsys):
    out_file = tmp_path / "lengths.jsonl"
    code = run_cli(
        "sweep-length",
        "--start", "64",
        "--step", "64",
        "--stop", "192",
        "--errors", "2",
        "--repeats", "1",
        "--out", str(out_file),
        "--format", "jsonl",
    )
    capsys.readouterr()
    assert code == 0
    records = load_records(str(out_file))
    assert len(records) == 3
    assert {r.scenario_id for r in records} == {
        "len=64/errors=2", "len=128/errors=2", "len=192/errors=2",
    }
    assert all(r.injected_errors == 2 for r in records)


def test_compare_aggregation_reports_identical_pairs(tmp_path, capsys):
    out_file = tmp_path / "batched.csv"
    code = run_cli(
        "compare-aggregation",
        "--start", "128",
        "--step", "128",
        "--stop", "256",
        "--errors", "3",
        "--repeats", "1",
        "--out", str(out_file),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pairs=2 identical_frames=2" in out
    assert len(load_records(str(out_file))) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--length", "0"), "frame length must be >= 1, got 0"),
        (("run", "--length", "0", "--errors", "3"), "frame length must be >= 1, got 0"),
        (
            ("sweep-qber", "--length", "0", "--steps", "1", "--repeats", "1", "--out", "x.csv"),
            "frame length must be >= 1, got 0",
        ),
        (("compare-aggregation", "--start", "1024", "--stop", "512"), "the length grid is empty"),
        (("compare-aggregation", "--repeats", "0"), "the length grid is empty"),
        (("compare-aggregation", "--step", "0"), "length grid step must be >= 1, got 0"),
        (("sweep-length", "--step", "0", "--out", "y.csv"), "length grid step must be >= 1, got 0"),
        (
            ("sweep-length", "--start", "1024", "--stop", "512", "--out", "y.csv"),
            "the length grid is empty",
        ),
        (("sweep-length", "--repeats", "0", "--out", "y.csv"), "the length grid is empty"),
        (("sweep-qber", "--steps", "0", "--out", "y.csv"), "the error-rate grid is empty"),
        (
            ("sweep-qber", "--length", "64", "--steps", "1", "--repeats", "1", "--workers", "0",
             "--out", "y.csv"),
            "workers must be >= 1, got 0",
        ),
        (
            ("compare-aggregation", "--start", "64", "--stop", "64", "--repeats", "1",
             "--workers", "-3"),
            "workers must be >= 1, got -3",
        ),
    ],
    ids=[
        "run-qber",
        "run-errors",
        "sweep-qber",
        "start-past-stop",
        "no-repeats",
        "compare-step-0",
        "sweep-length-step-0",
        "sweep-length-start-past-stop",
        "sweep-length-no-repeats",
        "sweep-qber-no-steps",
        "sweep-qber-workers-0",
        "compare-workers-negative",
    ],
)
def test_empty_frames_and_grids_are_configuration_errors(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"configuration error: {message}" in err
    assert not list(tmp_path.iterdir())


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cascade_sim.cli", "run", "--length", "64",
         "--errors", "1", "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "status=success" in proc.stdout
