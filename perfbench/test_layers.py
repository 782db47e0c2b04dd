"""Smoke test for the layer tracer.

    python3 -m pytest -q perfbench/test_layers.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cascade_sim import Bsc, SessionTemplate, channel, harness  # noqa: E402

import layers  # noqa: E402


def _current():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr in layers.Tracer.targets()]


def _traced_trial(template, scheduling):
    tracer = layers.Tracer()
    tracer.install()
    try:
        detail = harness.run_trial_detailed(template, 1024, Bsc(0.04), 7, scheduling=scheduling)
    finally:
        tracer.uninstall()
    tracer.end_operation()
    return detail, tracer.metrics(1)


def test_uninstall_restores_every_original():
    before = _current()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in before)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)


@pytest.mark.parametrize("aggregation", [False, True])
@pytest.mark.parametrize("scheduling", ["lockstep", "threaded"])
def test_counts_agree_with_the_transcript(scheduling, aggregation, monkeypatch):
    # Count codec calls beneath the tracer's wrappers, which wrap these.
    codec_calls = []
    for name in ("encode_message", "decode_message"):
        original = getattr(channel, name)

        def counted(*args, _original=original, **kwargs):
            codec_calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(channel, name, counted)

    template = SessionTemplate(aggregation=aggregation)
    detail, metrics = _traced_trial(template, scheduling)
    transcript = detail.result.channel.transcript
    answers = sum(
        len(entry.message.entries)
        for entry in transcript
        if type(entry.message).__name__ == "ParityAnswer"
    )
    assert metrics["channel.messages"][0] == len(transcript)
    # Probe answers make up the answer entries that no search step consumed.
    assert 0 < metrics["binary_search.steps_wire"][0] <= answers
    assert metrics["engine.round_mapping_calls"][0] >= detail.record.rounds_executed
    codec_per_message = metrics["channel.codec_calls_per_message"][0]
    assert codec_per_message * len(transcript) == pytest.approx(len(codec_calls))
    assert metrics["engine.self_ms"][0] > 0.0

    monkeypatch.undo()
    plain = harness.run_trial_detailed(template, 1024, Bsc(0.04), 7, scheduling=scheduling)
    assert plain.result.channel.transcript_bytes() == detail.result.channel.transcript_bytes()
