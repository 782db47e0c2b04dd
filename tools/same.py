"""Check that this checkout behaves as a base revision does.

    python3 tools/same.py --base REV [--sessions N] [--seed S] [--messages]

It unpacks REV's ``src/`` into a temporary directory and, on each side, runs
one subprocess over the same seeded draw of N session configurations:
frame length (odd lengths and 1-3 bits included), error rate, schedule,
break rule, permutation kind, query aggregation, parity reuse and driver.
Per session it compares SHA-256 digests of the transcript bytes (of the
message reprs with ``--messages``, for a change of wire layout alone), of
the responder's final frame and of its correction events; a session that
raises compares by its error.  On the first difference it prints that
configuration and the first differing transcript entry, decoded, with its
round, and exits 1; otherwise it exits 0.

This checkout is the side that holds this file.  Both sides run this file's
worker, with ``PYTHONPATH`` naming their ``src/``, so the draw is the same.
Standard library and repository code only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PARTS = ("error", "transcript", "frame", "corrections")


def draw_configs(count: int, seed: int) -> list:
    """``count`` session configurations as plain dicts, from ``seed``."""
    draw = random.Random(seed)
    configs = []
    for _ in range(count):
        tiny = draw.random() < 0.1
        configs.append({
            "length": draw.randint(1, 3) if tiny else draw.randint(4, 4096),
            "qber": round(draw.uniform(0.0, 0.3), 4),
            "qber_estimate": draw.choice((None, round(draw.uniform(0.01, 0.5), 4))),
            "schedule": draw.choice(("static", "dynamic")),
            "growth": draw.randint(2, 4),
            "break": draw.choice((("fixed", 1, 5), ("quiet", 1, 2), ("threshold", 1, 3))),
            "permutation": draw.choice(("lcg", "shuffle")),
            "aggregation": draw.random() < 0.5,
            "reuse": draw.random() < 0.5,
            "driver": draw.choice(("lockstep", "threaded")),
            "seed": draw.getrandbits(32),
        })
        name, low, high = configs[-1]["break"]
        configs[-1]["break"] = [name, draw.randint(low, high)]
    return configs


def run_session(config: dict):
    """Run one drawn session with the ``cascade_sim`` on ``sys.path``."""
    from cascade_sim import Bsc, SessionTemplate, run_trial_detailed
    from cascade_sim.schedule import BREAKS

    name, value = config["break"]
    template = SessionTemplate(
        schedule_variant=config["schedule"],
        growth_factor=config["growth"],
        break_condition=BREAKS[name](value),
        permutation_kind=config["permutation"],
        aggregation=config["aggregation"],
        parity_reuse=config["reuse"],
        qber_estimate=config["qber_estimate"],
    )
    return run_trial_detailed(
        template, config["length"], Bsc(config["qber"]), config["seed"],
        scheduling=config["driver"],
    ).result


def entry_lines(result, messages: bool) -> list:
    """Each transcript entry as ``round, text``; the round is the last one a
    message has named so far (``None`` in the handshake)."""
    lines = []
    round_index = None
    for entry in result.channel.transcript:
        round_index = getattr(entry.message, "round_index", round_index)
        text = f"{entry.direction.value} #{entry.sequence} {entry.message!r}"
        if not messages:
            text += f" bytes={entry.payload.hex()}"
        lines.append((round_index, text))
    return lines


def outcome(config: dict, messages: bool) -> dict:
    """The session's parts as text, and each transcript entry with its
    round; or its error."""
    try:
        result = run_session(config)
    except Exception as exc:  # noqa: BLE001 - a refusal is behaviour too
        return {"error": f"{type(exc).__name__}: {exc}"}
    lines = entry_lines(result, messages)
    responder = result.responder
    return {
        "error": None,
        "transcript": (
            [text for _, text in lines] if messages else result.channel.transcript_bytes().hex()
        ),
        "frame": responder.final_frame.bits.tolist(),
        "corrections": [list(event) for event in responder.corrections],
        "entries": lines,
    }


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def worker(args) -> None:
    """One side: a JSON line of part digests per session, or with ``--dump``
    one session's parts in full."""
    import cascade_sim

    print(json.dumps({"module": cascade_sim.__file__}), flush=True)
    configs = draw_configs(args.sessions, args.seed)
    if args.dump is not None:
        print(json.dumps(outcome(configs[args.dump], args.messages)))
        return
    for config in configs:
        parts = outcome(config, args.messages)
        print(json.dumps({part: digest(parts.get(part)) for part in PARTS}), flush=True)


def unpack_src(rev: str, into: Path) -> None:
    """Write ``rev``'s ``src/`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run_sides(srcs: dict, args, extra=()) -> dict:
    """Run this file's worker once per side, concurrently; each side's lines."""
    procs = {}
    for side, src in srcs.items():
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, __file__, "--worker", "--sessions", str(args.sessions),
                   "--seed", str(args.seed), *(["--messages"] if args.messages else []), *extra]
        procs[side] = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    lines = {}
    for side, proc in procs.items():
        out, _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"same: the {side} worker failed with exit code {proc.returncode}")
        header, *lines[side] = out.splitlines()
        module = Path(json.loads(header)["module"])
        if srcs[side] not in module.parents:
            raise SystemExit(f"same: the {side} worker imported {module}, not {srcs[side]}")
    return lines


def first_difference(old: list, new: list) -> int:
    """The first index at which two lists differ (the shorter one's length
    when one extends the other)."""
    return next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]),
                min(len(old), len(new)))


def report(index: int, config: dict, srcs: dict, args) -> None:
    """Print the first difference of session ``index`` between the sides."""
    dumped = run_sides(srcs, args, ("--dump", str(index)))
    base, change = (json.loads(dumped[side][0]) for side in ("base", "change"))
    print(f"session {index} differs: {json.dumps(config)}")
    if base["error"] or change["error"]:
        print(f"  base:   {base['error'] or 'no error'}\n  change: {change['error'] or 'no error'}")
        return
    for part in ("entries", "frame", "corrections"):
        old, new = base[part], change[part]
        if old == new:
            continue
        at = first_difference(old, new)
        items = [side[at] if at < len(side) else None for side in (old, new)]
        if part == "entries":
            round_index = next(item[0] for item in items if item is not None)
            where = "the handshake" if round_index is None else f"round {round_index}"
            print(f"  entry {at}, in {where}:")
            items = [None if item is None else item[1] for item in items]
        else:
            print(f"  {part}[{at}]:")
        for side, item in zip(("base", "change"), items):
            print(f"    {side + ':':8}{'(none: it ends before)' if item is None else item}")
        return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the git revision to compare against")
    parser.add_argument("--sessions", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--messages", action="store_true",
                        help="compare message reprs instead of transcript bytes")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dump", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args)
        return 0
    if args.base is None:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory() as tmp:
        unpack_src(args.base, Path(tmp))
        srcs = {"base": Path(tmp) / "src", "change": ROOT / "src"}
        lines = run_sides(srcs, args)
        configs = draw_configs(args.sessions, args.seed)
        for index, (old, new) in enumerate(zip(lines["base"], lines["change"])):
            if old != new:
                report(index, configs[index], srcs, args)
                return 1
    what = "message reprs" if args.messages else "transcript bytes"
    print(f"same: {args.sessions} sessions (seed {args.seed}) against {args.base}: "
          f"no difference in {what}, final frames, correction events or errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
