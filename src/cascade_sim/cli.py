"""Command-line front end.

Subcommands:

    run                  one reconciliation session, one summary line
    sweep-qber           error-rate grid -> records file
    sweep-length         frame-length grid -> records file
    compare-aggregation  paired batching-off/on runs -> records file

Session policy flags are shared by all subcommands and may also be given
in a JSON config file (``--config``); explicit flags win over the file,
which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import List, Optional

from .bitframe import PERMUTATION_KINDS, Bsc, FixedErrors
from .channel import write_transcript
from .engine import DRIVERS
from .errors import CascadeError, ConfigurationError
from .harness import (
    FORMATS,
    LengthSweep,
    QberSweep,
    SessionTemplate,
    compare_aggregation,
    export_records,
    run_trial_detailed,
    sweep_length,
    sweep_qber,
)
from .schedule import BREAKS, SCHEDULES


_WORKERS_HELP = (
    "run trials in this many processes, this one included, at most one per usable "
    "CPU; the records equal a serial run's"
)
_FORMAT_HELP = "records file format (default: jsonl for a .jsonl path, else csv)"


def _parse_break(text: str):
    kind, _, value = text.partition(":")
    if not value:
        raise ConfigurationError(
            f"break condition {text!r} must look like fixed:4, quiet:2 or threshold:1"
        )
    try:
        number = int(value)
    except ValueError:
        raise ConfigurationError(f"break condition parameter must be an integer: {text!r}")
    if kind not in BREAKS:
        raise ConfigurationError(f"unknown break condition kind: {kind!r}")
    return BREAKS[kind](number)


def _on_off(value: bool) -> str:
    return "on" if value else "off"


def _add_template_flags(parser: argparse.ArgumentParser) -> None:
    """The session policy flags; their defaults are ``SessionTemplate``'s."""
    parser.add_argument(
        "--schedule",
        choices=tuple(SCHEDULES),
        default=SessionTemplate.schedule_variant,
        help="block-size schedule: geometric growth or corrections-adaptive",
    )
    parser.add_argument(
        "--growth-factor",
        type=int,
        default=SessionTemplate.growth_factor,
        help="growth factor for the static schedule (default %(default)s)",
    )
    parser.add_argument(
        "--qber-estimate",
        type=float,
        default=None,
        help="error-rate estimate for block sizing (default: the true rate)",
    )
    parser.add_argument(
        "--break",
        dest="break_spec",
        default="fixed:4",
        help="termination rule: fixed:N rounds, quiet:N silent rounds, threshold:N corrections",
    )
    parser.add_argument(
        "--permutation",
        choices=PERMUTATION_KINDS,
        default=SessionTemplate.permutation_kind,
        help="round permutation family",
    )
    parser.add_argument(
        "--aggregation",
        choices=("on", "off"),
        default=_on_off(SessionTemplate.aggregation),
        help="batch a wave's parity queries into one message per round",
    )
    parser.add_argument(
        "--parity-reuse",
        choices=("on", "off"),
        default=_on_off(SessionTemplate.parity_reuse),
        help="serve search steps from already-known parities when possible",
    )
    parser.add_argument("--config", default=None, help="JSON file with defaults for these flags")


def _add_length_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--start", type=int, default=LengthSweep.start)
    parser.add_argument("--step", type=int, default=LengthSweep.step)
    parser.add_argument("--stop", type=int, default=LengthSweep.stop)
    parser.add_argument("--errors", type=int, default=LengthSweep.fixed_errors)


def _add_sweep_flags(parser: argparse.ArgumentParser, run, grid: type, **out) -> None:
    """The flags every sweep takes after its grid, with the defaults of the
    sweep function ``run`` and its grid class ``grid``; ``out`` configures
    ``--out``."""
    defaults = run.__kwdefaults__
    parser.add_argument("--repeats", type=int, default=grid.repeats)
    parser.add_argument("--base-seed", type=int, default=defaults["base_seed"])
    parser.add_argument("--workers", type=int, default=defaults["workers"], help=_WORKERS_HELP)
    parser.add_argument("--out", **out)
    parser.add_argument("--format", choices=FORMATS, help=_FORMAT_HELP)
    _add_template_flags(parser)


def _template_from_args(args: argparse.Namespace) -> SessionTemplate:
    return SessionTemplate(
        schedule_variant=args.schedule,
        growth_factor=args.growth_factor,
        break_condition=_parse_break(args.break_spec),
        permutation_kind=args.permutation,
        aggregation=args.aggregation == "on",
        parity_reuse=args.parity_reuse == "on",
        qber_estimate=args.qber_estimate,
    )


def _config_value(key: str, action: argparse.Action, value):
    """Convert one config file value as argparse converts the flag's text:
    through the action's type, then against its choices."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigurationError(
            f"config file key {key!r} must be a string or a number, got {value!r}"
        )
    try:
        converted = str(value) if action.type is None else action.type(str(value))
    except ValueError as exc:
        raise ConfigurationError(f"config file key {key!r} has an invalid value {value!r}: {exc}")
    if action.choices is not None and converted not in action.choices:
        allowed = ", ".join(map(str, action.choices))
        raise ConfigurationError(
            f"config file key {key!r} must be one of {allowed}, got {value!r}"
        )
    return converted


def _apply_config_file(parser: argparse.ArgumentParser, argv: List[str]) -> None:
    """Fold --config file values in as the subcommand's parser defaults."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    try:
        with open(known.config) as handle:
            loaded = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {known.config!r}: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigurationError("config file must hold a JSON object")
    subparsers = {
        name: sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }
    all_dests = {action.dest for sub in subparsers.values() for action in sub._actions}
    dests = {}
    for key in loaded:
        dest = key.replace("-", "_")
        if dest == "break":
            dest = "break_spec"
        if dest not in all_dests:
            raise ConfigurationError(f"unknown config file key: {key!r}")
        dests[key] = dest
    # The subcommand comes first (the top-level parser takes no other
    # options); argparse itself reports a missing or unknown one.
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        return
    # Keys of other subcommands are ignored; explicit flags still win at
    # parse time.
    actions = {action.dest: action for action in sub._actions}
    sub.set_defaults(
        **{
            dest: _config_value(key, actions[dest], loaded[key])
            for key, dest in dests.items()
            if dest in actions
        }
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-sim",
        description="Interactive-reconciliation simulator for noisy shared bit frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one session and print a summary line")
    run_parser.add_argument("--length", type=int, default=4096, help="frame length in bits")
    run_parser.add_argument("--qber", type=float, default=0.02, help="channel flip probability")
    run_parser.add_argument(
        "--errors", type=int, default=None, help="inject exactly N errors instead of --qber"
    )
    run_parser.add_argument("--seed", type=int, default=1, help="trial seed")
    run_parser.add_argument(
        "--scheduling",
        choices=tuple(DRIVERS),
        default="lockstep",
        help="drive both parties on one thread or on two",
    )
    run_parser.add_argument("--transcript", default=None, help="write the wire transcript here")
    run_parser.add_argument(
        "--out",
        default=None,
        help="write the trial record to this file, as JSON lines for a .jsonl path, else CSV",
    )
    run_parser.add_argument("--format", choices=FORMATS, help=_FORMAT_HELP)
    _add_template_flags(run_parser)

    qber_parser = sub.add_parser("sweep-qber", help="sweep the channel error rate")
    qber_parser.add_argument("--length", type=int, default=QberSweep.length)
    qber_parser.add_argument("--start", type=float, default=QberSweep.start)
    qber_parser.add_argument("--step", type=float, default=QberSweep.step)
    qber_parser.add_argument("--steps", type=int, default=QberSweep.steps)
    _add_sweep_flags(
        qber_parser, sweep_qber, QberSweep, required=True, help="records file to write"
    )

    length_parser = sub.add_parser("sweep-length", help="sweep the frame length")
    _add_length_grid_flags(length_parser)
    _add_sweep_flags(
        length_parser, sweep_length, LengthSweep, required=True, help="records file to write"
    )

    cmp_parser = sub.add_parser(
        "compare-aggregation", help="paired runs with query batching off and on"
    )
    _add_length_grid_flags(cmp_parser)
    _add_sweep_flags(
        cmp_parser,
        compare_aggregation,
        LengthSweep,
        default=None,
        help="write batched-run records here",
    )

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    template = _template_from_args(args)
    noise = FixedErrors(args.errors) if args.errors is not None else Bsc(args.qber)
    detail = run_trial_detailed(
        template,
        args.length,
        noise,
        args.seed,
        scenario_id="cli-run",
        scheduling=args.scheduling,
    )
    record = detail.record
    transcript = detail.result.channel.transcript
    if args.transcript:
        write_transcript(args.transcript, transcript)
    if args.out:
        export_records([record], args.out, args.format)
    print(
        "status={} rounds={} corrected={} residual={} parity_bits={} "
        "parity_fraction={:.4f} messages={} wire_bytes={} wall={:.3f}s".format(
            "success" if record.success else "failure",
            record.rounds_executed,
            record.corrected_errors,
            record.residual_errors,
            record.parity_bits_disclosed,
            record.parity_fraction,
            record.messages_sent,
            sum(len(entry.payload) for entry in transcript),
            record.wall_time,
        )
    )
    return 0 if record.success else 1


def _qber_sweep(args: argparse.Namespace) -> QberSweep:
    return QberSweep(args.start, args.step, args.steps, args.length, args.repeats)


def _length_sweep(args: argparse.Namespace) -> LengthSweep:
    return LengthSweep(args.start, args.step, args.stop, args.errors, args.repeats)


def _empty_grid(args: argparse.Namespace, grid: str, bound: str) -> ConfigurationError:
    """The error for a sweep whose flags give no trials; ``bound`` names its last flag."""
    return ConfigurationError(
        f"the {grid} grid is empty: --start {args.start} --step {args.step} "
        f"{bound} with --repeats {args.repeats} gives no trials"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.command == "sweep-qber":
        sweep = _qber_sweep(args)
        run, grid, bound = sweep_qber, "error-rate", f"--steps {args.steps}"
    else:
        sweep = _length_sweep(args)
        run, grid, bound = sweep_length, "length", f"--stop {args.stop}"
    records = run(_template_from_args(args), sweep, base_seed=args.base_seed, workers=args.workers)
    if not records:
        raise _empty_grid(args, grid, bound)
    export_records(records, args.out, args.format)
    successes = sum(1 for r in records if r.success)
    print(f"wrote {len(records)} records to {args.out} ({successes} successful)")
    return 0


def _cmd_compare_aggregation(args: argparse.Namespace) -> int:
    template = _template_from_args(args)
    sweep = _length_sweep(args)
    outcomes = compare_aggregation(template, sweep, base_seed=args.base_seed, workers=args.workers)
    if not outcomes:
        raise _empty_grid(args, "length", f"--stop {args.stop}")
    identical = sum(1 for o in outcomes if o.frames_identical)
    reductions = [
        1.0 - o.batched.messages_sent / o.unbatched.messages_sent for o in outcomes
    ]
    if args.out:
        export_records([o.batched for o in outcomes], args.out, args.format)
        print(f"wrote {len(outcomes)} batched records to {args.out}")
    print(
        "pairs={} identical_frames={} median_message_reduction={:.1%}".format(
            len(outcomes), identical, statistics.median(reductions)
        )
    )
    return 0 if identical == len(outcomes) else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        handler = {
            "run": _cmd_run,
            "sweep-qber": _cmd_sweep,
            "sweep-length": _cmd_sweep,
            "compare-aggregation": _cmd_compare_aggregation,
        }[args.command]
        return handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CascadeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
