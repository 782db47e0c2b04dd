"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run times whole passes over the
workload's fixed operations, in an order shuffled by ``--seed``, until
``--seconds`` have passed, and reports the end-to-end metrics.  With
``--trace 1`` every operation runs once plain and once under the layer
wrappers of ``layers.py``, and the run reports the per-layer metrics.  The
last line of standard output is the result object; the line before it
holds the raw (uncorrected) figures, and a layer split goes to standard
error.  Exit status is 0 only when every check passed.
"""

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 5  # this process plus four fresh ones


def load_program() -> None:
    """Import ``cascade_sim`` from the checkout's ``src/`` and nowhere else."""
    package = SRC / "cascade_sim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import cascade_sim

    if Path(cascade_sim.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported cascade_sim from {cascade_sim.__file__}, not {package}")


load_program()  # the modules below import cascade_sim

import checks  # noqa: E402
import layers  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def warm_up(workload) -> None:
    """One untimed session, so lazy imports and first-call costs are paid."""
    from cascade_sim import Bsc, harness

    if workload.sweep is not None:
        qber, seed, _, _ = workloads.sweep_trials(workload)[0]
        harness.run_trial_detailed(workload.template, workload.length, Bsc(qber), seed)
    else:
        workloads.run_operation(workload, workload.operations()[0])


def setup_probe(workload_name: str) -> tuple[float, float]:
    """Raw set-up time of a fresh interpreter, and its reference time."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    raw, reference = done.stdout.split()[-2:]
    return float(raw), float(reference)


def settled_reference(workload, window_s: float, live_threads: int) -> float:
    """The reference, timed once the last operation's garbage and threads are gone.

    The caller drops the operation's output first, so what the reference
    measures is the machine, not what the program left behind.
    """
    gc.collect()
    checks.require(
        threading.active_count() == live_threads,
        f"{threading.active_count() - live_threads} thread(s) still running after the operation",
    )
    return refclock.reference_seconds(window_s, threads=workload.workers)


def timed(workload, operation):
    """Run one operation after a collection; return its output, wall and CPU seconds."""
    gc.collect()
    cpu_started, started = os.times(), time.perf_counter()
    output = workloads.run_operation(workload, operation)
    wall = time.perf_counter() - started
    return output, wall, sum(os.times()[:4]) - sum(cpu_started[:4])


def measure(workload, args):
    """The untraced run: whole passes until ``--seconds`` have passed."""
    order_rng = random.Random(args.seed)
    operations = list(workload.operations())
    facts, signatures = {}, {}
    op_corrected, op_raw = defaultdict(list), defaultdict(list)
    session_corrected, session_raw, references = [], [], []
    attempted = failed = passes = 0
    live_threads = threading.active_count()
    ref_before = settled_reference(workload, 0.0, live_threads)
    references.append(ref_before)
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < args.seconds:
        order_rng.shuffle(operations)
        for operation in operations:
            output, raw, _ = timed(workload, operation)
            if operation in signatures:
                workloads.verify_repeat(workload, output, signatures[operation])
            else:
                facts[operation], signatures[operation] = workloads.verify_first(workload, output)
            records = workloads.records_of(workload, output)
            # The harness's own timer covers run_session_pair only; it must
            # fit inside the call the benchmark timed.
            checks.require(all(r.wall_time <= raw for r in records), "record wall_time exceeds the call")
            walls = [r.wall_time for r in records]
            attempted += len(records)
            failed += sum(not r.success for r in records)
            del output, records
            ref_after = settled_reference(workload, refclock.WINDOW_SHARE * raw, live_threads)
            references.append(ref_after)
            scale = refclock.correct(1.0, ref_before, ref_after)
            ref_before = ref_after
            op_raw[operation].append(raw)
            op_corrected[operation].append(raw * scale)
            session_raw.extend(walls)
            session_corrected.extend(wall * scale for wall in walls)
        passes += 1

    sessions = [fact for per_op in facts.values() for fact in per_op]
    bits = sum(fact["bits"] for fact in sessions)
    leak_efficiency = sum(f["disclosed"] for f in sessions) / sum(f["leak_floor"] for f in sessions)
    checks.require(leak_efficiency > 1.0, f"leak efficiency {leak_efficiency} is not above 1")
    metrics = {
        "frame_bits_per_s": (bits / sum(statistics.median(v) for v in op_corrected.values()), "bit/s"),
        "session_ms_p50": (statistics.median(session_corrected) * 1000.0, "ms"),
        "wire_bytes_per_session": (sum(f["wire_bytes"] for f in sessions) / len(sessions), "bytes"),
        "leak_efficiency_f": (leak_efficiency, "ratio"),
    }
    raw = {
        "frame_bits_per_s": bits / sum(statistics.median(v) for v in op_raw.values()),
        "session_ms_p50": statistics.median(session_raw) * 1000.0,
        "reference_ms_p50": statistics.median(references) * 1000.0,
        "passes": passes,
        "sessions_timed": len(session_raw),
    }
    return metrics, raw, attempted, failed


def measure_traced(workload, args):
    """Each operation runs plain, then under the wrappers; layer figures per session."""
    order_rng = random.Random(args.seed)
    operations = list(workload.operations())
    tracer = layers.Tracer()
    signatures = {}
    attempted = failed = passes = traced_sessions = 0
    overhead = cpu = wall = 0.0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < args.seconds:
        order_rng.shuffle(operations)
        for operation in operations:
            output, plain, plain_cpu = timed(workload, operation)
            cpu += plain_cpu
            wall += plain
            if operation in signatures:
                workloads.verify_repeat(workload, output, signatures[operation])
            else:
                _, signatures[operation] = workloads.verify_first(workload, output)
            tracer.install()
            try:
                traced_output, traced, _ = timed(workload, operation)
            finally:
                tracer.uninstall()
            tracer.end_operation()
            workloads.verify_repeat(workload, traced_output, signatures[operation])
            overhead += traced - plain
            for out in (output, traced_output):
                records = workloads.records_of(workload, out)
                attempted += len(records)
                failed += sum(not r.success for r in records)
            traced_sessions += workload.sessions_per_operation()
        passes += 1

    figures = tracer.metrics(traced_sessions)
    figures["harness.cpu_per_wall"] = (cpu / wall, "ratio")
    figures["trace.overhead_ms"] = (overhead * 1000.0 / traced_sessions, "ms")
    print_layer_split(workload.name, figures)
    return figures, {"passes": passes, "sessions_traced": traced_sessions}, attempted, failed


def print_layer_split(name, figures) -> None:
    """Share of traced session time per layer, to standard error."""
    session = figures["engine.session_ms"][0]
    split = {
        "permutation": figures["bitframe.permutation_ms"][0],
        "paritytree.update": figures["paritytree.update_ms"][0],
        "paritytree.query": figures["paritytree.query_ms"][0],
        "binary_search": figures["binary_search.ms"][0],
        "schedule": figures["schedule.ms"][0],
        "channel+handoff": figures["channel.codec_ms"][0]
        + figures["channel.send_self_ms"][0]
        + figures["channel.recv_wait_ms"][0],
        "fingerprint": figures["engine.fingerprint_ms"][0],
    }
    # engine.self_ms plus round_mapping's own time outside the permutation
    split["engine (rest)"] = session - sum(split.values())
    shares = ", ".join(f"{layer} {100.0 * ms / session:.1f}%" for layer, ms in split.items())
    print(f"layer split {name} ({session:.1f} ms/session traced): {shares}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if workload.workers == 1:
        # One CPU for the parties, the reference and the set-up probes: the
        # two vCPUs of a shared host drift apart in speed, and a thread
        # hand-off across them slows far more under load than the reference.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warm_up(workload)
    setup = time.perf_counter() - _STARTED
    gc.collect()
    own_setup = (setup, refclock.reference_seconds(refclock.SETUP_WINDOW_SHARE * setup))
    if args.setup_probe:
        print(*own_setup)
        return 0

    correct = True
    try:
        if args.trace:
            metrics, raw, attempted, failed = measure_traced(workload, args)
        else:
            setup = [own_setup] + [setup_probe(args.workload) for _ in range(SETUP_SAMPLES - 1)]
            metrics, raw, attempted, failed = measure(workload, args)
            corrected = [refclock.correct(seconds, ref, ref) for seconds, ref in setup]
            metrics["setup_s"] = (statistics.median(corrected), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            raw["setup_s"] = statistics.median(seconds for seconds, _ in setup)
    except checks.CheckError as error:
        print(f"perfbench: check failed on {args.workload}: {error}", file=sys.stderr)
        correct, metrics, raw, attempted, failed = False, {}, {}, 1, 0
    print(json.dumps({"raw": raw}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
