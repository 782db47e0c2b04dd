"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--seconds S]

The defaults are the workloads and run length of ``BENCHMARK.json``.

Runs ``run.py --trace 0`` once per (workload, seed), one process at a
time, and prints per workload and metric the median, the quartiles and the
inter-quartile distance as a share of the median, for the corrected metrics
and for the raw figures beside them.  Each run's result goes to
``.perfbench-out/`` at the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2])["raw"]
    result["stderr"] = done.stderr
    return result


def spread(values: list) -> str:
    if len(values) < 2:
        return f"value {values[0]:.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else 0.0
    return f"median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {100 * share:.2f}%"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, args.seconds)
            (OUT / f"{workload}-seed{seed}.json").write_text(json.dumps(result, indent=1))
            results.append(result)
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"{workload}: {len(results)} runs, failed/attempted {sorted(shares)}")
        for name in results[0]["metrics"]:
            print(f"  {name:34s} {spread([r['metrics'][name]['value'] for r in results])}")
        for name, value in results[0]["raw"].items():
            if isinstance(value, (int, float)):
                print(f"  raw {name:30s} {spread([r['raw'][name] for r in results])}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
