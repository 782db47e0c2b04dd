"""Print a SHA-256 over each workload's transcript bytes.

    python3 perfbench/digest.py [WORKLOAD ...]

The digest covers ``Channel.transcript_bytes()`` of every session of the
workload, concatenated in the workload's list order (sweep trials in grid
order, replayed through ``run_trial_detailed``).  It is informational: a
performance change shows with it that the wire behaviour did not change.
"""

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def transcript_digest(workload) -> str:
    digest = hashlib.sha256()
    for operation in workload.operations():
        output = workloads.run_operation(workload, operation)
        for detail, _, _ in workloads.trial_details(workload, output):
            digest.update(detail.result.channel.transcript_bytes())
    return digest.hexdigest()


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        print(f"{name} {transcript_digest(workloads.WORKLOADS[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
