"""Write reference.json: the verdicts every workload must reproduce.

    python3 perfbench/record_reference.py

Run this only on a commit whose verdicts are known to be right; the
benchmark then fails any later pass whose verdicts differ.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from triple_lab.repro import DEFAULT_SEED  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, (setup, run) in workloads.WORKLOADS.items():
            ops = workloads.Ops()
            verdicts, _ = run(setup(DEFAULT_SEED, workdir), ops)
            if ops.errors:
                raise SystemExit(f"{name}: {ops.errors}")
            reference[name] = verdicts
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
