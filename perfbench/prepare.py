"""One set-up of a workload, in the fresh interpreter that `run.py` starts.

    python3 perfbench/prepare.py WORKLOAD INPUTS_JSON WORKDIR

Exit code 1 means a set-up step failed; the reason is on standard error.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, SetupFailed  # noqa: E402


def main(argv: list[str]) -> int:
    name, inputs, workdir = argv
    try:
        WORKLOADS[name].prepare(json.loads(inputs), Path(workdir))
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
