"""Regenerate reference.json: each workload's calibrated constants at the
reference seed, as `report.json` records them.

usage: python3 dualbench/make_reference.py   (from the root of a checkout)

Regenerate only for a deliberate change of the program's results, and say
in that change which constants moved and why.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1234


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import gate
    from rep import run_workload
    from workloads import WORKLOADS

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS.values():
            config = workload.write_config(SEED, Path(tmp))
            obs = run_workload(config, Path(tmp) / workload.name, SEED)
            table[workload.name] = obs["constants"]
            print(f"{workload.name}: {len(obs['constants'])} constants")
    with open(gate.REFERENCE, "w") as fh:
        json.dump({"seed": SEED, "constants": table}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
