"""Correctness gate applied to every repetition of a workload.

A repetition passes when both commands exit with the workload's expected
code, the failed in-run verdicts are exactly the workload's known red set,
`verify` fails only its echo of that set, and the calibrated constants
match the reference stored with the benchmark. The known red is reported
by the caller, never filtered out.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-9     # floats may move in the last digits when summation order changes


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_for(reference: dict, workload, seed: int) -> dict:
    """Reference constants that apply at `seed`: all of them at the stored
    seed, otherwise only those that do not depend on the seed."""
    table = reference["constants"][workload.name]
    if seed == reference["seed"]:
        return table
    return {k: v for k, v in table.items() if not k.startswith(workload.seeded)}


def check(obs: dict | None, workload, expected: dict) -> list:
    """(name, passed, detail) for each benchmark check on one process.

    A `verify`-only process gets the checks on `verify` alone.
    """
    if obs is None:
        return [("completed", False, "the process produced no result")]
    checks = [("completed", True, "")]

    def add(name, passed, detail=""):
        checks.append((name, bool(passed), detail))

    code = obs["exit"]["verify"]
    add("verify_exit_code", code == workload.exit_code,
        f"exit {code}, expected {workload.exit_code}")
    verify_red = [v for v in obs["verify"] if not v[1]]
    want = [["stored_verdicts_pass", False, "failed: " + ", ".join(workload.known_red)]] \
        if workload.known_red else []
    add("verify_failures", obs["verify"] and verify_red == want,
        f"{len(obs['verify'])} checks, failed {verify_red}, expected {want}")
    if "all" not in obs["exit"]:
        return checks

    code = obs["exit"]["all"]
    add("all_exit_code", code == workload.exit_code,
        f"exit {code}, expected {workload.exit_code}")
    red = sorted(v[0] for v in obs["verdicts"] if not v[1])
    add("in_run_failures", obs["verdicts"] and red == sorted(workload.known_red),
        f"{len(obs['verdicts'])} verdicts, failed {red}, "
        f"expected {sorted(workload.known_red)}")
    wrong = []
    for key, ref in expected.items():
        got = obs["constants"].get(key)
        if key.endswith("core_radius"):
            ok = got == ref
        else:
            ok = got is not None and math.isclose(got, ref, rel_tol=RTOL, abs_tol=0.0)
        if not ok:
            wrong.append(f"{key}={got!r} (reference {ref!r})")
    add("reference_constants", not wrong,
        "; ".join(wrong) or f"{len(expected)} constants match")
    return checks
