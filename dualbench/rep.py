"""One repetition of a benchmark workload, in a fresh interpreter.

usage: python3 rep.py MODE CONFIG OUT_DIR SEED RESULT_JSON SPAWNED_AT

MODE is `run` (`dualdecay all` then `dualdecay verify` through
`cli.main`, in-process), `trace` (the same with every layer wrapped in
spans) or `verify` (`dualdecay verify` alone, over the artifacts a `run`
left in OUT_DIR). SPAWNED_AT is the parent's
`time.monotonic()` just before it started this process; `setup_s` runs
from there to the end of `cli.load_config`, which every CLI invocation
pays before its first stage. Each command is bracketed by speed probes.
The observations go to RESULT_JSON.
"""

import sys
import time

SPEED_REF_S = 0.030     # a typical speed_probe() time on the reference machine


def speed_probe() -> float:
    """Seconds for a fixed interpreted loop and CSV-style float formatting,
    calling no dualdecay code.

    Timed in the same process just before and after each command, it
    measures how fast the shared machine runs at that moment.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i % 7
    "\n".join(f"{i} {-i} {i / 7!r}" for i in range(12_000))
    return time.perf_counter() - t0


def run_workload(config, out_dir, seed, tracer=None) -> dict:
    """Run `all` then `verify` on `config`; return timings, speed probes,
    exit codes and what the outputs show. The CLI's stdout is captured."""
    import contextlib
    import io

    from dualdecay import cli

    base = ["--config", str(config), "--out", str(out_dir), "--seed", str(seed)]
    seconds, codes, printed = {}, {}, {}
    probes = [speed_probe()]
    for stage in ("all", "verify"):
        if tracer is not None:
            tracer.run = stage
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            codes[stage] = cli.main([stage, *base])
            seconds[stage] = time.perf_counter() - t0
        printed[stage] = buf.getvalue()
        probes.append(speed_probe())
    obs = observe(out_dir, printed["verify"])
    obs.update(all_s=seconds["all"], verify_s=seconds["verify"], exit=codes,
               probe_s={"all": (probes[0] + probes[1]) / 2,
                        "verify": (probes[1] + probes[2]) / 2})
    return obs


def run_verify(config, out_dir) -> dict:
    """Run `verify` alone over the artifacts in `out_dir`."""
    import contextlib
    import io

    from dualdecay import cli

    before = speed_probe()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(["verify", "--config", str(config), "--out", str(out_dir)])
        seconds = time.perf_counter() - t0
    return {"verify_s": seconds, "exit": {"verify": code},
            "verify": parse_verify(buf.getvalue()),
            "probe_s": {"verify": (before + speed_probe()) / 2}}


def parse_verify(output) -> list:
    """[name, passed, detail] for each check line `verify` printed."""
    import re

    return [[m[2], m[1] == "pass", m[3]] for m in re.finditer(
        r"^\[(pass|FAIL)\] ([^:]+): value=.*?(?: \((.*)\))?$", output, re.M)]


def observe(out_dir, verify_output) -> dict:
    """Verdicts, constants, problem sizes and artifact totals of one run."""
    import json
    import os

    from dualdecay.lattice import Grid

    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    s = report["settings"]
    verdicts = [[v["name"], v["passed"], v["value"], v["threshold"]]
                for v in report["invariants"]]
    constants = {"E_emp": report["calibration"]["E_emp"]}
    for name, fam in report["families"].items():
        for key in ("A_est", "C_meas", "D_emp", "core_radius"):
            constants[f"{name}.{key}"] = fam[key]
    nodes = (2 * s["radii"][-1] + 1) ** s["d"]
    points = Grid(h=s["grid_h"], R=s["grid_R"], d=s["d"]).n_points
    files = [os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs]
    return {
        "verdicts": verdicts,
        "verify": parse_verify(verify_output),
        "constants": constants,
        "core_radii": [fam["core_radius"] for fam in report["families"].values()],
        "sizes": {
            "window_nodes": nodes,
            "grid_points": points,
            "families": len(report["families"]),
            "core_duals": sum((2 * fam["core_radius"] + 1) ** s["d"]
                              for fam in report["families"].values()),
            "sample_matrix_bytes": nodes * points * 8,
            "artifact_bytes": sum(os.path.getsize(f) for f in files),
            "artifact_files": len(files),
        },
    }


def main(argv) -> int:
    mode, config, out_dir, seed, result_path, spawned_at = argv
    from dualdecay import cli
    cli.load_config(config, out_override=out_dir, seed_override=int(seed))
    result = {"setup_s": time.monotonic() - float(spawned_at)}
    result["setup_probe_s"] = speed_probe()

    import json
    import resource

    if mode == "run":
        result.update(run_workload(config, out_dir, seed))
    elif mode == "trace":
        from spans import Tracer
        with Tracer() as tracer:
            result.update(run_workload(config, out_dir, seed, tracer))
        result["spans"] = tracer.records()
    elif mode == "verify":
        result.update(run_verify(config, out_dir))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
