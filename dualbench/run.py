"""dualdecay benchmark: wall time of `dualdecay all`, then `dualdecay verify`.

usage: python3 dualbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. The load is a closed loop with one client. Each process (rep.py)
is a fresh interpreter with one BLAS thread and starts after the previous
one has ended. A cycle is one process running `all` then `verify` into a
fresh directory under `.bench_work/`, then VERIFY_ONLY processes running
`verify` alone over those artifacts, which are removed afterwards. Cycles
repeat until the next one would overrun S seconds. Every process passes
the correctness gate (gate.py) or counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians.
The times are scaled to the reference machine speed by the speed probes
timed around each command (rep.speed_probe); raw medians are printed too.
--trace 1 alternates untraced and traced `all` + `verify` processes and
reports the per-layer metrics, medians over the traced ones. Progress goes
to stdout; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from rep import SPEED_REF_S  # noqa: E402
from spans import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VERIFY_ONLY = 2         # extra `verify` processes per repetition of `all`
HARD_LIMIT_S = 150.0    # a run must end well within the 180 s allowed


def checkout_problem():
    """Why ROOT is not a checkout the benchmark can run in, or None."""
    for rel in ("src/dualdecay/cli.py", "configs/d1_suite.ini", "configs/d1_large.ini",
                "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            return f"missing {rel} under {ROOT}"
    return None


class Runner:
    """Starts repetitions of one workload config, each in a fresh process."""

    def __init__(self, workload, seed, work: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = started
        self.config = workload.write_config(seed, work)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{v: str(BLAS_THREADS) for v in BLAS_VARS})

    def spawn(self, mode, out: Path):
        """One process; its observations, or None when it failed."""
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        budget = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "rep.py"), mode, str(self.config), str(out),
                 str(self.seed), str(result), repr(time.monotonic())],
                env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                timeout=budget, check=False)
        except subprocess.TimeoutExpired:
            print(f"{mode} process killed after {budget:.0f} s")
            return None
        if proc.returncode != 0 or not result.is_file():
            print(f"{mode} process exited with code {proc.returncode}")
            return None
        with open(result) as fh:
            return json.load(fh)

    def cycle(self, modes):
        """One process per mode; a `verify` process reads the artifacts the
        process before it wrote. Artifacts are removed afterwards."""
        results, outs = [], []
        for mode in modes:
            if mode != "verify":
                outs.append(Path(tempfile.mkdtemp(prefix="out-", dir=self.work)))
            results.append(self.spawn(mode, outs[-1]))
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        return results

    def repeat(self, modes, deadline):
        """Run cycles until the next one would pass `deadline`."""
        results, cycle_s = [], []
        while True:
            t0 = time.monotonic()
            results.append(self.cycle(modes))
            cycle_s.append(time.monotonic() - t0)
            now = time.monotonic()
            if now + statistics.median(cycle_s) > deadline or \
                    now - self.started + 2 * max(cycle_s) > HARD_LIMIT_S:
                return results


def gate_processes(workload, seed, procs):
    """Gate every process; print what each shows, known red included."""
    expected = gate.reference_for(gate.load_reference(), workload, seed)
    counts = {"procs": 0, "procs_failed": 0, "checks": 0, "checks_passed": 0}
    for i, obs in enumerate(procs, 1):
        checks = gate.check(obs, workload, expected)
        passed = [c[1] for c in checks]
        if obs is not None:
            passed += [v[1] for v in obs.get("verdicts", [])] + [v[1] for v in obs["verify"]]
        counts["procs"] += 1
        counts["procs_failed"] += not all(c[1] for c in checks)
        counts["checks"] += len(passed)
        counts["checks_passed"] += sum(passed)
        if obs is not None:
            line = f"process {i}: setup {obs['setup_s']:.3f} s, "
            if "all_s" in obs:
                line += f"all {obs['all_s']:.3f} s (exit {obs['exit']['all']}), "
            print(line + f"verify {obs['verify_s']:.3f} s (exit {obs['exit']['verify']}), "
                  f"peak RSS {obs['peak_rss_mb']:.1f} MB, {sum(passed)}/{len(passed)} "
                  "checks pass")
            for name, ok, value, threshold in obs.get("verdicts", []):
                if not ok:
                    tag = "known red, expected" if name in workload.known_red else "UNEXPECTED"
                    print(f"  [FAIL] {name}: value={value!r} threshold={threshold!r} ({tag})")
        for name, ok, detail in checks:
            if not ok:
                print(f"  gate FAIL {name}: {detail}")
    return counts


def at_reference_speed(obs, stage) -> float:
    """The stage's wall time scaled by the speed probe timed around it."""
    probe = obs["setup_probe_s"] if stage == "setup" else obs["probe_s"][stage]
    return obs[f"{stage}_s"] * SPEED_REF_S / probe


def print_sizes(obs):
    s = obs["sizes"]
    print(f"problem: {s['window_nodes']} window nodes x {s['grid_points']} grid points, "
          f"{s['families']} families, {s['core_duals']} core duals, "
          f"{s['sample_matrix_bytes'] / 1e6:.1f} MB per sampled basis matrix (computed), "
          f"{s['artifact_bytes'] / 1e6:.2f} MB in {s['artifact_files']} artifact files")


def layer_metrics(obs) -> dict:
    """Per-layer numbers of one traced repetition, named as in BENCHMARK.json."""
    spans = obs["spans"]
    total = summarize(spans)
    in_all = summarize([r for r in spans if r["run"] == "all"])

    def incl(name):
        return total.get(name, {}).get("incl_s", 0.0)

    def own(name):
        return total.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return total.get(name, {}).get("calls", 0)

    def count(name, key):
        return total.get(name, {}).get("counts", {}).get(key, 0)

    return {
        "lattice.sample_all_calls": calls("lattice.sample_all"),
        "lattice.sample_all_s": incl("lattice.sample_all"),
        "lattice.sampled_entries": count("lattice.sample_all", "sampled_entries"),
        "lattice.fit_envelope_s": own("lattice.fit_envelope"),
        "lattice.measure_decay_s": own("lattice.measure_decay"),
        "duals.dual_envelope_s": own("duals.dual_envelope"),
        "gramian.sections_s": incl("gramian.sections"),
        "gramian.sections_calls": calls("gramian.sections"),
        "gramian.assembled_products": count("gramian.assemble", "assembled_products"),
        "gramian.riesz_bounds_s": incl("gramian.riesz_bounds"),
        "duals.invert_section_s": incl("duals.invert_section"),
        "duals.synthesize_dual_s": own("duals.synthesize_dual"),
        "duals.synthesize_dual_calls": calls("duals.synthesize_dual"),
        "duals.biorthogonality_s": incl("duals.biorthogonality_residual"),
        "duals.core_radius_min": min(obs["core_radii"]),
        "duals.core_radius_sum": sum(obs["core_radii"]),
        "constants.w_sum_s": incl("constants.w_sum"),
        "constants.w_sum_calls": calls("constants.w_sum"),
        "constants.w_shells": count("constants.w_sum", "shells"),
        "constants.convolution_s": incl("constants.verify_convolution_discrete"),
        "constants.convolution_pairs": count("constants.verify_convolution_discrete", "pairs"),
        "artifacts.write_suite_s": own("artifacts.write_suite"),
        "gramian.to_text_s": incl("gramian.to_text"),
        "artifacts.bytes_written": obs["sizes"]["artifact_bytes"],
        "artifacts.files_written": obs["sizes"]["artifact_files"],
        "gramian.from_text_s": incl("gramian.from_text"),
        "artifacts.verify_artifacts_s": incl("artifacts.verify_artifacts"),
        "artifacts.bytes_read": sum(s["counts"].get("bytes_read", 0) for s in total.values()),
        "pipeline.run_suite_s": incl("pipeline.run_suite"),
        "pipeline.run_family_s": incl("pipeline.run_family"),
        "pipeline.self_s": sum(s["self_s"] for n, s in total.items()
                               if n.startswith("pipeline.")),
        "cli.self_s": in_all["cli.main"]["self_s"],
        "cli.all_s": in_all["cli.main"]["incl_s"],
        "duals.convergence_failures":
            total.get("duals.invert_section", {}).get("errors", {}).get("ConvergenceError", 0),
        "pipeline.verdicts_failed": sum(not v[1] for v in obs["verdicts"]),
    }


def print_accounting(obs):
    """Show that the top-level spans plus cli.self_s make up traced all_s."""
    spans = [r for r in obs["spans"] if r["run"] == "all"]
    main = next(r for r in spans if r["name"] == "cli.main")
    top = {}
    for r in spans:
        if r["parent"] == main["id"]:
            top[r["name"]] = top.get(r["name"], 0.0) + r["end"] - r["start"]
    total = main["end"] - main["start"]
    parts = ", ".join(f"{n} {t:.3f}" for n, t in sorted(top.items(), key=lambda x: -x[1]))
    print(f"traced all_s {total:.3f} s = {parts}, cli.self_s {total - sum(top.values()):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"benchmark cannot run: {problem}", file=sys.stderr)
        return 2

    started = time.monotonic()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    try:
        runner = Runner(workload, args.seed, work, started)
        print(f"workload {workload.name}, seed {args.seed}: nproc {len(os.sched_getaffinity(0))}, "
              f"BLAS threads {BLAS_THREADS}, closed loop with one client")
        if args.trace:
            cycles = runner.repeat(("run", "trace"), started + args.seconds)
            plain = [c[0] for c in cycles]
            traced = [c[1] for c in cycles]
        else:
            cycles = runner.repeat(("run",) + ("verify",) * VERIFY_ONLY,
                                   started + args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    procs = [p for c in cycles for p in c]
    counts = gate_processes(workload, args.seed, procs)
    done = [p for p in procs if p is not None]
    full = [p for p in done if "all_s" in p]
    if not full:
        print("no repetition of `all` completed", file=sys.stderr)
        return 1
    print_sizes(full[0])
    if args.trace:
        done_traced = [r for r in traced if r is not None]
        if not done_traced:
            print("no traced repetition completed", file=sys.stderr)
            return 1
        print_accounting(done_traced[0])
        per_rep = [layer_metrics(r) for r in done_traced]
        values = {k: statistics.median([m[k] for m in per_rep]) for k in per_rep[0]}
        values["trace_overhead_s"] = statistics.median([r["all_s"] for r in done_traced]) - \
            statistics.median([r["all_s"] for r in plain if r is not None])
        wanted = spec["per_layer"]
    else:
        raw = {"setup_s": [p["setup_s"] for p in done],
               "all_s": [p["all_s"] for p in full],
               "verify_s": [p["verify_s"] for p in done]}
        print("raw medians: " + ", ".join(f"{k} {statistics.median(v)!r} s"
                                          for k, v in raw.items()))
        values = {
            "setup_s": statistics.median([at_reference_speed(p, "setup") for p in done]),
            "all_s": statistics.median([at_reference_speed(p, "all") for p in full]),
            "verify_s": statistics.median([at_reference_speed(p, "verify") for p in done]),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in full]),
            "invariant_pass_ratio": counts["checks_passed"] / counts["checks"],
        }
        print(f"setup_s and verify_s from {len(done)} processes; all_s and peak_rss_mb "
              f"from {len(full)} repetitions of `all`")
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": counts["procs_failed"] == 0, "attempted": counts["procs"],
                      "failed": counts["procs_failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
