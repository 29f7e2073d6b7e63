"""Benchmark of vandermetric's seeded verification sweeps.

Run from the repository root:

    python3 bench/run.py --workload batch-sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

Load model: a closed loop with one client in one process.  Each workload is
a fixed list of campaign jobs built from --seed; a sweep runs them one at a
time.  After one untimed warm-up sweep, sweeps repeat for --seconds, each
followed by the two cold processes that setup_s and cli_s time.  Every job's
output is checked against its expected verdict and against the warm-up's
bytes (same seed, same output).

Contention correction: on a shared host the same sweep takes up to twice
as long while neighbours load the core, and how much of a run they load
varies from run to run, so raw times measure the neighbours.  A fixed
pure-Python probe (a few milliseconds) runs before every job and around
every cold process, and slows down with the program.  Each timed sample is
divided by the mean of the probes taken during it and multiplied by
REFERENCE_PROBE_S, and each time metric is the median of these scaled
samples: the sample's cost in probe units, given in seconds of a reference
host that runs the probe in REFERENCE_PROBE_S.  Raw medians and minima are
kept in the run record.

--trace 0 prints the end-to-end metrics; --trace 1 also runs a few sweeps
with every layer wrapped (spans.py) and prints the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  The exit code is 0 when every output check passed, apart from
jobs that reproduce a known fail-open defect (counted in failed), 1 when
another check failed, and 2 when the program cannot be found.

Run records and traced spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools are sized when numpy loads, so pin them first.  One
# thread per pool keeps the load at one client and within nproc.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

if not (SRC / "vandermetric" / "__init__.py").is_file():
    sys.stderr.write(f"error: program source {SRC / 'vandermetric'} not found\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("sweep_s", "s"), ("cli_s", "s"), ("peak_rss_mb", "MB"))

# Iterations of the contention probe, and its time on the reference host:
# an uncontended 2.1 GHz Xeon core running Python 3.11.
PROBE_LOOPS = 100_000
REFERENCE_PROBE_S = 0.006

# Metrics named for the benchmark that the result line does not carry.
DROPPED = {
    "failed_frac": "is 0 on oracle-sweep, and a reported metric must never be 0; it is "
                   "carried by the result's failed/attempted and printed with its base",
    "sweep_tail_s": "its percentile depends on the sweep count; printed and written to the "
                    "run record when the run has at least 20 sweeps",
}


class Gate:
    """Outcome of each distinct check; a miss outside the known fail-open jobs is incorrect.

    A check is one job on one path (in-process or a cold CLI process) and
    fails if any of its runs missed, so attempted and failed depend on the
    seed only, not on how many sweeps fit in the run.
    """

    def __init__(self):
        self.checks = {}  # (path, job name) -> number of missed runs
        self.misses = {}  # job name -> (reason, known fail-open defect or None)

    def record(self, job, miss, path="in-process"):
        key = (path, job.name)
        self.checks[key] = self.checks.get(key, 0) + (miss is not None)
        if miss is not None:
            self.misses.setdefault(job.name, (miss, job.fail_open))

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for missed in self.checks.values() if missed)

    @property
    def correct(self) -> bool:
        return all(known is not None for _, known in self.misses.values())


def program_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(args, gate, job, expect_bytes=None, output=None):
    """Time one cold `vandermetric` process; check its exit code and output."""
    cmd = [sys.executable, "-m", "vandermetric.cli", *args]
    if output is not None:
        cmd += ["--output", str(output)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=program_env(), cwd=ROOT, capture_output=True, timeout=150)
    seconds = time.perf_counter() - start
    data = proc.stdout
    if output is not None and output.exists():
        data = output.read_bytes()
        output.unlink()
    lines = data.decode(errors="replace").splitlines()
    if proc.returncode != 0:
        miss = f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
    elif expect_bytes is not None and data != expect_bytes:
        miss = "CLI output differs from the in-process run with the same seed"
    elif not lines:
        miss = "CLI wrote no summary"
    else:
        summary = json.loads(lines[-1])
        miss = workloads.campaign_miss(job, "pass" if summary["pass"] else "fail",
                                       float(summary["worst"]))
    gate.record(job, miss, path="cli")
    return seconds


def probe() -> float:
    """Seconds of a fixed pure-Python loop: the host's speed at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def sweep(jobs, reference, gate, tracer=None, timings=None, probes=None):
    """Run every job once, checking verdicts and rerun bytes; return the outputs.

    With a probes list, a probe runs before each job and its seconds are appended.
    """
    outputs = []
    for job, ref in zip(jobs, reference):
        if probes is not None:
            probes.append(probe())
        if tracer is not None:
            tracer.job = job.name
        try:
            data, miss, trials, seconds = workloads.execute(job)
        except Exception as exc:  # a raising job is a counted failure, not an abort
            data, miss, trials, seconds = None, f"raised {type(exc).__name__}: {exc}", 0, 0.0
        if miss is None and ref is not None and data != ref:
            miss = "output differs from the first run with the same seed"
        gate.record(job, miss)
        if timings is not None and job.kind == "campaign":
            op = timings.setdefault(job.args["op"], [0, 0.0])
            op[0] += trials
            op[1] += seconds
        outputs.append(data)
    return outputs


def environment(seed: int, jobs) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "jobs": [{"name": j.name, "kind": j.kind, "args": j.args} for j in jobs],
    }


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run(workload: str, jobs, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; return the result object plus a printable report."""
    n_traced = min_sweeps = 1 if tiny else 3
    OUT.mkdir(parents=True, exist_ok=True)
    gate = Gate()
    report = []

    setup = workloads.setup_job(workload, seed)
    run_cli(setup.cli_args(), gate, setup)  # compiles bytecode once, untimed
    reference = sweep(jobs, [None] * len(jobs), gate)  # warm-up
    cli_job = next(j for j in jobs if j.name == workloads.CLI_JOB[workload])
    cli_ref = reference[jobs.index(cli_job)]
    out_file = OUT / f"cli-{workload}-{os.getpid()}.jsonl"

    all_probes = []

    def cold(args, job, *check):
        """(seconds, mean probe seconds) of one cold process bracketed by probes."""
        before = probe()
        secs = run_cli(args, gate, job, *check)
        all_probes.extend((before, probe()))
        return secs, statistics.fmean(all_probes[-2:])

    # The cold processes run between sweeps so that all three timings sample
    # the machine over the same window.
    samples = {"sweep": [], "setup": [], "cli": []}  # (raw seconds, mean probe seconds)
    timings = {}
    deadline = time.perf_counter() + seconds
    while len(samples["sweep"]) < min_sweeps or time.perf_counter() < deadline:
        probes = []
        start = time.perf_counter()
        sweep(jobs, reference, gate, timings=timings, probes=probes)
        raw = time.perf_counter() - start - sum(probes)
        probes.append(probe())
        samples["sweep"].append((raw, statistics.fmean(probes)))
        all_probes.extend(probes)
        samples["setup"].append(cold(setup.cli_args(), setup))
        samples["cli"].append(cold(cli_job.cli_args(), cli_job, cli_ref, out_file))
    raw_times = {key: [secs for secs, _ in pairs] for key, pairs in samples.items()}
    corrected = {key: statistics.median(secs * REFERENCE_PROBE_S / p for secs, p in pairs)
                 for key, pairs in samples.items()}
    sweep_times = raw_times["sweep"]
    sweep_s = corrected["sweep"]

    values = {
        "setup_s": corrected["setup"],
        "sweep_s": sweep_s,
        "cli_s": corrected["cli"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    tail = tail_percentile(sweep_times)
    probe_median = statistics.median(all_probes)
    report.append(f"sweeps: {len(sweep_times)} timed, raw median "
                  f"{statistics.median(sweep_times):.4f} s, fastest {min(sweep_times):.4f} s"
                  + (f", p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "")
                  + f"; {len(raw_times['setup'])} setup and {len(raw_times['cli'])} cli processes")
    report.append(f"contention probe: fastest {min(all_probes) * 1e3:.2f} ms, median "
                  f"{probe_median * 1e3:.2f} ms, reference {REFERENCE_PROBE_S * 1e3:.2f} ms; "
                  f"corrected sweep_s {sweep_s:.4f} s")

    per_layer = None
    if trace:
        with spans.Tracer() as tracer:
            traced = [tracer.sweep(lambda: sweep(jobs, reference, gate, tracer))
                      for _ in range(n_traced)]
        # The fastest traced sweep, as for sweep_s; its self times sum to it.
        per_layer, per_layer_ms = min(traced, key=lambda t: t[0]["trace.sweep_s"])
        tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")
        # Both sides raw: traced sweeps run without probes.
        per_layer["trace.overhead_s"] = per_layer["trace.sweep_s"] - min(sweep_times)
        for op in spans.CAMPAIGN_OPS:
            trials, secs = timings.get(op, (0, 0.0))
            per_layer[f"campaign.{op}.trials_per_s"] = trials / secs if secs else 0.0
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in spans.per_layer_metrics()}
        report.append(f"tracing overhead: traced sweep_s {per_layer['trace.sweep_s']:.4f} s - "
                      f"fastest untraced {min(sweep_times):.4f} s = "
                      f"{per_layer['trace.overhead_s']:+.4f} s, fastest of {len(traced)} "
                      "traced sweeps, both uncorrected")
        report += spans.share_table(per_layer, per_layer_ms, workload)
        counts = ", ".join(f"{name} {per_layer[name]}" for name in spans.COMPUTED_COUNTS)
        report.append(f"counts per sweep, computed from array shapes and return values: {counts}")

    result = {"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    record = {
        "workload": workload, "trace": int(trace), "environment": environment(seed, jobs),
        "samples_s": {key: [{"raw": secs, "probe": p} for secs, p in pairs]
                      for key, pairs in samples.items()},
        "raw_medians_s": {key: statistics.median(v) for key, v in raw_times.items()},
        "raw_minima_s": {key: min(v) for key, v in raw_times.items()},
        "probe_s": {"fastest": min(all_probes), "median": probe_median,
                    "reference": REFERENCE_PROBE_S},
        "sweep_tail_s": tail, "end_to_end": values,
        "per_layer": per_layer, "failed_frac": gate.failed / gate.attempted,
        "misses": {name: {"reason": r, "known_fail_open": k}
                   for name, (r, k) in gate.misses.items()},
        "dropped": DROPPED, "result": result,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return {"result": result, "record": record, "report": report}


def print_report(workload, outcome):
    record = outcome["record"]
    env = record["environment"]
    print(f"# workload {workload}, seed {env['seed']}, trace {record['trace']}")
    print(f"environment: cpu {env['cpu']}; nproc {env['nproc']}; python {env['python']}; "
          f"numpy {env['numpy']}; blas {env['blas']}; threads {env['threads']}")
    for job in env["jobs"]:
        print(f"  job {job['name']}: {job['args']}")
    for line in outcome["report"]:
        print(line)
    for name, miss in record["misses"].items():
        tag = "known fail-open" if miss["known_fail_open"] else "WRONG"
        print(f"  miss [{tag}] {name}: {miss['reason']}")
    res = outcome["result"]
    for name, unit in END_TO_END:
        print(f"  {name:<12} {record['end_to_end'][name]:.6g} {unit}")
    print(f"  {'failed_frac':<12} {record['failed_frac']:.6g} "
          f"({res['failed']} failed of {res['attempted']} attempted)")


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: {workload} run exited {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    jobs = workloads.build(args.workload, args.seed)
    outcome = run(args.workload, jobs, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, outcome)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
