"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload with trials cut down, untraced and traced, and checks
that:
- the result line carries exactly the metrics BENCHMARK.json names for its
  mode, with the same units, and every other metric the benchmark was asked
  for is in run.DROPPED with its reason;
- the traced layer self times sum to the traced sweep;
- two traced runs with the same seed give identical counts;
- attempted and failed do not depend on how many sweeps a run makes;
- the correctness gate trips on a deliberately wrong expected verdict;
- without the program's source, the benchmark exits non-zero and prints no
  result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import run
import workloads

SEED = 7
ASKED_FOR = ("failed_frac", "sweep_tail_s")  # named metrics the result line does not carry


def main() -> int:
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in ASKED_FOR:
        check(name in run.DROPPED, f"{name} is emitted or dropped with a reason")

    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, SEED, tiny=True)
        results, outcomes = {}, set()
        for trace in (False, True, True):
            res = run.run(workload, jobs, SEED, 0, trace, tiny=True)["result"]
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(res["correct"], f"{workload} trace={trace}: every output check passed")
            check(got == units[trace], f"{workload} trace={trace}: metrics and units match "
                                       "BENCHMARK.json")
            results.setdefault(trace, []).append(res["metrics"])
            outcomes.add((res["attempted"], res["failed"]))
        # A traced run makes more sweeps than an untraced one.
        check(len(outcomes) == 1, f"{workload}: attempted and failed repeat across runs "
                                  "with different sweep counts")
        first, second = results[True]
        counts = [n for n, u in units[True].items() if u in ("count", "bytes")]
        check(all(first[n]["value"] == second[n]["value"] for n in counts),
              f"{workload}: counts repeat exactly across two runs with the same seed")
        self_ms = sum(m["value"] for n, m in first.items()
                      if n.endswith(".self_ms") or n in ("multilinear.definiteness_decide.ms",
                                                         "cli.serialize_ms"))
        check(math.isclose(self_ms, first["trace.sweep_s"]["value"] * 1e3, rel_tol=1e-9),
              f"{workload}: layer self times sum to the traced sweep")

    jobs = workloads.build("batch-sweep", SEED, tiny=True)
    jobs[0] = replace(jobs[0], expect="fail")
    res = run.run("batch-sweep", jobs, SEED, 0, False, tiny=True)["result"]
    check(not res["correct"] and res["failed"] >= 1,
          "the gate trips on a wrong expected verdict")

    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "batch-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program source the benchmark fails and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
