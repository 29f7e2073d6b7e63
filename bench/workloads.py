"""Workload definitions for the benchmark: seeded campaign jobs and their gate.

A sweep is one pass over a workload's fixed list of jobs.  Every job is
built from the workload seed alone, so the same seed gives the same inputs,
and each job states the output it must produce.  Jobs marked ``fail_open``
reproduce a known defect: they are run and counted as failed, never dropped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from vandermetric import campaign, multilinear

# Trials are divided by this (down to TINY_MIN_TRIALS) for the self-test.
TINY_DIVISOR = 500
TINY_MIN_TRIALS = 4


@dataclass(frozen=True)
class Job:
    """One campaign job of a sweep.

    kind is "campaign" (args are CampaignConfig fields), "exact-oracle"
    (args of campaign.multilinear_oracle_exact) or "decide" (args of
    multilinear.definiteness_decide).  expect is the verdict ("pass") for a
    campaign, the integer gap for the exact oracle, and the verdict and
    assignment count (None = any) for the decider.
    """

    name: str
    kind: str
    args: dict
    expect: object = "pass"
    fail_open: str | None = None

    def cli_args(self) -> list[str]:
        """`vandermetric campaign` arguments that run this job's config."""
        args = ["campaign"]
        for key, value in campaign.CampaignConfig(**self.args).to_dict().items():
            if value is not None:
                args += [f"--{key}", str(value)]
        return args


_OVERFLOW = ("dv_batch overflows to inf, inf - inf is NaN, and NaN < -tol passes")


def _campaign(name, fail_open=None, **args):
    return Job(name=name, kind="campaign", args=args, fail_open=fail_open)


def _batch_jobs():
    rows = 100_000
    return [
        _campaign("simplex-vandermonde-n6", op="simplex", metric="vandermonde", n=6, trials=rows),
        # n=12 evaluates 66 pair columns per row, so a quarter of the rows
        # keeps this job near the others in cost.
        _campaign("simplex-vandermonde-n12", op="simplex", metric="vandermonde", n=12,
                  trials=rows // 4),
        _campaign("simplex-root-n5", op="simplex", metric="root", n=5, trials=rows),
        _campaign("simplex-generalized-n3-m4", op="simplex", metric="generalized", n=3, m=4,
                  trials=rows),
        _campaign("simplex-euclidean3-m3", op="simplex", metric="euclidean3", m=3, trials=rows),
        _campaign("extended-n4-all-k", op="extended", n=4, trials=rows),
        _campaign("sum-identity-n4-m3", op="sum-identity", n=4, m=3, trials=rows),
        *[_campaign(f"w-identity-n4-m3-q{q}", op="w-identity", n=4, m=3, q=q, trials=rows)
          for q in range(1, 5)],
        _campaign("simplex-vandermonde-n60", op="simplex", metric="vandermonde", n=60,
                  trials=300, fail_open=_OVERFLOW),
    ]


def _scalar_jobs():
    polygon = dict(op="polygon", trials=2000)
    return [
        _campaign("polygon-triangle", check="triangle", **polygon),
        _campaign("polygon-quadrilateral", check="quadrilateral", **polygon),
        _campaign("polygon-ptolemy", check="ptolemy", **polygon),
        _campaign("polygon-ngon-n7", check="ngon", n=7, **polygon),
        _campaign("polygon-simplex-equality-n6", check="simplex-equality", n=6, **polygon),
        _campaign("polygon-simplex-equality-n40", op="polygon", check="simplex-equality", n=40,
                  trials=30, fail_open="vandermonde_metric returns inf on both sides at n=40, "
                  "so the gap is NaN and the check passes"),
        # The ode campaign cycles the dimension m through 2, 3, 4 by trial.
        _campaign("ode-m2-m4", op="ode", trials=30),
    ]


def _oracle_jobs():
    sizes = [(6, 4), (5, 3)]
    return [
        *[_campaign(f"multilinear-oracle-n{n}-m{m}", op="multilinear-oracle", n=n, m=m,
                    trials=300) for n, m in sizes],
        *[Job(f"exact-oracle-n{n}-m{m}", "exact-oracle", dict(trials=300, n=n, m=m), expect=0)
          for n, m in sizes],
        Job("decide-n3-m5", "decide", dict(n=3, m=5), expect=("definite", 59049)),
        Job("decide-n4-m4", "decide", dict(n=4, m=4), expect=("counterexample", None)),
    ]


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "batch-sweep": _batch_jobs,
    "scalar-sweep": _scalar_jobs,
    "oracle-sweep": _oracle_jobs,
}

# The job each workload also runs through `vandermetric campaign --output`.
CLI_JOB = {
    "batch-sweep": "simplex-vandermonde-n6",
    "scalar-sweep": "polygon-simplex-equality-n6",
    "oracle-sweep": "multilinear-oracle-n6-m4",
}

# The tiny campaign a cold interpreter runs to measure set-up time.
SETUP_JOB = {
    "batch-sweep": _campaign("setup-simplex", op="simplex", n=4, trials=16),
    "scalar-sweep": _campaign("setup-polygon", op="polygon", check="triangle", trials=16),
    "oracle-sweep": _campaign("setup-multilinear-oracle", op="multilinear-oracle", n=3, m=3,
                              trials=16),
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The workload's jobs, each seeded from the workload seed and its index."""
    jobs = []
    for index, job in enumerate(WORKLOADS[workload]()):
        args = dict(job.args)
        if job.kind != "decide":
            args["seed"] = seed * 1000 + index
        if tiny and "trials" in args:
            args["trials"] = max(TINY_MIN_TRIALS, args["trials"] // TINY_DIVISOR)
        jobs.append(replace(job, args=args))
    return jobs


def setup_job(workload: str, seed: int) -> Job:
    job = SETUP_JOB[workload]
    return replace(job, args={**job.args, "seed": seed})


def serialize(result) -> bytes:
    """The JSONL stream `vandermetric campaign` writes for a result."""
    return ("\n".join(result.json_lines()) + "\n").encode()


def execute(job: Job):
    """Run one job; return (output bytes, miss reason or None, trials, seconds).

    The seconds cover the call into the program only.  Output bytes are
    what reruns with the same seed must reproduce exactly.
    """
    start = time.perf_counter()
    if job.kind == "campaign":
        result = campaign.run_campaign(campaign.CampaignConfig(**job.args))
        seconds = time.perf_counter() - start
        verdict = "pass" if result.passed else "fail"
        return serialize(result), campaign_miss(job, verdict, result.worst), result.trials, seconds
    if job.kind == "exact-oracle":
        gap = campaign.multilinear_oracle_exact(**job.args)
        seconds = time.perf_counter() - start
        miss = None if gap == job.expect else f"exact gap {gap}, expected {job.expect}"
        return repr(gap).encode(), miss, job.args["trials"], seconds
    if job.kind == "decide":
        verdict = multilinear.definiteness_decide(**job.args)
        seconds = time.perf_counter() - start
        want, want_tried = job.expect
        miss = None
        if verdict.verdict != want:
            miss = f"verdict {verdict.verdict}, expected {want}"
        elif want_tried is not None and verdict.assignments_tried != want_tried:
            miss = f"{verdict.assignments_tried} assignments tried, expected {want_tried}"
        return repr(verdict.to_dict()).encode(), miss, 1, seconds
    raise ValueError(f"unknown job kind {job.kind!r}")


def campaign_miss(job: Job, verdict: str, worst: float) -> str | None:
    """Why a campaign outcome fails the gate, or None when it passes."""
    if verdict != job.expect:
        return f"verdict {verdict}, expected {job.expect}"
    if not math.isfinite(worst):
        return f"worst is {worst}"
    return None
