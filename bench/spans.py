"""In-memory span tracing of the program's layers, from outside the program.

The traced run replaces the public functions of each layer with wrappers
under the name their caller looks them up by, records one span per call
(name, start, end, parent span, job) plus counts derived from array shapes
and return values, and restores the originals afterwards.  Self time is a
span's duration minus the durations of its direct children; calls are
sequential on one thread, so children never overlap and the self times of
one sweep sum to the sweep's root span.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

import numpy as np

from vandermetric import batch, campaign, geometry, multilinear, ode
from vandermetric.errors import StepSizeError

import workloads

BATCH_KERNELS = (
    "dv_batch", "root_batch", "pdf_batch", "expansion_batch", "simplex_sides_complex",
    "simplex_sides_vectors", "simplex_sides_generalized", "extended_sides_complex",
    "sum_identity_sides", "w_identity_sides", "max_gap_and_scale",
)
POLYGON_CHECKS = (
    "triangle_check", "quadrilateral_check", "ptolemy_gap", "ngon_check", "simplex_equality_ngon",
)
CAMPAIGN_OPS = (
    "simplex", "extended", "sum-identity", "w-identity", "polygon", "ode", "multilinear-oracle",
)
SELF_TIME_LAYERS = ("bench", "campaign", "batch", "geometry", "core", "ode")
COMPUTED_COUNTS = ("batch.rows", "batch.pair_factors", "batch.bytes", "ode.steps",
                   "multilinear.assignments_tried")

# Which end-to-end metric each layer should move, and on which workload.
# Layers not named for a workload are predicted to leave it unchanged.
PREDICTIONS = {
    "campaign": "sweep_s on batch-sweep (sampling, verdict reduction, failure records)",
    "batch": "sweep_s and peak_rss_mb on batch-sweep; sweep_s on oracle-sweep through "
             "expansion_batch; no effect on scalar-sweep",
    "geometry": "sweep_s on scalar-sweep",
    "core": "sweep_s on scalar-sweep",
    "ode": "sweep_s on scalar-sweep; peak_rss_mb there if the integration is batched",
    "multilinear": "sweep_s on oracle-sweep",
    "cli": "cli_s on every workload (near zero: at most 100 failure records per result)",
}

# Span names whose summed self time should dominate each workload's traced sweep.
SHARE_PREDICTIONS = {
    "batch-sweep": (("batch.",), 0.8, "batch about 90%"),
    "scalar-sweep": (("geometry.", "core.", "ode."), 0.5, "geometry, core and ode most"),
    "oracle-sweep": (("batch.expansion_batch", "multilinear.definiteness_decide"), 0.5,
                     "expansion_batch plus the decider most"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = [("trace.sweep_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    out += [(f"{layer}.self_ms", "ms", "lower") for layer in SELF_TIME_LAYERS]
    out += [("campaign.jobs", "count", "higher"), ("campaign.trials", "count", "higher")]
    out += [(f"campaign.{op}.trials_per_s", "1/s", "higher") for op in CAMPAIGN_OPS]
    for kernel in BATCH_KERNELS:
        out += [(f"batch.{kernel}.ms", "ms", "lower"), (f"batch.{kernel}.calls", "count", "lower")]
    out += [("batch.rows", "count", "higher"), ("batch.pair_factors", "count", "lower"),
            ("batch.bytes", "bytes", "lower")]
    for check in POLYGON_CHECKS:
        out += [(f"geometry.{check}.ms", "ms", "lower"),
                (f"geometry.{check}.calls", "count", "lower")]
    out += [("geometry.CyclicPolygon.ms", "ms", "lower")]
    for fn in ("vandermonde_metric", "euclidean_3metric"):
        out += [(f"core.{fn}.ms", "ms", "lower"), (f"core.{fn}.calls", "count", "lower")]
    out += [
        ("ode.integrate.ms", "ms", "lower"), ("ode.integrate.calls", "count", "lower"),
        ("ode.integrate.rejected", "count", "lower"),
        ("ode.integrate.accept_ratio", "ratio", "higher"),
        ("ode.steps", "count", "lower"), ("ode.verify_estimate.ms", "ms", "lower"),
        ("ode.derive_alpha.ms", "ms", "lower"), ("ode.derive_alpha.calls", "count", "lower"),
        ("multilinear.definiteness_decide.ms", "ms", "lower"),
        ("multilinear.assignments_tried", "count", "lower"),
        ("cli.serialize_ms", "ms", "lower"), ("cli.bytes", "bytes", "lower"),
    ]
    return out


# ---------------------------------------------------------------------------
# Counts, computed from array shapes and return values


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


# Factors each kernel multiplies: pairwise differences for the complex and
# Euclidean metrics, projected complex factors (one per coordinate pair) for
# the multilinear forms.  Kernels absent here delegate to ones present.
_PAIR_FACTORS = {
    "dv_batch": lambda z: z.shape[0] * _pairs(z.shape[1]),
    "pdf_batch": lambda p: p.shape[0] * _pairs(p.shape[1]) * _pairs(p.shape[2]),
    "expansion_batch": lambda p: (p.shape[0] * math.factorial(p.shape[1])
                                  * _pairs(p.shape[1]) * _pairs(p.shape[2])),
    "simplex_sides_vectors": lambda x, y: (x.shape[1] + 1) * x.shape[0] * _pairs(x.shape[1]),
    "w_identity_sides": lambda p, y, q: ((p.shape[1] + 1) * p.shape[0]
                                         * (_pairs(p.shape[1]) + q - 1) * _pairs(p.shape[2])),
}


def _arrays(values):
    return [v for v in values if isinstance(v, np.ndarray)]


def _batch_hook(kernel):
    factors = _PAIR_FACTORS.get(kernel)

    def hook(counts, parent, args, kwargs, out, exc):
        if exc is not None:
            return
        if factors is not None:
            counts["batch.pair_factors"] += factors(*args, **kwargs)
        if not parent.startswith("batch."):
            # Rows and bytes handed to the batch layer from outside it.
            inputs = _arrays([*args, *kwargs.values()])
            outputs = _arrays(out if isinstance(out, tuple) else (out,))
            counts["batch.rows"] += inputs[0].shape[0]
            counts["batch.bytes"] += sum(a.nbytes for a in inputs + outputs)
    return hook


def _integrate_hook(counts, parent, args, kwargs, out, exc):
    if isinstance(exc, StepSizeError):
        counts["ode.integrate.rejected"] += 1
    elif exc is None:
        counts["ode.integrate.accepted"] += 1
        counts["ode.steps"] += out.shape[1] - 1


def _decide_hook(counts, parent, args, kwargs, out, exc):
    if exc is None:
        counts["multilinear.assignments_tried"] += out.assignments_tried


def _campaign_hook(counts, parent, args, kwargs, out, exc):
    if exc is None:
        counts["campaign.jobs"] += 1
        counts["campaign.trials"] += out.trials


def _exact_oracle_hook(counts, parent, args, kwargs, out, exc):
    if exc is None:
        counts["campaign.jobs"] += 1
        counts["campaign.trials"] += kwargs["trials"]


def _serialize_hook(counts, parent, args, kwargs, out, exc):
    if exc is None:
        counts["cli.bytes"] += len(out)


def targets():
    """(module, attribute, span name, count hook) for every traced call site."""
    out = [
        (campaign, "run_campaign", "campaign.run_campaign", _campaign_hook),
        (campaign, "multilinear_oracle_exact", "campaign.multilinear_oracle_exact",
         _exact_oracle_hook),
        (campaign, "CyclicPolygon", "geometry.CyclicPolygon", None),
        (campaign, "integrate", "ode.integrate", _integrate_hook),
        (campaign, "verify_estimate", "ode.verify_estimate", None),
        (geometry, "vandermonde_metric", "core.vandermonde_metric", None),
        (ode, "euclidean_3metric", "core.euclidean_3metric", None),
        (ode, "derive_alpha", "ode.derive_alpha", None),
        (multilinear, "definiteness_decide", "multilinear.definiteness_decide", _decide_hook),
        (workloads, "serialize", "cli.serialize", _serialize_hook),
    ]
    out += [(campaign, check, f"geometry.{check}", None) for check in POLYGON_CHECKS]
    out += [(batch, k, f"batch.{k}", _batch_hook(k)) for k in BATCH_KERNELS]
    return out


# ---------------------------------------------------------------------------
# Tracer


class Tracer:
    """Spans and counts of the traced sweeps, kept in memory until the end."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.job = None
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(record)
            exc = out = None
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(self.counts, spans[parent][0] if parent >= 0 else "", args, kwargs,
                         out, exc)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module, attr, name, hook in targets():
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))
        return self

    def __exit__(self, *exc_info):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def sweep(self, fn):
        """Run fn as one traced sweep under a root span.

        Returns its per-layer values and its self milliseconds by span name.
        """
        first = len(self.spans)
        self.counts.clear()
        self.wrap("bench.sweep", fn)()
        ms, calls = self_ms(self.spans[first:], first)
        return sweep_values(self.spans[first], ms, calls, self.counts), ms

    def write(self, path):
        """Write every span as CSV: name, start and end in us, parent, job."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_us,end_us,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},"
                         f"{parent},{job if job is not None else ''}\n")


def self_ms(spans, first: int):
    """Self milliseconds and call counts by span name, for spans[first:] of a trace."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= first:
            child[parent - first] += end - start
    ms = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, parent, job) in enumerate(spans):
        ms[name] += (end - start - child[i]) * 1e3
        calls[name] += 1
    return ms, calls


def sweep_values(root, ms, calls, counts) -> dict:
    """Per-layer values of one traced sweep from its root span, self ms and counts."""
    values = {"trace.sweep_s": root[2] - root[1]}
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_ms"] = sum(v for k, v in ms.items() if k.split(".")[0] == layer)
    for key in ("campaign.jobs", "campaign.trials", "ode.integrate.rejected", "cli.bytes",
                *COMPUTED_COUNTS):
        values[key] = counts[key]
    for name in ([f"batch.{k}" for k in BATCH_KERNELS]
                 + [f"geometry.{c}" for c in POLYGON_CHECKS]
                 + ["core.vandermonde_metric", "core.euclidean_3metric", "ode.integrate",
                    "ode.derive_alpha"]):
        values[f"{name}.ms"] = ms.get(name, 0.0)
        values[f"{name}.calls"] = calls[name]
    for name in ("geometry.CyclicPolygon", "ode.verify_estimate",
                 "multilinear.definiteness_decide"):
        values[f"{name}.ms"] = ms.get(name, 0.0)
    integrations = calls["ode.integrate"]
    values["ode.integrate.accept_ratio"] = (
        counts["ode.integrate.accepted"] / integrations if integrations else 0.0)
    values["cli.serialize_ms"] = ms.get("cli.serialize", 0.0)
    return values


def share_table(values: dict, name_ms: dict, workload: str) -> list[str]:
    """Printable per-layer self-time table of one traced sweep, with the predicted share."""
    sweep_ms = values["trace.sweep_s"] * 1e3
    layers = defaultdict(float)
    for name, v in name_ms.items():
        layers[name.split(".")[0]] += v
    lines = [f"  {'layer':<12} {'self ms/sweep':>14} {'share':>7}  predicted to move"]
    for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {v:14.2f} {v / sweep_ms:7.1%}  {PREDICTIONS.get(layer, '-')}")
    lines.append(f"  {'sum':<12} {sum(layers.values()):14.2f}   (traced sweep {sweep_ms:.2f} ms)")
    lines.append("  top spans by self time:")
    for name, v in sorted(name_ms.items(), key=lambda kv: -kv[1])[:8]:
        lines.append(f"    {name:<40} {v:10.2f} ms {v / sweep_ms:7.1%}")
    prefixes, floor, text = SHARE_PREDICTIONS[workload]
    share = sum(v for n, v in name_ms.items() if n.startswith(prefixes)) / sweep_ms
    verdict = "held" if share >= floor else "DIFFERS"
    lines.append(f"  prediction ({text}): measured {share:.1%} -> {verdict}")
    return lines
