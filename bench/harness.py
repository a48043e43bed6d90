"""Measurement loop, output checks and metric derivation.

``measure`` runs one workload in this process: set-up, then timed
operations for the given number of seconds. Untraced, it yields the
end-to-end metrics. Traced, it runs an untraced phase and a traced phase
of equal length; the per-layer metrics come from the traced phase and
``trace.overhead_pct`` compares the two.

Every operation's output is checked: its digest must equal the first
operation's (and the golden value where one is recorded), the report
invariants must hold, and in the traced phase the span FLOPs must
reconcile with the report. A check that fails, or an operation that
raises, counts as a failed operation.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter

from tracer import Tracer
from workloads import WORKLOADS, OpOutput, Size, golden

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

ATTN = tuple(f"encoder.s{n}.attn" for n in range(1, 5))
FFN = tuple(f"encoder.s{n}.ffn" for n in range(1, 5))
MERGE = tuple(f"encoder.m{n}.merge" for n in range(1, 4))
# spans that carry the run's FlopCounter: ms, calls, flops, gflop_per_s
FLOP_SPANS = ("patching.partition", "encoder.encode", *ATTN, *FFN, *MERGE,
              "pipeline.projector", "instruction_filter.fuse",
              "instruction_filter.filter_tokens")
# spans reported by wall time and calls only
TIME_SPANS = ("synthdoc.make_corpus", "content_filter.detect",
              "pipeline.run.self", "pipeline.to_json",
              "pipeline.prepare_ifm_samples")
TIMED_KERNELS = ("tensor.mlp2_forward", "tensor.mlp2_backward",
                 "tensor.gelu", "tensor.gelu_grad")
# a block span's child is its window pass, so its self figures are the FFN
SELF_SPANS = set(FFN)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for s in FLOP_SPANS:
        spec += [(f"{s}.ms", "ms", "lower"), (f"{s}.calls", "count", "lower"),
                 (f"{s}.flops", "FLOP", "lower"),
                 (f"{s}.gflop_per_s", "GFLOP/s", "higher")]
    for s in TIME_SPANS + TIMED_KERNELS:
        spec += [(f"{s}.ms", "ms", "lower"), (f"{s}.calls", "count", "lower")]
    spec += [("tensor.matmul.calls", "count", "lower"),
             ("tensor.matmul.us_mean", "us", "lower"),
             ("instruction_filter.train_ifm.epoch_ms", "ms", "lower"),
             ("content_filter.train_detector.epoch_ms", "ms", "lower")]
    for n in range(1, 5):
        spec += [(f"encoder.s{n}.windows_computed_share", "ratio", "lower"),
                 (f"encoder.s{n}.active_share", "ratio", "lower")]
    spec += [("sweep.distinct_encode_share", "ratio", "higher"),
             ("trace.overhead_pct", "%", "lower")]
    return spec


class Checker:
    """Counts operations and failures; holds the reference digest."""

    def __init__(self, reference: dict[str, str]):
        self.reference = dict(reference)
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, out: OpOutput | None, problems: list[str]) -> None:
        self.attempted += 1
        if out is not None:
            problems = problems + out.problems
            for k, v in out.digest.items():
                ref = self.reference.setdefault(k, v)
                if v != ref:
                    problems.append(f"{k} {v} != reference {ref}")
            missing = set(self.reference) - set(out.digest)
            problems += [f"{k} missing from output" for k in sorted(missing)]
        if problems:
            self.failures.append({"op": self.attempted, "problems": problems})


def reconcile(span_flops: dict[str, int], reports) -> list[str]:
    """Span FLOPs plus the decoder stub must equal each report category."""
    expected: Counter = Counter()
    for rep in reports:
        expected.update(rep.flops["by_category"])
    stub = expected.pop("decoder_stub", 0)
    expected = {k: v for k, v in expected.items() if v}
    problems = []
    if span_flops.get("decoder_stub"):
        problems.append("decoder_stub FLOPs were counted inside a span")
    if {k: v for k, v in span_flops.items() if k != "decoder_stub"} != expected:
        problems.append(f"span FLOPs {span_flops} != report {expected}")
    total = sum(rep.flops["total"] for rep in reports)
    if sum(span_flops.values()) + stub != total:
        problems.append(f"span FLOPs + decoder stub != flops.total {total}")
    return problems


def run_phase(wl, checker: Checker, seconds: float, min_ops: int,
              tracer: Tracer | None = None) -> list[float]:
    """Timed operations until `seconds` have passed and min_ops are done."""
    times = []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        gc.collect()
        before = tracer.self_flops_total() if tracer is not None else None
        problems: list[str] = []
        result = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.op()
            else:
                with tracer.installed():
                    result = wl.op()
        except Exception as e:  # a raising operation is a failed one
            problems.append(f"{type(e).__name__}: {e}")
        times.append(time.perf_counter() - t0)
        out = None
        if result is not None:
            try:
                out = wl.inspect(result)
            except Exception as e:  # output too malformed to inspect
                problems.append(f"inspect: {type(e).__name__}: {e}")
        if out is not None and tracer is not None:
            after = Counter(tracer.self_flops_total())
            after.subtract(before)
            problems += reconcile({k: v for k, v in after.items() if v},
                                  out.reports)
        checker.record(out, problems)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: Size = Size()) -> dict:
    """Set up and measure one workload; returns metrics and evidence."""
    cls = WORKLOADS[name]
    setup_tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    if setup_tracer is None:
        wl = cls(seed, size)
    else:
        with setup_tracer.installed():
            wl = cls(seed, size)
    setup_end = time.perf_counter()

    checker = Checker(golden(name, seed, size))
    out = {"workload": name, "seed": seed, "trace": int(trace),
           "size": vars(size), "setup_end": setup_end,
           "setup_in_process_s": setup_end - t0}
    if not trace:
        times = run_phase(wl, checker, seconds, min_ops=2)
        out["op_s_samples"] = times
        out["metrics"] = {"op_s": statistics.median(times),
                          "peak_rss_mb": peak_rss_mb()}
    else:
        plain = run_phase(wl, checker, seconds / 2, min_ops=1)
        tracer = Tracer()
        traced = run_phase(wl, checker, seconds / 2, min_ops=1, tracer=tracer)
        overhead = 100.0 * (statistics.median(traced)
                            / statistics.median(plain) - 1.0)
        out["op_s_samples"] = plain
        out["traced_op_s_samples"] = traced
        out["metrics"] = layer_metrics(tracer, setup_tracer, len(traced),
                                       size, overhead)
        out["spans"] = span_table(tracer, len(traced))
        out["setup_spans"] = span_table(setup_tracer, 1)
    out["attempted"] = checker.attempted
    out["failed"] = len(checker.failures)
    out["failures"] = checker.failures
    out["digest"] = checker.reference
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, setup_tr: Tracer, n_ops: int, size: Size,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics, per traced operation; 0 where a layer never ran."""
    m: dict[str, float] = {}

    def span(name, source=tr, per=n_ops):
        if name == "pipeline.run.self":
            s = source.spans.get("pipeline.run")
            return (s.self_ns if s else 0) / per, (s.calls if s else 0) / per, 0
        s = source.spans.get(name)
        if s is None:
            return 0.0, 0.0, 0
        own = name in SELF_SPANS
        ns = s.self_ns if own else s.ns
        fl = s.self_flops if own else s.flops
        return ns / per, s.calls / per, sum((fl or {}).values()) / per

    for name in FLOP_SPANS:
        ns, calls, flops = span(name)
        m[f"{name}.ms"] = ns / 1e6
        m[f"{name}.calls"] = calls
        m[f"{name}.flops"] = flops
        m[f"{name}.gflop_per_s"] = _ratio(flops, ns)
    for name in TIME_SPANS:
        # sample preparation belongs to set-up, so it is read from there
        ns, calls, _ = (span(name, setup_tr, 1)
                        if name == "pipeline.prepare_ifm_samples"
                        else span(name))
        m[f"{name}.ms"] = ns / 1e6
        m[f"{name}.calls"] = calls
    for name in TIMED_KERNELS:
        ns, calls = tr.kernels[name.split(".", 1)[1]]
        m[f"{name}.ms"] = ns / n_ops / 1e6
        m[f"{name}.calls"] = calls / n_ops
    ns, calls = tr.kernels["matmul"]
    m["tensor.matmul.calls"] = calls / n_ops
    m["tensor.matmul.us_mean"] = _ratio(ns, calls) / 1e3
    for name, epochs in (("instruction_filter.train_ifm", size.ifm_epochs),
                         ("content_filter.train_detector", size.det_epochs)):
        s = tr.spans.get(name)
        m[f"{name}.epoch_ms"] = (_ratio(s.self_ns, s.calls * epochs) / 1e6
                                 if s else 0.0)
    for n in range(1, 5):
        st = tr.stages.get(n)
        m[f"encoder.s{n}.windows_computed_share"] = (
            _ratio(st.windows_computed, st.windows_total) if st else 0.0)
        m[f"encoder.s{n}.active_share"] = (
            _ratio(st.active, st.tokens) if st else 0.0)
    # distinct (document, per-stage gate masks) within each operation
    m["sweep.distinct_encode_share"] = _ratio(
        sum(len(keys) for keys in tr.encode_keys), tr.encode_calls)
    m["trace.overhead_pct"] = overhead_pct
    return m


def span_table(tr: Tracer, n_ops: int) -> list[dict]:
    """Every span and kernel seen, per operation, for the printed table."""
    rows = []
    for name in sorted(tr.spans):
        s = tr.spans[name]
        flops = sum((s.flops or {}).values())
        rows.append({"span": name, "ms": s.ns / n_ops / 1e6,
                     "self_ms": s.self_ns / n_ops / 1e6,
                     "calls": s.calls / n_ops, "flops": flops / n_ops,
                     "flops_by_category": {k: v / n_ops for k, v in
                                           (s.flops or {}).items()},
                     "gflop_per_s": _ratio(flops, s.ns)})
    for k, (ns, calls) in sorted(tr.kernels.items()):
        if calls:
            rows.append({"span": f"tensor.{k}", "ms": ns / n_ops / 1e6,
                         "self_ms": None, "calls": calls / n_ops,
                         "flops": None, "flops_by_category": None,
                         "gflop_per_s": None})
    return rows
