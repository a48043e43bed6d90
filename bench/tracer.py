"""Span recorder for the traced pass of the benchmark.

The recorder wraps the module-level names through which docprune calls
into each layer (``docprune.pipeline.encode``, ``docprune.encoder.gated_block``,
``docprune.tensor.gelu_grad`` and so on), so a span times the call the
program actually makes. Names are restored when the ``installed()`` block
ends. If the program stops calling through a wrapped name, the time shows
up as self time of the enclosing span instead of a silently wrong number.

Two kinds of wrappers exist:

* layer spans form a tree. Each records wall ns, calls and, when the call
  carries the run's ``FlopCounter``, the per-category change of that
  counter. Self time and self FLOPs are the span's own figures less those
  of its child spans.
* kernel aggregates (``tensor.*``) record only wall ns and calls. They sit
  below the layer spans, are hit tens of thousands of times per run, and
  stay out of the tree so that they do not change any layer's self time.

Tracing costs wall time; the benchmark reports that cost as
``trace.overhead_pct`` and takes every end-to-end number from untraced
operations.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

from docprune import (content_filter, encoder, instruction_filter, pipeline,
                      tensor)
from docprune.tensor import FlopCounter

KERNELS = ("matmul", "gelu", "gelu_grad", "mlp2_forward", "mlp2_backward")


class SpanStats:
    """Totals for every call of one span name."""

    __slots__ = ("ns", "self_ns", "calls", "flops", "self_flops")

    def __init__(self):
        self.ns = 0
        self.self_ns = 0
        self.calls = 0
        self.flops: Counter | None = None       # None: never saw a counter
        self.self_flops: Counter | None = None


class _Frame:
    __slots__ = ("name", "t0", "child_ns", "counter", "before", "child_flops")

    def __init__(self, name, counter):
        self.name = name
        self.counter = counter
        self.before = dict(counter.by_category) if counter is not None else None
        self.child_ns = 0
        self.child_flops: Counter = Counter()
        self.t0 = time.perf_counter_ns()


def _find_counter(args, kwargs) -> FlopCounter | None:
    for a in args:
        if isinstance(a, FlopCounter):
            return a
    for a in kwargs.values():
        if isinstance(a, FlopCounter):
            return a
    return None


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class StageStats:
    """Per-stage window and token counts taken from each encode result."""

    __slots__ = ("windows_computed", "windows_total", "active", "tokens")

    def __init__(self):
        self.windows_computed = 0
        self.windows_total = 0
        self.active = 0
        self.tokens = 0


class Tracer:
    """Layer spans, kernel aggregates and encoder counts for one pass."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.kernels: dict[str, list[int]] = {k: [0, 0] for k in KERNELS}
        self.stages: dict[int, StageStats] = {}
        self.encode_calls = 0
        # one set per installed() block, i.e. per operation
        self.encode_keys: list[set[bytes]] = []
        self._stack: list[_Frame] = []
        self._stage_of: dict[int, int] = {}
        self._merge_of: dict[int, int] = {}

    # -- span bookkeeping -------------------------------------------------

    def _exit(self, frame: _Frame) -> None:
        dt = time.perf_counter_ns() - frame.t0
        self._stack.pop()
        agg = self.spans.get(frame.name)
        if agg is None:
            agg = self.spans[frame.name] = SpanStats()
        agg.ns += dt
        agg.self_ns += dt - frame.child_ns
        agg.calls += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += dt
        if frame.counter is None:
            return
        after = frame.counter.by_category
        delta = Counter({k: v - frame.before.get(k, 0)
                         for k, v in after.items()
                         if v != frame.before.get(k, 0)})
        if agg.flops is None:
            agg.flops, agg.self_flops = Counter(), Counter()
        agg.flops.update(delta)
        own = Counter(delta)
        own.subtract(frame.child_flops)
        agg.self_flops.update(own)
        if parent is not None:
            parent.child_flops.update(delta)

    def _exclude(self, ns: int) -> None:
        """Keep bookkeeping done between spans out of the parent's self time."""
        if self._stack:
            self._stack[-1].child_ns += ns

    # -- wrappers ---------------------------------------------------------

    def _layer(self, fn, name, after=None):
        """Tree span around fn; name is a string or a function of the args."""

        def wrapped(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = _Frame(label, _find_counter(args, kwargs))
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                t = time.perf_counter_ns()
                after(args, kwargs, result)
                self._exclude(time.perf_counter_ns() - t)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _kernel(self, fn, stats: list[int]):
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            t = clock()
            result = fn(*args, **kwargs)
            stats[0] += clock() - t
            stats[1] += 1
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- encoder naming and counts ---------------------------------------

    def _before_encode(self, args, kwargs):
        model = _arg(args, kwargs, 0, "model")
        self._stage_of = {id(bw): s + 1 for s, blocks in enumerate(model.blocks)
                          for bw in blocks}
        self._merge_of = {id(m[0]): s + 1 for s, m in enumerate(model.merges)}

    def _block_name(self, kind):
        def name(args, kwargs):
            bw = _arg(args, kwargs, 2, "bw")
            stage = self._stage_of.get(id(bw))
            return f"encoder.s{stage}.{kind}" if stage else f"encoder.{kind}"
        return name

    def _merge_name(self, args, kwargs):
        m = _arg(args, kwargs, 2, "merge")
        n = self._merge_of.get(id(m[0]))
        return f"encoder.m{n}.merge" if n else "encoder.merge"

    def _after_encode(self, args, kwargs, result):
        grid = _arg(args, kwargs, 1, "grid")
        h = hashlib.blake2b(grid.tokens.tobytes(), digest_size=16)
        for e in result.trace:
            st = self.stages.setdefault(e.stage, StageStats())
            st.windows_computed += e.windows_computed
            st.windows_total += e.windows_total
            st.active += e.active
            st.tokens += e.n_tokens
            h.update(e.binarized.tobytes())
        self.encode_calls += 1
        self.encode_keys[-1].add(h.digest())

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the program's layer boundaries for the duration of the block."""
        patches: list[tuple[object, str, object]] = []
        self.encode_keys.append(set())

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "docprune" or n.startswith("docprune."))
                   and m is not None]
        encode_orig = pipeline.encode

        def encode_entry(*args, **kwargs):
            self._before_encode(args, kwargs)
            return encode_orig(*args, **kwargs)

        layers = [
            (pipeline, "make_corpus", "synthdoc.make_corpus"),
            (pipeline, "partition", "patching.partition"),
            (pipeline, "detect", "content_filter.detect"),
            (pipeline, "mlp2_forward", "pipeline.projector"),
            (pipeline, "fuse", "instruction_filter.fuse"),
            (instruction_filter, "fuse", "instruction_filter.fuse"),
            (pipeline, "filter_tokens", "instruction_filter.filter_tokens"),
            (pipeline, "run", "pipeline.run"),
            (pipeline, "sweep", "pipeline.sweep"),
            (pipeline, "prepare_ifm_samples", "pipeline.prepare_ifm_samples"),
            (pipeline.RunReport, "to_json", "pipeline.to_json"),
            (encoder, "gated_block", self._block_name("ffn")),
            (encoder, "window_pass", self._block_name("attn")),
            (encoder, "merge_patches", self._merge_name),
            (instruction_filter, "train_ifm", "instruction_filter.train_ifm"),
            (content_filter, "train_detector", "content_filter.train_detector"),
        ]
        try:
            # kernels first, at every binding in the package, so the layer
            # wrappers below wrap the kernel wrappers where both apply
            for k in KERNELS:
                orig = getattr(tensor, k)
                wrapped = self._kernel(orig, self.kernels[k])
                for mod in modules:
                    if getattr(mod, k, None) is orig:
                        patch(mod, k, wrapped)
            patch(pipeline, "encode",
                  self._layer(encode_entry, "encoder.encode",
                              self._after_encode))
            for owner, attr, name in layers:
                patch(owner, attr, self._layer(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def self_flops_total(self) -> dict[str, int]:
        """FLOPs each span added beyond its children, summed per category."""
        out: Counter = Counter()
        for s in self.spans.values():
            if s.self_flops is not None:
                out.update(s.self_flops)
        return {k: v for k, v in out.items() if v}
