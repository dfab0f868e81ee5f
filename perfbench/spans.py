"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of the live engine objects (and
module-level functions their callers import by name) from outside the
program, so the engine runs exactly the code it runs untraced. It must not
turn on ``repro.obs``: with observability enabled ``compress_batch`` takes
the per-task path, which would trace a different program.

Each span records its name, start, end, parent span and a request id that
every span of one client call shares. Spans stay in memory and are dumped
as JSON when the run ends. Per-layer totals (calls, busy time, self time)
are kept as spans close; self time is a span's duration minus the time its
child spans cover. A layer's calls and busy time count only its outermost
spans, so a layer entered again from inside itself (a manager write lane
calling the run lane, or brotli and bsc calling the huffman codec) is
counted once.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

#: Layer -> (end-to-end metrics it should move, workloads it should move
#: them on, workloads that must reach it). The traced run asserts the last
#: column, so a change cannot silently move a workload off the path it
#: measures. Layers are named after the repo modules they time.
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "analyzer.analyze": (
        ("write_p50_ms",), ("mixed_spill", "durable_fit"),
        ("mixed_spill", "durable_fit"),
    ),
    "hcdp.plan": (
        ("ops_per_s", "write_p50_ms"), ("ckpt_burst", "mixed_spill"),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
    ),
    "monitor.sample": (
        ("ops_per_s", "write_p50_ms"), ("ckpt_burst", "mixed_spill"),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
    ),
    "ccp.feedback": (
        ("ops_per_s", "read_p50_ms", "modeled_write_s", "stored_ratio"),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
    ),
    "codecs.compress": (
        ("ops_per_s", "write_p95_ms"), ("mixed_spill",),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
    ),
    "codecs.decompress": (
        ("read_p95_ms",), ("mixed_spill",), ("mixed_spill", "durable_fit"),
    ),
    "manager.write": (
        ("write_p50_ms",), ("ckpt_burst",),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
    ),
    "manager.read": (
        ("read_p50_ms",), ("ckpt_burst",),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
    ),
    "shi.write": (
        ("write_p50_ms", "write_p95_ms", "stored_ratio"),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
        ("ckpt_burst", "mixed_spill", "durable_fit"),
    ),
    "shi.read": (
        ("read_p50_ms", "read_p95_ms"), ("mixed_spill", "durable_fit"),
        ("mixed_spill", "durable_fit"),
    ),
    "recovery.journal.commit": (
        ("write_p50_ms", "ops_per_s"), ("durable_fit",), ("durable_fit",),
    ),
    "recovery.checkpoint": (
        ("ops_per_s",), ("durable_fit",), ("durable_fit",),
    ),
    "hashing.digest": (
        ("write_p50_ms", "ops_per_s"), ("durable_fit",), ("durable_fit",),
    ),
    "replication.ship": (
        ("write_p50_ms", "ops_per_s"), ("durable_fit",), ("durable_fit",),
    ),
    "shard.router": (
        ("write_p50_ms", "ops_per_s"), ("durable_fit",), ("durable_fit",),
    ),
    "lifecycle.step": (("ops_per_s",), ("durable_fit",), ("durable_fit",)),
    "scrub.step": (("ops_per_s",), ("durable_fit",), ("durable_fit",)),
}

#: Layers that only the production configuration may reach.
DURABILITY_LAYERS = (
    "recovery.journal.commit",
    "recovery.checkpoint",
    "hashing.digest",
    "replication.ship",
    "shard.router",
    "lifecycle.step",
    "scrub.step",
)

#: Workload -> counters that must be non-zero on it. durable_fit is the
#: only gated workload whose data is re-encoded with a real codec (lzma on
#: lifecycle demotion), so the codec layers are measured there only while
#: the lifecycle daemon migrates.
REQUIRED_COUNTERS = {"durable_fit": ("lifecycle.migrations",)}

#: Codec families broken out per codec name.
CODEC_FAMILIES = ("codecs.compress", "codecs.decompress")


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its codec family for per-codec
    spans (``codecs.compress.lzma``), else the name itself."""
    family = name.rpartition(".")[0]
    return family if family in CODEC_FAMILIES else name


class _Frame:
    __slots__ = ("span_id", "request", "child_seconds")

    def __init__(self, span_id: int, request: int | None) -> None:
        self.span_id = span_id
        self.request = request
        self.child_seconds = 0.0


class SpanRecorder:
    """In-memory span log plus per-name call/busy/self totals."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        #: name -> [calls, busy_s, self_s, outermost calls of its layer]
        self.totals: dict[str, list] = {}
        self._local = threading.local()
        self._ids = 0
        self._requests = 0
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
        return local

    def _enter(self, name: str, root: bool):
        local = self._state()
        stack = local.stack
        with self._lock:
            self._ids += 1
            span_id = self._ids
            if root:
                self._requests += 1
                request = self._requests
            else:  # spans on a worker thread's empty stack have no request
                request = stack[-1].request if stack else None
        parent = stack[-1].span_id if stack else None
        frame = _Frame(span_id, request)
        stack.append(frame)
        layer = layer_of(name)
        local.depth[layer] = local.depth.get(layer, 0) + 1
        return local, frame, parent

    def _exit(self, local, frame, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        duration = end - start
        stack = local.stack
        stack.pop()
        if stack:
            stack[-1].child_seconds += duration
        layer = layer_of(name)
        depth = local.depth[layer] - 1
        local.depth[layer] = depth
        with self._lock:
            self.spans.append(
                (frame.span_id, parent, frame.request, name, start, end)
            )
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0, 0]
            total[0] += 1
            if depth == 0:  # nested calls of one layer count once
                total[1] += duration
                total[3] += 1
            total[2] += duration - frame.child_seconds

    def call(self, name: str, fn, args, kwargs, root: bool = False):
        local, frame, parent = self._enter(name, root)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(local, frame, parent, name, start)

    def request(self, name: str, fn, *args, **kwargs):
        """Run one client call as the root span of a new request."""
        return self.call(name, fn, args, kwargs, root=True)

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is an object (the wrapper becomes an instance attribute,
        which every ``self.x.attr(...)`` lookup finds) or a module (for
        functions that callers import by name). ``after`` post-processes
        the return value (used to wrap objects a factory returns).
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        recorder = self

        if after is None:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return recorder.call(name, original, args, kwargs)
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return after(recorder.call(name, original, args, kwargs))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls|busy_s|self_s`` for every layer in :data:`LAYERS`
        (a codec layer sums its per-codec spans)."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls, busy, self_s = 0, 0.0, 0.0
            for name, (_n, b, s, outer) in self.totals.items():
                if layer_of(name) == layer:
                    calls += outer
                    busy += b
                    self_s += s
            out[f"{layer}.calls"] = calls
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = self_s
        return out

    def codec_metrics(self, codec_names) -> dict[str, float]:
        """``<codec layer>.<codec>.calls|self_s`` for every codec name;
        calls include those made from inside another codec."""
        out: dict[str, float] = {}
        for family in CODEC_FAMILIES:
            for codec in codec_names:
                calls, _busy, self_s, _outer = self.totals.get(
                    f"{family}.{codec}", (0, 0.0, 0.0, 0)
                )
                out[f"{family}.{codec}.calls"] = calls
                out[f"{family}.{codec}.self_s"] = self_s
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span as JSON (one row per span, fields named once)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **meta,
            "fields": ["id", "parent", "request", "name", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def coverage_errors(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layers the workload must reach but did not, durability layers it
    reached although it must not, codec layers it reached only through the
    identity codec ``none`` (which measures no codec), and counters of
    :data:`REQUIRED_COUNTERS` that stayed 0."""
    errors = []
    for layer, (_moves, _on, reached_by) in LAYERS.items():
        count = metrics.get(f"{layer}.calls", 0)
        if workload in reached_by and count == 0:
            errors.append(f"{layer} has no calls on {workload}")
        if layer in DURABILITY_LAYERS and workload not in reached_by and count:
            errors.append(
                f"{layer} has {count} calls on {workload}, expected 0"
            )
        if layer in CODEC_FAMILIES and workload in reached_by:
            real = 0
            for name, value in metrics.items():
                codec, _, field = name[len(layer) + 1:].rpartition(".")
                if (name.startswith(layer + ".") and field == "calls"
                        and codec not in ("", "none")):
                    real += value
            if not real:
                errors.append(
                    f"{layer} has no calls of a codec other than none "
                    f"on {workload}"
                )
    for counter in REQUIRED_COUNTERS.get(workload, ()):
        if not metrics.get(counter):
            errors.append(f"{counter} is 0 on {workload}")
    return errors


def instrument_engine(recorder: SpanRecorder, engine) -> None:
    """Wrap one :class:`repro.core.HCompress` engine's layer entry points."""
    wrap = recorder.wrap
    wrap(engine.analyzer, "analyze", "analyzer.analyze")

    hcdp = engine.engine
    wrap(hcdp, "plan", "hcdp.plan")
    wrap(hcdp, "prefetch_candidates", "hcdp.plan")

    def wrap_planner(planner):
        # A fresh planner per batch: its per-task entry points are the
        # batch lane's planning calls.
        wrap(planner, "plan", "hcdp.plan")
        wrap(planner, "emit_schema", "hcdp.plan")
        return planner

    wrap(hcdp, "batch_planner", "hcdp.plan", after=wrap_planner)

    for attr in ("sample", "sample_raw", "status"):
        wrap(engine.monitor, attr, "monitor.sample")
    for attr in ("record", "record_run", "flush"):
        wrap(engine.feedback, attr, "ccp.feedback")

    manager = engine.manager
    for attr in ("execute_write", "execute_write_batched", "_execute_write_run"):
        wrap(manager, attr, "manager.write")
    for attr in ("execute_read", "execute_read_batch", "execute_read_range"):
        wrap(manager, attr, "manager.read")

    wrap(engine.shi, "write", "shi.write")
    wrap(engine.shi, "read", "shi.read")
    for tier in engine.hierarchy:
        # The batch write lanes place pieces with one bulk put per tier
        # instead of going through ``shi.write``.
        wrap(tier, "put_many", "shi.write")

    if engine.journal is not None:
        wrap(engine.journal, "commit", "recovery.journal.commit")
    wrap(engine, "checkpoint", "recovery.checkpoint")
    if engine.lifecycle is not None:
        wrap(engine.lifecycle, "step", "lifecycle.step")
    if engine.scrub is not None:
        wrap(engine.scrub, "step", "scrub.step")


def instrument_process(recorder: SpanRecorder, codec_names) -> None:
    """Wrap process-wide entry points: the registry's codec instances and
    the digest function every module imports by name."""
    import repro.core.manager
    import repro.lifecycle.daemon
    import repro.scrub.fsck
    from repro.codecs import get_codec

    for codec in codec_names:
        instance = get_codec(codec)
        recorder.wrap(instance, "compress", f"codecs.compress.{codec}")
        recorder.wrap(instance, "decompress", f"codecs.decompress.{codec}")
    for module in (repro.core.manager, repro.lifecycle.daemon, repro.scrub.fsck):
        recorder.wrap(module, "content_hash64", "hashing.digest")


def instrument_router(recorder: SpanRecorder, router) -> None:
    """Wrap a :class:`repro.shard.ShardedHCompress` and its shards."""
    recorder.wrap(router, "compress_batch", "shard.router")
    recorder.wrap(router, "decompress_batch", "shard.router")
    for engine in router.engines.values():
        instrument_engine(recorder, engine)
    if router.replication is not None:
        for replicas in router.replication.standbys.values():
            for replica in replicas:
                recorder.wrap(replica, "apply", "replication.ship")
