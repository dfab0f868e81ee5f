"""HCompress end-to-end benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ckpt_burst --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mixed_spill --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload durable_fit --seed 1 --seconds 30 \
        --check-determinism

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Each line before the last is ``name value unit``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every correctness
gate held. ``--check-determinism`` runs the workload twice with one seed in
fresh interpreters and requires bit-equal modeled metrics, and checks that
the next seed generates different inputs.

Every run imports the engine from ``src/`` of the checkout in a fresh
interpreter, builds it with the default inline profiler bootstrap (no seed
file) in a new scratch directory under ``.perfbench/``, and removes that
directory when it ends.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ckpt_burst", "mixed_spill", "durable_fit")

#: BENCHMARK.json's end-to-end metrics (the trace-0 result) with units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "modeled_write_s": "s",
    "modeled_read_s": "s",
    "stored_ratio": "ratio",
}
MODELED = ("modeled_write_s", "modeled_read_s", "stored_ratio")
TIER_NAMES = ("ram", "nvme", "burst_buffer", "pfs")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def set_up(workload_name: str, seconds: int, scratch: Path):
    """Import the engine and build the workload's deployment; returns the
    workload and the seconds it took (the ``setup_s`` sample)."""
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of what is timed)
    import loops

    workload = loops.WORKLOADS[workload_name](seconds)
    workload.build(scratch)
    return workload, time.perf_counter() - start


def measure(workload, inputs, client) -> float:
    """Wall time of the measured phase."""
    start = time.perf_counter()
    workload.run(inputs, client)
    return time.perf_counter() - start


def untraced_run(args, scratch: Path) -> int:
    workload, setup_s = set_up(args.workload, args.seconds, scratch / "run")
    import loops

    client = loops.Client()
    inputs = workload.inputs(args.seed)
    workload.prepare(inputs, client)
    wall = measure(workload, inputs, client)
    ratio = loops.stored_ratio(workload.engines())
    errors = client.errors + workload.finish()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"inputs_digest {loops.inputs_digest(workload, inputs)}")
    print(f"write_calls {len(client.write_s)}")
    print(f"read_calls {len(client.read_s)}")
    print(f"error_rate {client.failed / max(client.attempted, 1)!r} share")
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mib": rss_mib,
        "ops_per_s": client.tasks / wall,
        "write_p50_ms": percentile(client.write_s, 0.50) * 1e3,
        "write_p95_ms": percentile(client.write_s, 0.95) * 1e3,
        "read_p50_ms": percentile(client.read_s, 0.50) * 1e3,
        "read_p95_ms": percentile(client.read_s, 0.95) * 1e3,
        "modeled_write_s": client.modeled_write_s,
        "modeled_read_s": client.modeled_read_s,
        "stored_ratio": ratio,
    }
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    correct = not errors
    emit(
        correct, client.attempted, client.failed,
        {name: (value, END_TO_END[name]) for name, value in metrics.items()},
    )
    return 0 if correct else 1


def engine_counts(workload) -> dict[str, int]:
    """Cumulative engine counters, summed over the deployment's engines."""
    engines = workload.engines()
    out: dict[str, int] = {}

    def add(name: str, value: int) -> None:
        out[name] = out.get(name, 0) + value

    for engine in engines:
        stats = engine.engine.stats
        add("plan_hits", stats.plan_cache_hits)
        add("plan_misses", stats.plan_cache_misses)
        add("hcdp.plan_cache.invalidations", stats.plan_cache_invalidations)
        add("memo_hits", stats.memo_hits)
        add("memo_misses", stats.memo_misses)
        add("sample_hits", engine.manager.sample_cache_hits)
        add("sample_misses", engine.manager.sample_cache_misses)
        add("ccp.refits", engine.feedback.flushes)
        add("manager.spill_events", engine.manager.spill_events)
        journal = engine.journal
        add("recovery.journal.syncs", journal.syncs if journal else 0)
        add("recovery.journal.bytes", journal.bytes_synced if journal else 0)
        daemon = engine.lifecycle
        add("lifecycle.bytes_moved", daemon.stats.bytes_moved if daemon else 0)
        add("lifecycle.migrations", (
            daemon.stats.promotions + daemon.stats.demotions if daemon else 0
        ))
        scrub = engine.scrub
        add("scrub.pieces_scanned", scrub.stats.pieces_scanned if scrub else 0)
    replication = getattr(workload.api, "replication", None)
    add("replication.records_shipped", (
        sum(replication.shipped_records.values()) if replication else 0
    ))
    return out


def layer_counters(workload, before: dict, client) -> dict[str, float]:
    """Per-layer counters of the measured phase (deltas from ``before``)
    plus the tiers' stored bytes at its end."""
    after = engine_counts(workload)
    delta = {name: after[name] - before[name] for name in after}

    def rate(hits: str, misses: str) -> float:
        return delta[hits] / max(delta[hits] + delta[misses], 1)

    errors = [
        abs(piece.plan.expected_ratio - piece.actual_ratio) / piece.actual_ratio
        for result in client.written
        for piece in result.pieces
    ]
    out = {
        "hcdp.plan_cache.hit_rate": rate("plan_hits", "plan_misses"),
        "hcdp.memo.hit_rate": rate("memo_hits", "memo_misses"),
        "ccp.ratio_err": sum(errors) / len(errors) if errors else 0.0,
        "codecs.sample_ratio.hit_rate": rate("sample_hits", "sample_misses"),
    }
    out.update(
        (name, value) for name, value in delta.items() if "." in name
    )
    for tier in TIER_NAMES:
        out[f"tiers.stored_bytes.{tier}"] = sum(
            e.hierarchy.footprint_by_tier().get(tier, 0)
            for e in workload.engines()
        )
    return out


def traced_run(args, scratch: Path) -> int:
    """Untraced phase, then the same inputs on a fresh traced deployment.

    The two phases share the run's ``--seconds``, half each, and the first
    deployment's profiler seed, so only the first pays the bootstrap.
    Tracing must not change what the engine does: the traced phase's
    modeled metrics must equal the untraced phase's bit for bit.
    """
    seconds = max(1, args.seconds // 2)
    workload, _setup_s = set_up(args.workload, seconds, scratch / "run")
    import loops
    import spans

    inputs = workload.inputs(args.seed)
    plain = loops.Client()
    workload.prepare(inputs, plain)
    plain_wall = measure(workload, inputs, plain)
    plain_ratio = loops.stored_ratio(workload.engines())
    errors = plain.errors + workload.finish()
    profile = workload.api.seed
    del workload
    gc.collect()  # let the first deployment go before building the next

    traced = loops.WORKLOADS[args.workload](seconds)
    traced.build(scratch / "traced", seed=profile)
    client = loops.Client()
    traced.prepare(inputs, client)
    before = engine_counts(traced)
    recorder = spans.SpanRecorder()
    codec_names = traced.engines()[0].pool.names
    spans.instrument_process(recorder, codec_names)
    if args.workload == "durable_fit":
        spans.instrument_router(recorder, traced.api)
    else:
        for engine in traced.engines():
            spans.instrument_engine(recorder, engine)
    client.recorder = recorder
    wall = measure(traced, inputs, client)
    recorder.unwrap_all()
    ratio = loops.stored_ratio(traced.engines())
    metrics = recorder.layer_metrics()
    metrics.update(recorder.codec_metrics(codec_names))
    metrics.update(layer_counters(traced, before, client))
    metrics["input.repeat_share"] = loops.repeat_share(traced.payloads(inputs))
    metrics["trace.overhead"] = (client.tasks / wall) / (plain.tasks / plain_wall)
    errors += client.errors + traced.finish()

    for name, plain_value, traced_value in (
        ("modeled_write_s", plain.modeled_write_s, client.modeled_write_s),
        ("modeled_read_s", plain.modeled_read_s, client.modeled_read_s),
        ("stored_ratio", plain_ratio, ratio),
    ):
        if plain_value != traced_value:
            errors.append(
                f"tracing changed {name}: {plain_value!r} -> {traced_value!r}"
            )
    errors += spans.coverage_errors(args.workload, metrics)

    trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
    recorder.dump(trace_path, {"workload": args.workload, "seed": args.seed})
    print(f"spans {len(recorder.spans)} written to {trace_path}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    attempted = plain.attempted + client.attempted
    failed = plain.failed + client.failed
    correct = not errors
    emit(correct, attempted, failed, {
        name: (value, unit_of(name)) for name, value in metrics.items()
    })
    return 0 if correct else 1


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("hit_rate", "repeat_share", "ratio_err", "overhead")):
        return "ratio"
    if "bytes" in metric:
        return "bytes"
    return "count"


def check_determinism(args) -> int:
    """Same seed twice in fresh interpreters: modeled metrics bit-equal.
    Next seed: different inputs."""
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run failed: {proc.stderr.strip()[-1000:]}", file=sys.stderr)
            return 1
        digest = next(
            line.split()[1] for line in lines if line.startswith("inputs_digest")
        )
        runs.append((digest, json.loads(lines[-1])["metrics"]))
    bad = []
    if runs[0][0] != runs[1][0]:
        bad.append("the same seed generated different inputs")
    for name in MODELED:
        first, second = (run[1][name]["value"] for run in runs)
        print(f"{name} {first!r} {second!r}")
        if first != second:
            bad.append(f"{name} differs between runs of seed {args.seed}")

    sys.path.insert(0, str(SRC))
    import loops

    workload = loops.WORKLOADS[args.workload](args.seconds)
    other = loops.inputs_digest(workload, workload.inputs(args.seed + 1))
    print(f"inputs_digest seed {args.seed} {runs[0][0]}")
    print(f"inputs_digest seed {args.seed + 1} {other}")
    if other == runs[0][0]:
        bad.append(f"seed {args.seed + 1} generated the same inputs")
    for problem in bad:
        print(f"determinism bug: {problem}", file=sys.stderr)
    print("determinism: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once so set-up times the import, never the compiler.
    compileall.compile_dir(str(SRC), quiet=1)
    if args.check_determinism:
        return check_determinism(args)
    sys.path.insert(0, str(SRC))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "tmp"))
    try:
        if args.trace:
            return traced_run(args, scratch)
        return untraced_run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
