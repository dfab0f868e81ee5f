"""The benchmark's three workloads: deployment, seeded inputs, closed loop.

Every workload is a single client that waits for each call before issuing
the next (HPC ranks block on their I/O). A run does a fixed amount of work
that depends only on ``--seconds``, never on how fast the program is, so
the modeled metrics repeat exactly for a given seed. The engine receives
only the generated inputs; nothing is cached between runs.

Why these three:

* ``ckpt_burst`` repeats one input, so the plan cache, the batch run lane
  and the sample-ratio cache engage; HCDP planning and CCP feedback do the
  work and the codecs sit nearly idle.
* ``mixed_spill`` never repeats an input, so those caches are bypassed; the
  codecs and the analyzer do the work.
* ``durable_fit`` is the production configuration: the only workload on
  which WAL, fsync, digests, replication, shard routing, lifecycle, scrub
  and checkpoints run.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import HCompress
from repro.core.config import HCompressConfig, RecoveryConfig
from repro.datagen import DISTRIBUTIONS, DTYPES, synthetic_buffer, synthetic_text
from repro.lifecycle.config import LifecycleConfig
from repro.replication.config import ReplicationConfig
from repro.scrub.config import ScrubConfig
from repro.scrub.fsck import fsck_store
from repro.shard import ShardConfig, ShardedHCompress
from repro.sim.clock import SimClock
from repro.tiers import ares_hierarchy
from repro.tiers.presets import ares_specs, default_buffer_split
from repro.units import KiB, MiB
from repro.workloads import vpic_sample
from repro.workloads.vpic import VPIC_HINTS

#: Fewest write calls and read calls in a run: ten samples beyond p95.
MIN_CALLS = 200


class Client:
    """The closed-loop client: times, counts and checks each public call."""

    def __init__(self) -> None:
        self.write_s: list[float] = []
        self.read_s: list[float] = []
        self.tasks = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.modeled_write_s = 0.0
        self.modeled_read_s = 0.0
        self.written: list = []  # WriteResults, kept only when tracing
        self.recorder = None  # a spans.SpanRecorder while tracing

    def _call(self, kind: str, fn, args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.recorder is None:
                out = fn(*args)
            else:
                out = self.recorder.request(f"client.{kind}", fn, *args)
        except Exception:  # the client keeps running and reports
            self.failed += 1
            self.errors.append(f"{kind} call failed:\n{traceback.format_exc()}")
            return None, 0.0
        return out, time.perf_counter() - start

    def write(self, fn, *args):
        results, elapsed = self._call("write", fn, args)
        if results is None:
            return None
        self.write_s.append(elapsed)
        modeled = 0.0
        for result in results:
            modeled += result.compress_seconds + result.io_seconds
        self.modeled_write_s += modeled
        self.tasks += len(results)
        if self.recorder is not None:
            self.written.extend(results)
        return results

    def read(self, fn, *args):
        results, elapsed = self._call("read", fn, args)
        if results is None:
            return None
        self.read_s.append(elapsed)
        modeled = 0.0
        for result in results:
            modeled += result.decompress_seconds + result.io_seconds
        self.modeled_read_s += modeled
        self.tasks += len(results)
        return results

    def background(self, kind: str, fn, *args):
        """Evicts, daemon steps and checkpoints: counted, not timed."""
        return self._call(kind, fn, args)[0]

    def mismatch(self, message: str) -> None:
        """A call returned wrong output: it counts as failed."""
        self.failed += 1
        self.errors.append(message)


def stored_ratio(engines) -> float:
    """Modeled bytes of live tasks over their accounted stored bytes."""
    modeled = stored = 0
    for engine in engines:
        manager = engine.manager
        for task_id in manager.task_ids():
            for entry in manager.task_entries(task_id):
                modeled += entry.length
                stored += engine.shi.accounted_size(entry.key)
    return modeled / stored if stored else 0.0


def strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform draws on [0, 1), one from each of ``count`` equal
    strata, in seeded random order. Every seed then gets the same spread
    of sizes, so a run's statistics vary with the program, not with the
    luck of the draw."""
    return rng.permutation((np.arange(count) + rng.random(count)) / count)


def classes(rng: np.random.Generator, count: int, text_share: float) -> list:
    """Data classes for ``count`` tasks in seeded random order: exactly
    ``text_share`` of them text (``None``), the rest spread evenly over the
    4 dtypes x 4 distributions grid."""
    grid = [(d, k) for d in DTYPES for k in DISTRIBUTIONS]
    text = round(count * text_share)
    kinds = [grid[i % len(grid)] for i in range(count - text)] + [None] * text
    return [kinds[i] for i in rng.permutation(count)]


def zipf_ranks(u: np.ndarray, count: int, exponent: float) -> np.ndarray:
    """Ranks in 1..count with P(r) ~ r**-exponent (a Zipf law), drawn by
    inverting the law's continuous CDF at the uniform draws ``u``."""
    shape = 1.0 - exponent
    top = (count + 1) ** shape
    ranks = (1.0 + u * (top - 1.0)) ** (1.0 / shape)
    return np.clip(ranks.astype(int), 1, count)


class Payloads:
    """Seeded payloads of a given class and size.

    Text payloads are slices of one ``synthetic_text`` corpus made per run
    at seeded offsets: generating each text separately costs about 1.5 s
    per MB, which would dominate a run's untimed work.
    """

    def __init__(self, rng: np.random.Generator, max_bytes: int) -> None:
        self.rng = rng
        self.text = synthetic_text(16 * max_bytes, rng)

    def make(self, kind, size: int) -> bytes:
        if kind is None:
            start = int(self.rng.integers(len(self.text) - size + 1))
            return self.text[start:start + size]
        return synthetic_buffer(kind[0], kind[1], size, self.rng)


class Workload:
    """What every workload provides; see the three below."""

    name: str
    steps: int  # loop steps in the measured phase

    def engines(self) -> list:
        return [self.api]

    def prepare(self, inputs, client: Client) -> None:
        """Untimed work before the measured phase (none by default)."""

    def finish(self) -> list[str]:
        """Close the deployment; returns correctness errors found."""
        self.api.close()
        return []


class CkptBurst(Workload):
    """Fig. 7 VPIC checkpoint cycle as a workflow (paper Fig. 8).

    Each timestep 64 ranks write one ``compress_batch`` of a shared seeded
    64 KiB particle sample scaled to 8 MiB modeled per task; the loop then
    reads the previous timestep back (the analysis read) and evicts
    timestep t-2, so two checkpoints (1 GiB modeled) stay live. The tiers
    follow the paper's 20/30/50 split of those two checkpoints.
    """

    name = "ckpt_burst"
    ranks = 64
    sample_bytes = 64 * KiB
    modeled_bytes = 8 * MiB
    steps_per_second = 55

    def __init__(self, seconds: int) -> None:
        self.steps = max(MIN_CALLS + 1, round(self.steps_per_second * seconds))

    def build(self, root: Path, seed=None) -> None:
        live = 2 * self.ranks * self.modeled_bytes
        self.api = HCompress(
            ares_hierarchy(*default_buffer_split(live)), seed=seed
        )

    def inputs(self, seed: int) -> bytes:
        return vpic_sample(self.sample_bytes, np.random.default_rng(seed))

    def payloads(self, sample: bytes):
        for _ in range(self.steps * self.ranks):
            yield sample

    def run(self, sample: bytes, client: Client) -> None:
        engine = self.api
        ranks = range(self.ranks)
        for step in range(self.steps):
            items = [
                {
                    "data": sample,
                    "hints": VPIC_HINTS,
                    "modeled_size": self.modeled_bytes,
                    "task_id": f"ckpt/s{step}/r{rank}",
                }
                for rank in ranks
            ]
            written = client.write(engine.compress_batch, items)
            if written is not None and len(written) != self.ranks:
                client.mismatch(f"step {step}: {len(written)} results")
            if step >= 1:
                ids = [f"ckpt/s{step - 1}/r{rank}" for rank in ranks]
                results = client.read(engine.decompress_batch, ids)
                if results is not None and not all(
                    r.modeled_size == self.modeled_bytes
                    and (r.data is None or r.data == sample)
                    for r in results
                ):
                    client.mismatch(f"step {step}: analysis read differs")
            if step >= 2:
                for rank in ranks:
                    client.background(
                        "evict", engine.manager.evict_task,
                        f"ckpt/s{step - 2}/r{rank}",
                    )


class MixedSpill(Workload):
    """The materialised per-task path (the paper's intercepted API).

    Fresh ``synthetic_buffer`` inputs over 4 dtypes x 4 distributions plus
    10% ``synthetic_text``, sizes log-uniform over 4-64 KiB. The tiers
    follow the 20/30/50 split of the expected total, so about 80% of the
    data lands below RAM. An untimed warm-up writes the first half, which
    fills RAM and NVMe; the measured phase is the spilling steady state
    that follows. There each ``compress()`` is followed by one
    ``decompress()`` of an earlier task, byte-compared.
    """

    name = "mixed_spill"
    min_bytes = 4 * KiB
    max_bytes = 64 * KiB
    text_share = 0.1
    steps_per_second = 45

    def __init__(self, seconds: int) -> None:
        self.steps = max(MIN_CALLS, round(self.steps_per_second * seconds))
        self.warm = self.steps
        # Log-uniform mean: the hierarchy depends on the run length only,
        # so set-up never waits for the inputs.
        mean = (self.max_bytes - self.min_bytes) / math.log(
            self.max_bytes / self.min_bytes
        )
        self.expected_bytes = int((self.warm + self.steps) * mean)

    def build(self, root: Path, seed=None) -> None:
        self.api = HCompress(
            ares_hierarchy(*default_buffer_split(self.expected_bytes)),
            seed=seed,
        )

    def inputs(self, seed: int) -> tuple[list[bytes], list[int]]:
        rng = np.random.default_rng(seed)
        low, high = math.log(self.min_bytes), math.log(self.max_bytes)
        payloads = Payloads(rng, self.max_bytes)
        buffers = []
        for count in (self.warm, self.steps):  # each phase gets the full mix
            sizes = np.exp(low + strata(rng, count) * (high - low))
            for size, kind in zip(sizes, classes(rng, count, self.text_share)):
                buffers.append(payloads.make(kind, int(round(size))))
        # After writing task i, read task i-r with r in 1..i and
        # P(r) ~ r**-0.25: a mild Zipf law over age, recent data hottest.
        # About 30% of the reads then decode a lower-tier piece and nearly
        # all others pay the CCP feedback flush of the compressing write
        # before them, so neither read_p50_ms nor read_p95_ms sits on the
        # step between two latency modes.
        written = np.arange(self.warm, self.warm + self.steps)
        targets = written - zipf_ranks(strata(rng, self.steps), written, 0.25)
        return buffers, [int(t) for t in targets]

    def payloads(self, inputs):
        return iter(inputs[0])

    def prepare(self, inputs, client: Client) -> None:
        for index, data in enumerate(inputs[0][: self.warm]):
            client.background("warmup", self._compress, data, f"mix/{index}")

    def run(self, inputs, client: Client) -> None:
        buffers, targets = inputs
        for step, target in enumerate(targets):
            index = self.warm + step
            client.write(self._compress, buffers[index], f"mix/{index}")
            result = client.read(self._decompress, f"mix/{target}")
            if result is not None and result[0].data != buffers[target]:
                client.mismatch(f"read of mix/{target} differs from its write")

    # One-task calls in the client's list-of-results form.
    def _compress(self, data: bytes, task_id: str) -> list:
        return [self.api.compress(data, task_id=task_id)]

    def _decompress(self, task_id: str) -> list:
        return [self.api.decompress(task_id)]


class DurableFit(Workload):
    """The production configuration on a working set that fits in RAM.

    ``ShardedHCompress`` with two shards and one standby replica each; WAL
    group commit every 8 records with real fsync; content digests checked
    on every read; lifecycle and scrub daemons stepped on a ``SimClock``
    advanced half a modeled second per step; a checkpoint every 8 steps.
    Each step writes one batch of 16 tenant-tagged records (1-8 KiB, 30%
    text) and reads one batch of 16 zipf-chosen earlier tasks,
    byte-compared. RAM holds twice the expected data.
    """

    name = "durable_fit"
    batch = 16
    min_bytes = 1 * KiB
    max_bytes = 8 * KiB
    text_share = 0.3
    tenants = 8
    checkpoint_every = 8
    tick = 0.5  # modeled seconds per step
    # Step k costs about first_step_s + step_growth_s * k: the lifecycle,
    # scrub and checkpoint work grows with the catalog (2-vCPU VM figures).
    first_step_s = 0.0415
    step_growth_s = 8.4e-5

    def __init__(self, seconds: int) -> None:
        # The step count whose summed cost is ``seconds``.
        a, b = self.first_step_s, self.step_growth_s
        steps = (math.sqrt(a * a + 2 * b * seconds) - a) / b
        self.steps = max(MIN_CALLS, round(steps))
        self.expected_bytes = (
            self.steps * self.batch * (self.min_bytes + self.max_bytes) // 2
        )

    def build(self, root: Path, seed=None) -> None:
        self.root = root
        self.clock = SimClock()
        config = replace(
            HCompressConfig(),
            recovery=RecoveryConfig(
                enabled=True, directory=root, fsync_every=8, fsync=True
            ),
            lifecycle=LifecycleConfig(enabled=True),
            scrub=ScrubConfig(
                enabled=True, content_digests=True, verify_reads=True
            ),
        )
        data = self.expected_bytes
        self.api = ShardedHCompress(
            ares_specs(2 * data, data, data),
            config,
            ShardConfig(
                shards=2,
                directory=root,
                replication=ReplicationConfig(enabled=True, replicas=1),
            ),
            seed=seed,
            clock=lambda: self.clock.now,
        )

    def engines(self) -> list:
        return [e for e in self.api.engines.values() if e is not None]

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        count = self.steps * self.batch
        span = self.max_bytes - self.min_bytes + 1
        sizes = self.min_bytes + (strata(rng, count) * span).astype(int)
        kinds = classes(rng, count, self.text_share)
        tenants = rng.permutation(np.arange(count) % self.tenants)
        ranks_u = strata(rng, count).reshape(self.steps, self.batch)
        payloads = Payloads(rng, self.max_bytes)
        steps = []
        for step in range(self.steps):
            items = []
            for index in range(self.batch):
                task = step * self.batch + index
                items.append({
                    "data": payloads.make(kinds[task], int(sizes[task])),
                    "task_id": f"dur/s{step}/{index}",
                    "tenant": f"tenant-{int(tenants[task])}",
                })
            # Each read picks a step r-1 back, P(r) ~ r**-1.5 over the
            # steps so far (recent data is hot), then a task of that step.
            ranks = zipf_ranks(ranks_u[step], step + 1, 1.5)
            picks = rng.integers(self.batch, size=self.batch)
            reads = [(step - int(r) + 1, int(i)) for r, i in zip(ranks, picks)]
            steps.append((items, reads))
        return steps

    def payloads(self, steps):
        for items, _reads in steps:
            for item in items:
                yield item["data"]

    def run(self, steps, client: Client) -> None:
        api = self.api
        for step, (items, reads) in enumerate(steps):
            client.write(api.compress_batch, items)
            ids = [f"dur/s{s}/{i}" for s, i in reads]
            results = client.read(api.decompress_batch, ids)
            if results is not None:
                for (s, i), result in zip(reads, results):
                    if result.data != steps[s][0][i]["data"]:
                        client.mismatch(f"read of dur/s{s}/{i} differs")
                        break
            self.clock.advance(self.tick)
            client.background("lifecycle", api.lifecycle_step)
            client.background("scrub", api.scrub_step)
            if step % self.checkpoint_every == self.checkpoint_every - 1:
                client.background("checkpoint", api.checkpoint)

    def finish(self) -> list[str]:
        self.api.close()
        report = fsck_store(self.root)
        if report.clean:
            return []
        return [f"fsck of the deployment root is not clean: {report.to_dict()}"]


WORKLOADS = {w.name: w for w in (CkptBurst, MixedSpill, DurableFit)}


def repeat_share(payloads) -> float:
    """Share of write tasks whose payload repeats an earlier one."""
    seen: set[bytes] = set()
    seen_ids: set[int] = set()
    total = repeats = 0
    for data in payloads:
        total += 1
        if id(data) in seen_ids:  # the same buffer object again
            repeats += 1
            continue
        digest = hashlib.blake2b(data, digest_size=16).digest()
        if digest in seen:
            repeats += 1
        seen.add(digest)
        seen_ids.add(id(data))
    return repeats / total if total else 0.0


def inputs_digest(workload, inputs) -> str:
    """Fingerprint of the generated inputs (the determinism self-check)."""
    digest = hashlib.blake2b(digest_size=16)
    seen: set[int] = set()
    for data in workload.payloads(inputs):
        if id(data) in seen:  # the same buffer object again: hash it once
            digest.update(b"=")
            continue
        seen.add(id(data))
        digest.update(hashlib.blake2b(data, digest_size=16).digest())
    return digest.hexdigest()
