"""Lifecycle migrations under group commit, and ``relocate`` rollback.

A migration frees the old extents only after the journal record that
re-points the task is durable. Without that barrier a crash at
``fsync_every > 1`` replays the stale entries, which point at freed keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import HCompress, HCompressConfig, RecoveryConfig, ares_hierarchy
from repro.datagen import synthetic_buffer
from repro.errors import CapacityError
from repro.lifecycle import LifecycleConfig
from repro.sim.clock import SimClock
from repro.tiers import Tier
from repro.units import KiB, MiB


def _engine(tmp_path, seed, hierarchy, fsync_every: int, clock: SimClock):
    config = HCompressConfig(
        recovery=RecoveryConfig(
            enabled=True, directory=str(tmp_path), fsync=False,
            fsync_every=fsync_every,
        ),
        # Three moves per step: never a multiple of the 4-record batch,
        # so an unsynced tail is left behind at fsync_every > 1.
        lifecycle=LifecycleConfig(enabled=True, max_migrations_per_step=3),
    )
    return HCompress(hierarchy, config, seed=seed, clock=lambda: clock.now)


def _buffers(count: int) -> dict[str, bytes]:
    rng = np.random.default_rng(7)
    return {
        f"t{i}": synthetic_buffer("float64", "gamma", 32 * KiB, rng)
        for i in range(count)
    }


@pytest.mark.parametrize("fsync_every", (1, 4, 16))
def test_migrated_tasks_survive_a_crash(tmp_path, seed, fsync_every) -> None:
    hierarchy = ares_hierarchy(4 * MiB, 8 * MiB, 64 * MiB, nodes=1)
    clock = SimClock()
    engine = _engine(tmp_path, seed, hierarchy, fsync_every, clock)
    data = _buffers(8)
    for task_id, buffer in data.items():
        engine.compress(buffer, task_id=task_id)
    engine.checkpoint()
    clock.advance(1e6)  # every task cools: demotions pay
    assert len(engine.lifecycle.step(force=True)) == 3

    # Crash: abandon the engine without close(), restore on the tiers.
    restored = HCompress.restore(tmp_path, hierarchy, seed=seed)
    assert restored.recovery_report.missing_keys == 0
    for task_id, buffer in data.items():
        assert restored.decompress(task_id).data == buffer
    restored.close()


def test_relocate_rolls_back_a_failed_copy(tmp_path, seed, monkeypatch) -> None:
    """The destination fills up on the second piece: the first copy is
    evicted, catalog and journal are untouched, the move counts failed."""
    hierarchy = ares_hierarchy(16 * KiB, 8 * MiB, 64 * MiB, nodes=1)
    clock = SimClock()
    engine = _engine(tmp_path, seed, hierarchy, 1, clock)
    buffer = _buffers(1)["t0"]
    engine.compress(buffer, task_id="t0")
    assert len(engine.manager.task_entries("t0")) == 2
    catalog = engine.manager.catalog_snapshot()
    lsn = engine.journal.last_lsn
    used = {tier.spec.name: tier.used for tier in hierarchy}

    placed: list[str] = []
    real_put = Tier.put

    def filling_put(self, key, payload, accounted_size=None):
        placed.append(key)
        if len(placed) == 2:
            raise CapacityError(f"{self.spec.name}: full")
        return real_put(self, key, payload, accounted_size=accounted_size)

    monkeypatch.setattr(Tier, "put", filling_put)
    clock.advance(1e6)
    failed = engine.lifecycle.stats.failed
    assert engine.lifecycle.step(force=True) == []
    monkeypatch.undo()

    assert len(placed) == 2
    assert hierarchy.find(placed[0]) is None
    assert {tier.spec.name: tier.used for tier in hierarchy} == used
    assert engine.manager.catalog_snapshot() == catalog
    assert engine.journal.last_lsn == lsn
    assert engine.lifecycle.stats.failed == failed + 1
    assert engine.decompress("t0").data == buffer
    engine.close()
