"""Scrub rewrites under group commit: a healed piece's rotten extent is
freed only after the record re-pointing the task is durable."""

from __future__ import annotations

import numpy as np
import pytest

from repro import HCompress, HCompressConfig, RecoveryConfig, ares_hierarchy
from repro.core.config import ScrubConfig
from repro.datagen import synthetic_buffer
from repro.faults import LatentCorruptionInjector
from repro.units import KiB, MiB

from .test_scrubber import _mirror


@pytest.mark.parametrize("fsync_every", (1, 4, 16))
def test_healed_tasks_survive_a_crash(tmp_path, seed, fsync_every) -> None:
    hierarchy = ares_hierarchy(4 * MiB, 8 * MiB, 64 * MiB, nodes=1)
    engine = HCompress(
        hierarchy,
        HCompressConfig(
            recovery=RecoveryConfig(
                enabled=True, directory=str(tmp_path), fsync=False,
                fsync_every=fsync_every,
            ),
            scrub=ScrubConfig(
                enabled=True, content_digests=True, verify_reads=True,
                scan_interval=0.0,
            ),
        ),
        seed=seed,
    )
    rng = np.random.default_rng(7)
    data = {
        f"t{i}": synthetic_buffer("float64", "gamma", 32 * KiB, rng)
        for i in range(8)
    }
    for task_id, buffer in data.items():
        engine.compress(buffer, task_id=task_id)
    engine.checkpoint()
    mirror = _mirror(engine)
    engine.manager.on_corrupt = lambda key, blob: mirror.get(key)
    # Three rewrites: fewer than one 4-record batch, so they stay unsynced
    # unless the rewrite itself syncs.
    LatentCorruptionInjector(hierarchy, seed=1).corrupt(count=3)
    repairs = engine.scrub.step(force=True)
    assert [(r.source, r.outcome) for r in repairs] == [("hook", "healed")] * 3

    # Crash: abandon the engine without close(), restore on the tiers.
    restored = HCompress.restore(tmp_path, hierarchy, seed=seed)
    assert restored.recovery_report.missing_keys == 0
    for task_id, buffer in data.items():
        assert restored.decompress(task_id).data == buffer
    restored.close()
