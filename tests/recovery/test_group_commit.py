"""Evicts under group commit: tiers free a task's pieces only after the
``evict`` record is durable, so a crash never resurrects a task whose
extents are gone."""

from __future__ import annotations

import pytest

from repro import HCompress, HCompressConfig, RecoveryConfig, ares_hierarchy
from repro.units import MiB


@pytest.mark.parametrize("fsync_every", (1, 4, 16))
def test_evicted_task_stays_gone_after_a_crash(
    tmp_path, seed, fsync_every
) -> None:
    hierarchy = ares_hierarchy(4 * MiB, 8 * MiB, 64 * MiB, nodes=1)
    engine = HCompress(
        hierarchy,
        HCompressConfig(
            recovery=RecoveryConfig(
                enabled=True, directory=str(tmp_path), fsync=False,
                fsync_every=fsync_every,
            )
        ),
        seed=seed,
    )
    data = {f"t{i}": f"task {i} bytes ".encode() * 2000 for i in range(8)}
    for task_id, buffer in data.items():
        engine.compress(buffer, task_id=task_id)
    engine.checkpoint()
    engine.manager.evict_task("t0")

    # Crash: abandon the engine without close(), restore on the tiers.
    restored = HCompress.restore(tmp_path, hierarchy, seed=seed)
    assert restored.recovery_report.missing_keys == 0
    assert "t0" not in restored.manager
    for task_id, buffer in data.items():
        if task_id != "t0":
            assert restored.decompress(task_id).data == buffer
    restored.close()
