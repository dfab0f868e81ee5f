"""Named crash sites and the seeded plan that fires them.

The crash-consistency harness needs to kill the engine at *specific*
moments — after a piece is placed but before its catalog entry is
journaled, between the flusher's copy and its evict, halfway through a
journal sync. Components declare those moments as **crash sites** by
calling :meth:`Crashpoints.reached` (or the ``trigger``/``die`` pair for
sites with custom pre-death side effects, like writing a torn frame). A
:class:`CrashPlan` arms exactly one site per run, optionally on its Nth
hit, so a seeded sweep can cover every site deterministically.

Dying is modeled by raising :class:`~repro.errors.SimulatedCrashError`,
which nothing in the engine catches (it deliberately sits outside the
``TierError``/``CapacityError`` families every resilience path handles):
the exception unwinds through rollback and replan handlers untouched,
leaving exactly the state a ``kill -9`` would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import RecoveryError, SimulatedCrashError

__all__ = ["CRASH_SITES", "CrashPlan", "Crashpoints"]

#: Every instrumented crash site, in rough write-path order. The harness
#: sweeps this list; docs/RECOVERY.md documents each one.
CRASH_SITES = (
    # CompressionManager.execute_write / evict_task
    "manager.write.prepared",      # plan accepted, before any piece lands
    "manager.write.piece_placed",  # after >=1 piece placed, before journal
    "manager.write.pre_journal",   # all pieces placed, journal not written
    "manager.write.post_journal",  # journal durable, before in-memory catalog
    "manager.evict.pre_journal",   # evict requested, nothing logged yet
    "manager.evict.post_journal",  # evict synced, tier frees not yet done
    # StorageHardwareInterface
    "shi.write.pre_put",           # before handing a piece to the tier
    "shi.write.post_put",          # piece on the tier, before returning
    "shi.write.failover",          # mid-failover, after >=1 candidate failed
    # TierFlusher drain step
    "flusher.pre_copy",            # victim chosen, nothing moved
    "flusher.post_copy",           # copied to destination, source not evicted
    "flusher.post_evict",          # source evicted, stats not yet updated
    # Journal internals
    "journal.pre_sync",            # records buffered, nothing on disk
    "journal.torn_sync",           # dies mid-write, leaving a torn tail
    # LifecycleDaemon migration step (pre_copy) and the
    # CompressionManager.relocate it calls (post_*)
    "lifecycle.pre_copy",          # victim scored, nothing moved yet
    "lifecycle.post_copy",         # re-encoded copies placed under new keys,
                                   # catalog/journal still point at the old
    "lifecycle.post_journal",      # re-commit journaled and synced, before
                                   # the in-memory catalog re-points
    "lifecycle.post_evict",        # old extents evicted, step not finished
    # Shard failover promotion (repro.shard.router.failover)
    "replication.pre_promote",     # standby chosen, nothing changed yet
    "replication.post_manifest",   # re-homed shard map durable, engine not
                                   # yet swapped in
    "replication.post_reroute",    # promoted engine wired + supervisor
                                   # flipped, demotion not started
    "replication.post_demote",     # old primary recycled + standbys
                                   # reseeded, failover not yet reported
    # Scrubber repair step (pre_repair) and the
    # CompressionManager.relocate it calls (post_*)
    "scrub.pre_repair",            # mismatch confirmed, nothing changed yet
    "scrub.post_copy",             # healed copy placed under a new key,
                                   # catalog/journal still point at the old
    "scrub.post_journal",          # re-commit journaled and synced, before
                                   # the in-memory catalog re-points
    "scrub.post_evict",            # rotten extents evicted, stats not final
)


@dataclass(frozen=True)
class CrashPlan:
    """Seeded description of one scheduled crash.

    Attributes:
        site: Which :data:`CRASH_SITES` entry to arm.
        hit: Fire on the Nth time the site is reached (1-based), so a
            sweep can crash on the first write *and* the fortieth.
        seed: Recorded for provenance/reproduction; the plan itself is
            already deterministic, the seed names the sweep entry that
            generated it.
    """

    site: str
    hit: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in CRASH_SITES:
            raise RecoveryError(
                f"unknown crash site {self.site!r}; known: {', '.join(CRASH_SITES)}"
            )
        if self.hit < 1:
            raise RecoveryError(f"crash hit count must be >= 1, got {self.hit}")

    # -- JSON round-trip (same idiom as faults.FaultPlan) --------------------

    def to_dict(self) -> dict:
        return {"site": self.site, "hit": self.hit, "seed": self.seed}

    @classmethod
    def from_dict(cls, raw: dict) -> "CrashPlan":
        return cls(
            site=str(raw["site"]),
            hit=int(raw.get("hit", 1)),
            seed=int(raw.get("seed", 0)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CrashPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class Crashpoints:
    """Runtime arbiter consulted at every instrumented site.

    One instance is threaded through the engine (manager, SHI, flusher,
    journal). With no plan armed every check is a dict lookup + compare —
    cheap enough to leave in production paths; engines built without a
    harness pass ``crashpoints=None`` and skip even that.
    """

    plan: CrashPlan | None = None
    hits: dict[str, int] = field(default_factory=dict)
    fired: str | None = None

    def reached(self, site: str) -> None:
        """Record a visit to ``site``; die if the plan says so."""
        if self.trigger(site):
            self.die(site)

    def trigger(self, site: str) -> bool:
        """True when the armed plan fires at this visit (without dying).

        For sites that must perform a side effect *before* death (the
        journal's torn write), callers split the check from the raise:
        ``if cp.trigger(site): ...side effect...; cp.die(site)``.
        """
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        plan = self.plan
        return (
            plan is not None
            and self.fired is None
            and plan.site == site
            and count == plan.hit
        )

    def die(self, site: str) -> None:
        """Raise the simulated crash for ``site``."""
        self.fired = site
        raise SimulatedCrashError(
            f"simulated crash at {site} (hit {self.hits.get(site, 0)})"
        )
