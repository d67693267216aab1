"""Distributed search campaign substrate.

The paper's search ran from late May to early September 2001 across
~50 continuously-available Alphastations and ~30 intermittently-
available UltraSparcs -- a classic bag-of-tasks distributed
computation over idle workstations, with all the attendant failure
modes: machines disappearing mid-chunk, duplicate completions after
recovery, stragglers, and the need to checkpoint months of progress.

This package reproduces that system:

* :mod:`repro.dist.tasks` / :mod:`repro.dist.queue` -- leased work
  units over dense candidate-index ranges, with at-least-once delivery
  and idempotent completion.
* :mod:`repro.dist.campaign` -- the one campaign engine:
  :class:`~repro.dist.campaign.CampaignCore` owns the queue and its
  hooks, the idempotently-mergeable
  :class:`~repro.search.records.CampaignRecord`, checkpoint/resume,
  signal drain, per-chunk spans and the run's books for every
  executor below.
* :mod:`repro.dist.worker` / :mod:`repro.dist.coordinator` -- the
  executing half and the simulated executor, which round-robins
  workers under a logical clock.
* :mod:`repro.dist.faults` -- deterministic fault injection (crashes,
  duplicate deliveries, stragglers, severed and lossy wires, poison
  chunks) used by the test suite to verify no work is lost or
  double-counted.
* :mod:`repro.dist.farm` -- a virtual-time discrete-event simulation
  of the 2001 fleet, reproducing the campaign-scale arithmetic (why
  2**30 polynomials at ~2/s/CPU takes a summer, and why Castagnoli's
  special-purpose hardware would have needed 3600+ years).
* :mod:`repro.dist.net` -- the wall-clock executor: the same engine
  behind the ``repro-work/1`` protocol (``repro serve`` /
  ``repro work``), with worker-held leases, a reaper,
  reconnect-and-resend and per-worker books.
* :mod:`repro.dist.pool` -- that executor on one host: a loopback
  ``WorkServer`` plus forked ``WorkClient`` children, whose deaths
  forfeit their leases at once and are respawned.
"""

from repro.dist.tasks import SearchTask, TaskStatus
from repro.dist.queue import TaskQueue
from repro.dist.campaign import CampaignCore, CampaignStats
from repro.dist.worker import ChunkWorker
from repro.dist.coordinator import Coordinator
from repro.dist.checkpoint import CheckpointMismatch
from repro.dist.faults import FaultPlan
from repro.dist.farm import FarmSpec, MachineSpec, simulate_campaign, CampaignEstimate
from repro.dist.pool import ParallelCoordinator

__all__ = [
    "SearchTask",
    "TaskStatus",
    "TaskQueue",
    "CampaignCore",
    "CampaignStats",
    "ChunkWorker",
    "Coordinator",
    "CheckpointMismatch",
    "FaultPlan",
    "FarmSpec",
    "MachineSpec",
    "simulate_campaign",
    "CampaignEstimate",
    "ParallelCoordinator",
]
