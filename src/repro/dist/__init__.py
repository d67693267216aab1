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
* :mod:`repro.dist.campaign` -- the worker side: one chunk computed
  under per-chunk metrics and tracing, and the drain-signal helpers.
* :mod:`repro.dist.faults` -- deterministic fault injection (worker
  deaths, duplicate deliveries, stragglers, severed and lossy wires,
  poison chunks, checkpoint rot, a scheduled SIGTERM) used by the test
  suite to verify no work is lost or double-counted.
* :mod:`repro.dist.farm` -- a virtual-time discrete-event simulation
  of the 2001 fleet, reproducing the campaign-scale arithmetic (why
  2**30 polynomials at ~2/s/CPU takes a summer, and why Castagnoli's
  special-purpose hardware would have needed 3600+ years).
* :mod:`repro.dist.net` -- the one campaign engine,
  :class:`~repro.dist.net.WorkServer`: the queue and its hooks, the
  idempotently-mergeable :class:`~repro.search.records.CampaignRecord`,
  checkpoint/resume, signal drain, per-chunk spans and the run's
  counters, behind the ``repro-work/2`` protocol (``repro serve`` /
  ``repro work``), with worker-held leases, a reaper,
  reconnect-and-resend and per-worker books.
* :mod:`repro.dist.pool` -- that engine on one host, which
  ``repro campaign`` runs: a loopback ``WorkServer`` plus forked
  ``WorkClient`` children, whose deaths forfeit their leases at once
  and are respawned, and who say ``bye`` and exit when the run ends.
"""

import importlib

#: Every public name, by the module that defines it, loaded on first
#: use (PEP 562): a campaign that only checkpoints does not import the
#: farm's asyncio/ssl stack.
_EXPORTS = {
    "SearchTask": "repro.dist.tasks",
    "TaskStatus": "repro.dist.tasks",
    "TaskQueue": "repro.dist.queue",
    "CampaignStats": "repro.dist.net",
    "WorkServer": "repro.dist.net",
    "CheckpointMismatch": "repro.dist.checkpoint",
    "FaultPlan": "repro.dist.faults",
    "FarmSpec": "repro.dist.farm",
    "MachineSpec": "repro.dist.farm",
    "simulate_campaign": "repro.dist.farm",
    "CampaignEstimate": "repro.dist.farm",
    "ParallelCoordinator": "repro.dist.pool",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [*_EXPORTS]
