"""E7: the search campaign -- live scaled runs and the 2001 fleet model.

Three measurements:

* a live exhaustive width-8 campaign through the real distributed
  coordinator with injected faults (crash + duplicate delivery),
  asserting the result matches the clean single-process search;
* the local filtering rate (candidates/second/CPU), the 2026 analogue
  of the paper's "approximately two polynomials ... per second per
  CPU" on 2001 Alphas;
* the virtual-time simulation of the paper's fleet, which must land
  on "one summer" for the full 1,073,774,592-candidate space, with
  Castagnoli-hardware (3600+ years) and brute-force (151M years)
  comparisons.
"""

from __future__ import annotations

import pytest

from conftest import once
from repro.dist.coordinator import Coordinator
from repro.dist.farm import (
    FarmSpec,
    brute_force_years,
    castagnoli_hardware_years,
    paper_campaign_estimate,
)
from repro.dist.faults import FaultPlan
from repro.dist.worker import ChunkWorker
from repro.search.exhaustive import SearchConfig, search_all

CFG = SearchConfig(width=8, target_hd=4, filter_lengths=(16, 40, 100),
                   confirm_weights=False)


def test_live_campaign_with_faults(benchmark, record):
    baseline = search_all(CFG)
    truth = {r.poly: r.survived for r in baseline.records}

    def campaign():
        coord = Coordinator(config=CFG, chunk_size=8, lease_duration=2.0)
        plan = FaultPlan(
            crash_points={"w1": 1},
            duplicate_completions={"w2": 0},
            straggle={"w0": 2.5},
        )
        workers = [ChunkWorker(f"w{i}", CFG, faults=plan) for i in range(3)]
        coord.run(workers)
        return coord

    coord = once(benchmark, campaign)
    assert {r.poly: r.survived for r in coord.campaign.results.values()} == truth
    record("farm", {"live_width8_campaign": {
        "chunks": len(coord.queue),
        "reassignments": coord.stats.reassignments,
        "duplicate_deliveries": coord.stats.duplicate_deliveries,
        "survivors": len(coord.campaign.survivors),
    }})
    assert coord.stats.reassignments >= 1
    assert coord.stats.duplicate_deliveries >= 1


def test_local_filtering_rate(benchmark, record):
    res = once(benchmark, search_all, CFG)
    record("farm", {"filtering_rate": {
        "examined": res.examined,
        "seconds": round(res.elapsed_seconds, 3),
        "candidates_per_second": round(res.filtering_rate, 1),
        "paper_2001_rate_per_cpu": 2.0,
    }})
    # A 2026 CPU with the MITM engine should beat two-per-second at
    # width 8 comfortably (the paper's figure was width 32 at longer
    # lengths, so rates are not directly comparable -- recorded, not
    # asserted against each other).
    assert res.filtering_rate > 2.0


def test_paper_fleet_simulation(benchmark, record):
    est = once(benchmark, paper_campaign_estimate)
    record("farm", {"fleet_2001": {
        "candidates": est.total_candidates,
        "wall_days": round(est.wall_days, 1),
        "wall_months": round(est.wall_months, 2),
        "cpu_years": round(est.cpu_seconds / 3.156e7, 1),
        "paper": "late May to early September 2001 (~3.5 months)",
    }})
    assert 2.5 <= est.wall_months <= 4.5


def test_alternative_platforms(benchmark, record):
    def compute():
        return castagnoli_hardware_years(), brute_force_years()

    hw_years, bf_years = once(benchmark, compute)
    record("farm", {"alternatives": {
        "castagnoli_hardware_years": round(hw_years),
        "paper_claim_hardware": ">3600 years",
        "brute_force_years": float(f"{bf_years:.3g}"),
        "paper_claim_brute_force": "151 million years",
    }})
    assert hw_years > 3600
    assert abs(bf_years / 151e6 - 1) < 0.02


def test_fleet_scaling(benchmark, record):
    """Ablation: how the same campaign scales with fleet size (the
    'riding the technology curve / idle cycles' argument)."""
    from repro.dist.farm import MachineSpec, simulate_campaign

    def sweep():
        rows = {}
        for count in (10, 25, 50, 100):
            farm = FarmSpec((MachineSpec("alpha", count, 2.0),))
            est = simulate_campaign(farm, 1_073_774_592)
            rows[count] = round(est.wall_days, 1)
        return rows

    rows = once(benchmark, sweep)
    record("farm", {"fleet_scaling_wall_days": {str(k): v for k, v in rows.items()}})
    assert rows[100] < rows[50] < rows[25] < rows[10]
    assert rows[50] == pytest.approx(rows[100] * 2, rel=0.05)
