#!/usr/bin/env python3
"""Replay the 2001 search campaign -- and run a real one, with faults.

Run:  python examples/farm_campaign_simulation.py

Part 1 prices the paper's §4.2 campaign: the full 1,073,774,592-
polynomial space on the actual 2001 fleet (50 Alphas + 30 intermittent
UltraSparcs at ~2 polynomials/s/CPU), versus Castagnoli's special-
purpose hardware and naive brute force.

Part 2 runs a *live* scaled campaign (every 10-bit CRC polynomial)
through the same distributed machinery -- coordinator, leased task
queue, checkpointing -- while a fault plan kills a worker mid-chunk
and duplicates another's completion message.  The campaign must finish
with exactly the same survivors as a clean run, demonstrating the
fault-tolerance the real months-long computation needed.
"""

from repro.dist import Coordinator, FaultPlan
from repro.dist.farm import (
    FarmSpec,
    brute_force_years,
    castagnoli_hardware_years,
    paper_campaign_estimate,
    simulate_campaign,
)
from repro.dist.worker import ChunkWorker
from repro.search import SearchConfig, census_of, search_all
from repro.search.space import candidate_count


def part1_fleet_economics() -> None:
    print("=" * 70)
    print("Part 1: what the 2001 campaign cost")
    print("=" * 70)
    est = paper_campaign_estimate()
    print(f"  fleet simulation:  {est.summary()}")
    print("  paper's report:    late May to early September 2001 "
          "(~3.5 months)")
    print(f"  Castagnoli's hardware instead: "
          f"{castagnoli_hardware_years():,.0f} years "
          "(paper: 'in excess of 3600 years')")
    print(f"  naive brute force instead:     "
          f"{brute_force_years() / 1e6:,.0f} million years "
          "(paper: 151 million years)")

    print("\n  scaling the fleet (same 2/s/CPU rate):")
    from repro.dist.farm import MachineSpec

    for cpus in (25, 50, 100, 200):
        farm = FarmSpec((MachineSpec("cpu", cpus, 2.0),))
        est = simulate_campaign(farm, candidate_count(32)["canonical"])
        print(f"    {cpus:>4} CPUs -> {est.wall_days:6.0f} days")


def part2_live_campaign() -> None:
    print()
    print("=" * 70)
    print("Part 2: a live width-10 campaign with injected faults")
    print("=" * 70)
    cfg = SearchConfig(
        width=10, target_hd=4, filter_lengths=(32, 80, 200),
        confirm_weights=False,
    )
    # ground truth from a clean, single-process run
    clean = search_all(cfg)
    print(f"  clean run: {clean.examined} candidates, "
          f"{len(clean.survivors)} survivors, "
          f"{clean.filtering_rate:.0f} candidates/s")

    coord = Coordinator(config=cfg, chunk_size=64, lease_duration=4.0)
    plan = FaultPlan(
        crash_points={"alpha-3": 2},          # dies on its 3rd chunk
        duplicate_completions={"alpha-1": 0},  # first result sent twice
        straggle={"sparc-1": 3.0},             # 3x slower than the rest
    )
    workers = [
        ChunkWorker(name, cfg, faults=plan)
        for name in ("alpha-1", "alpha-2", "alpha-3", "sparc-1")
    ]
    coord.run(workers)
    print(f"  distributed run: {coord.queue.progress()}")
    print(f"    lease reassignments after crash: {coord.stats.reassignments}")
    print(f"    duplicate deliveries absorbed:   {coord.stats.duplicate_deliveries}")

    same = {r.poly for r in coord.campaign.survivors} == {
        r.poly for r in clean.survivors
    }
    print(f"    survivors identical to clean run: {same}")
    assert same

    census = census_of(coord.campaign.survivors)
    print(f"\n  survivor census ({census.total} polynomials):")
    for sig, count in census.sorted_rows():
        print(f"    {{{','.join(map(str, sig))}}}: {count}")
    print(f"  all divisible by (x+1): {census.all_divisible_by_x_plus_1()}"
          "  <- the paper's Table 2 law, at width 10")


def main() -> None:
    part1_fleet_economics()
    part2_live_campaign()


if __name__ == "__main__":
    main()
