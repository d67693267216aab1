#!/usr/bin/env python3
"""Replay the 2001 search campaign -- and run a real one, with faults.

Run:  python examples/farm_campaign_simulation.py

Part 1 prices the paper's §4.2 campaign: the full 1,073,774,592-
polynomial space on the actual 2001 fleet (50 Alphas + 30 intermittent
UltraSparcs at ~2 polynomials/s/CPU), versus Castagnoli's special-
purpose hardware and naive brute force.

Part 2 runs a *live* scaled campaign (every 10-bit CRC polynomial)
through the machinery ``repro campaign`` uses -- a coordinator
leasing chunks to forked worker processes over the repro-work/2
protocol -- while a fault plan kills a worker holding a chunk,
duplicates another's completion message and slows a third.  The
campaign must finish with exactly the same survivors as a clean run,
demonstrating the fault-tolerance the real months-long computation
needed.
"""

from repro.dist import FaultPlan, ParallelCoordinator
from repro.dist.farm import (
    FarmSpec,
    brute_force_years,
    castagnoli_hardware_years,
    paper_campaign_estimate,
    simulate_campaign,
)
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

    # Workers are labelled pool-0, pool-1, ...; a killed one comes back
    # under the next free label, so each fault fires once.
    plan = FaultPlan(
        net_kill_after={"pool-0": 0},            # dies holding its 1st chunk
        net_duplicate_complete={"pool-1": {0}},  # first result sent twice
        net_delay={"pool-2": 0.05},              # every frame 50 ms late
    )
    coord = ParallelCoordinator(
        config=cfg, chunk_size=64, processes=3, faults=plan
    )
    coord.run()
    print(f"  distributed run: {coord.queue.progress()}")
    print(f"    lease reassignments after crash: {coord.stats.reassignments}")
    assert coord.stats.reassignments >= 1
    print(f"    duplicate deliveries absorbed:   {coord.stats.duplicate_deliveries}")
    assert coord.stats.duplicate_deliveries >= 1

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
