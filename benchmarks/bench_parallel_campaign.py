"""E7b: wall-clock scaling of the process-parallel campaign backend.

The paper bought its throughput with ~80 workstations; this exhibit
shows the reproduction buying it with cores.  A small-width exhaustive
search runs through :class:`repro.dist.pool.ParallelCoordinator` at
1, 2 and 4 processes; with per-chunk work dominating the pool's
submission overhead the scaling should be near linear up to the
machine's core count.  Speedup is asserted only when the host actually
has the cores (CI runners and laptops vary); the measured curve is
always recorded to ``results/parallel_campaign.json``.

One sweep lasts well under a second, so a single timing per process
count is at the mercy of host noise.  Each count is therefore timed
:data:`ROUNDS` times, interleaved (1, 2, 4, 1, 2, 4, ...) so that a
slow spell of the host lands on every count alike, and the gates
compare median walls.  Every run is recorded.
"""

from __future__ import annotations

import os
from statistics import median

from conftest import once
from repro.dist.pool import ParallelCoordinator
from repro.search.exhaustive import SearchConfig, search_all

CFG = SearchConfig.for_bits(12, 4, 300)
CHUNK_SIZE = 64  # 2**11 indices -> 32 chunks, plenty per process
PROCESSES = (1, 2, 4)
ROUNDS = 3


def run_with(processes: int) -> tuple[float, ParallelCoordinator]:
    runner = ParallelCoordinator(
        config=CFG,
        chunk_size=CHUNK_SIZE,
        processes=processes,
        lease_duration=120.0,
        max_seconds=600.0,
    )
    elapsed = runner.run()
    return elapsed, runner


def test_parallel_speedup(benchmark, record):
    baseline = search_all(CFG)
    truth = {r.poly: r.survived for r in baseline.records}

    def sweep():
        walls: dict[int, list[float]] = {procs: [] for procs in PROCESSES}
        for _ in range(ROUNDS):
            for procs in PROCESSES:
                elapsed, runner = run_with(procs)
                # Correctness first: every fleet size, every run,
                # produces the identical campaign record.
                assert runner.queue.all_done
                assert runner.campaign.candidates_examined == baseline.examined
                assert {
                    r.poly: r.survived for r in runner.campaign.results.values()
                } == truth
                walls[procs].append(elapsed)
        return walls, len(runner.queue)

    walls, chunks = once(benchmark, sweep)
    medians = {procs: median(runs) for procs, runs in walls.items()}
    cores = os.cpu_count() or 1
    speedups = {procs: medians[1] / m for procs, m in medians.items()}
    record("parallel_campaign", {
        "width": CFG.width,
        "final_length": CFG.final_length,
        "candidates": baseline.examined,
        "chunks": chunks,
        "host_cores": cores,
        "rounds": ROUNDS,
        "runs": {str(p): [round(e, 3) for e in runs] for p, runs in walls.items()},
        "wall_seconds": {str(p): round(m, 3) for p, m in medians.items()},
        "speedup_vs_1": {str(p): round(s, 2) for p, s in speedups.items()},
    })
    if cores >= 4:
        assert speedups[4] >= 2.5, f"4-process speedup only {speedups[4]:.2f}x"
    if cores >= 2:
        assert speedups[2] >= 1.5, f"2-process speedup only {speedups[2]:.2f}x"
