# Convenience targets for the reproduction workflow.

PY ?= python

.PHONY: install test test-all verify docs-check chaos-smoke farm-smoke farm-chaos bench bench-e2e backend-gate packed-gate service-smoke dash-smoke bench-full repro examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

test-all:
	RUN_SLOW=1 $(PY) -m pytest tests/

# What CI runs: the tier-1 suite, a ~30s smoke parallel campaign
# (width 8, 2 subprocesses, checkpoint + resume) so the real
# subprocess path is exercised on every PR, a resume of the pool's
# checkpoint by the simulated backend (both executors read one
# format), and the docs-check that executes every fenced python block
# in README.md and docs/*.md.
verify:
	PYTHONPATH=src $(PY) -m pytest -x -q tests/
	rm -f /tmp/repro-smoke-campaign.json /tmp/repro-smoke-campaign.json.prev
	PYTHONPATH=src $(PY) -m repro campaign --width 8 --target-hd 4 \
	    --bits 100 --parallel 2 --chunk-size 8 \
	    --checkpoint /tmp/repro-smoke-campaign.json
	PYTHONPATH=src $(PY) -m repro campaign --width 8 --target-hd 4 \
	    --bits 100 --parallel 2 --chunk-size 8 \
	    --checkpoint /tmp/repro-smoke-campaign.json --resume \
	    | grep -q "0 chunks computed"
	PYTHONPATH=src $(PY) -m repro campaign --width 8 --target-hd 4 \
	    --bits 100 --chunk-size 8 \
	    --checkpoint /tmp/repro-smoke-campaign.json --resume \
	    | grep -q "0 chunks computed"
	rm -f /tmp/repro-smoke-campaign.json /tmp/repro-smoke-campaign.json.prev
	$(PY) tools/check_docs.py

docs-check:
	$(PY) tools/check_docs.py

# The survival-kit gauntlet (~1s of campaign work, seeded): worker
# crashes + a hard kill + a SIGTERM drain + a corrupted checkpoint +
# resume must still produce a record bit-identical to a fault-free
# run, and a poison chunk must end quarantined.  docs/RESILIENCE.md.
chaos-smoke:
	$(PY) tools/chaos_campaign.py --seed 2002

# Multi-host farm gate, fault-free: a real WorkServer coordinator and
# three WorkClient workers over the loopback transport must finish a
# campaign bit-identical to the direct single-process merge, with the
# per-worker books balancing.  docs/FARM.md.
farm-smoke:
	$(PY) tools/farm_smoke.py

# Multi-host farm gauntlet: the same farm under a seeded network
# disaster -- severed connection, dropped + duplicated completions, a
# worker killed while holding a lease, and a coordinator SIGTERM +
# checkpoint restart -- must still produce a bit-identical record,
# with the event log proving every fault fired.  docs/FARM.md.
farm-chaos:
	$(PY) tools/chaos_farm.py --seed 2002

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# The layered end-to-end benchmark's self-tests (~40 s): --smoke runs
# of all five workloads, every declared metric emitted, and a
# corrupted record must count as failed.  bench/run.py itself exits 0
# even when failed > 0, so this is its automated guard.  bench/README.md.
bench-e2e:
	$(PY) -m pytest bench -q

# Kernel-registry identity gate: every generated backend of every
# catalog spec must agree with the bit-serial reference, end to end.
backend-gate:
	PYTHONPATH=src $(PY) tools/backend_gate.py

# Packed-kernel identity gate: the screening census over the width-10
# full space, and index-range sweeps at widths 40 and 63, must be
# bit-identical to the scalar oracle, and the matpow / jump engines
# must hit their independent oracles.
packed-gate:
	PYTHONPATH=src $(PY) tools/packed_gate.py

# Serving-layer gate: spawn `repro serve-crc` on a loopback port,
# run a scripted NDJSON session (every op + error paths), SIGTERM it,
# and assert the drain events and metrics counters.  docs/SERVICE.md.
service-smoke:
	$(PY) tools/service_smoke.py

# Live-tier gate: a tiny real campaign with --events, replayed
# through `repro dash --once`, asserting the throughput / worker /
# latency-percentile / waterfall lines plus the friendly rc-2 error
# paths.  docs/OBSERVABILITY.md.
dash-smoke:
	$(PY) tools/dash_smoke.py

bench-full:
	REPRO_FULL=1 $(PY) -m pytest benchmarks/ --benchmark-only

repro:
	$(PY) examples/reproduce_paper.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PY) $$ex > /dev/null || exit 1; done; echo all examples OK

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
