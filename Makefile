# Convenience targets for the reproduction workflow.

PY ?= python

.PHONY: install test test-all verify docs-check bench bench-e2e backend-gate service-smoke dash-smoke bench-full repro examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

test-all:
	RUN_SLOW=1 $(PY) -m pytest tests/

# What CI runs: the tier-1 suite -- which carries the identity matrix
# (tests/dist/test_identity_matrix.py: scalar and packed kernels on the
# simulated, pool and farm executors, fault-free and under seeded
# chaos, every record byte-equal to the scalar reference) and the
# packed-vs-scalar census -- then a smoke parallel campaign through
# the CLI (width 8, 2 subprocesses, checkpoint + resume), a resume of
# the pool's checkpoint by the simulated backend (every executor reads
# one format), and the docs-check that executes every fenced python
# block in README.md and docs/*.md.
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
