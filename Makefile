# Convenience targets for the reproduction workflow.

PY ?= python

.PHONY: install test test-all verify docs-check bench bench-e2e service-smoke dash-smoke bench-full repro examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

test-all:
	RUN_SLOW=1 $(PY) -m pytest tests/

# What CI runs: the tier-1 suite -- which carries the identity matrix
# (tests/dist/test_identity_matrix.py: 8 cells, scalar and packed
# kernels on the pool and the farm, fault-free and under chaos, every
# record byte-equal to the scalar reference) and the packed-vs-scalar
# census -- then a smoke parallel campaign through the CLI (width 8,
# 2 subprocesses, checkpoint + resume) whose event log must show one
# `worker.bye` per process and no `worker.crash` (a run ends with its
# children saying goodbye, not killed), a resume of the pool's
# checkpoint by `repro serve` (the pool and the farm read one format),
# a check that no more than two segment logs (the live generation's
# and .prev's) sit beside the checkpoint, and the docs-check that
# executes every fenced python block in README.md and docs/*.md.
SMOKE_CKPT = /tmp/repro-smoke-campaign.json
SMOKE_EVENTS = /tmp/repro-smoke-campaign.jsonl

verify:
	PYTHONPATH=src $(PY) -m pytest -x -q tests/
	rm -f $(SMOKE_CKPT) $(SMOKE_CKPT).prev $(SMOKE_CKPT).*.log $(SMOKE_EVENTS)
	PYTHONPATH=src $(PY) -m repro campaign --width 8 --target-hd 4 \
	    --bits 100 --parallel 2 --chunk-size 8 \
	    --checkpoint $(SMOKE_CKPT) --events $(SMOKE_EVENTS)
	test $$(grep -c '"event":"worker.bye"' $(SMOKE_EVENTS)) -eq 2
	! grep -q '"event":"worker.crash"' $(SMOKE_EVENTS)
	PYTHONPATH=src $(PY) -m repro campaign --width 8 --target-hd 4 \
	    --bits 100 --parallel 2 --chunk-size 8 \
	    --checkpoint $(SMOKE_CKPT) --resume \
	    | grep -q "0 chunks computed"
	PYTHONPATH=src $(PY) -m repro serve --width 8 --target-hd 4 \
	    --bits 100 --chunk-size 8 \
	    --checkpoint $(SMOKE_CKPT) --resume \
	    | grep -q "0 chunks computed"
	test $$(ls $(SMOKE_CKPT).*.log | wc -l) -le 2
	rm -f $(SMOKE_CKPT) $(SMOKE_CKPT).prev $(SMOKE_CKPT).*.log $(SMOKE_EVENTS)
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
