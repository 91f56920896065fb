PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-rules lint-baseline chaos audit bench bench-smoke soak latency perfbench console experiments

test:
	$(PYTHON) -m pytest -x -q

# Protocol-aware lints always run; ruff (generic hygiene) only when
# installed — the offline dev container ships without it, CI installs it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping generic hygiene checks"; \
	fi
	$(PYTHON) -m repro.analysis src tests --interproc

lint-rules:
	$(PYTHON) -m repro.analysis --list-rules

# Record the current findings as accepted; `--baseline` runs then fail
# only on *new* findings (BP012 keeps the backlog from fossilising).
lint-baseline:
	$(PYTHON) -m repro.analysis src tests --interproc \
		--write-baseline lint-baseline.json

chaos:
	$(PYTHON) -m repro.chaos --seed 7 --runs 5 --profile mixed --shrink

audit:
	$(PYTHON) -m repro obs-audit --seed 2 --runs 2 --profile byzantine --strict
	$(PYTHON) -m repro obs-audit --seed 7 --runs 2 --profile byzantine --fault-free --strict

bench:
	$(PYTHON) -m repro.bench --repeats 3 --out BENCH_0008.json \
		--disable-caches --disable-codec

# CI gate on the generated wire codecs: the precompiled encode/decode
# micros must beat the legacy dict-walking path by ≥3× (full runs land
# well above; 3× leaves headroom for throttled CI machines).
bench-smoke:
	$(PYTHON) -m repro.bench --only micro --filter wire --repeats 3 \
		--gate-wire-codec 3.0 --out bench-smoke.json
	$(PYTHON) -m repro.bench --validate bench-smoke.json

# Sustained open-loop soak: checkpoints + log truncation must hold the
# per-replica retained footprint under the bound for the whole run (the
# benchmark raises if it does not). ~10k ops keeps it CI-sized; the
# full 100k-op run is what BENCH_0007.json records.
soak:
	$(PYTHON) -m repro.bench --only macro --filter sustained \
		--repeats 1 --warmup 0 --sustained-ops 9999 --out soak.json
	$(PYTHON) -m repro.bench --validate soak.json

# Traced sustained soak -> schema-v4 latency block (critical-path
# attribution, conservation-enforced) -> p99 regression gate against
# the committed baseline. Virtual-time latencies are seed-
# deterministic, so the gate is machine-independent.
latency:
	$(PYTHON) -m repro.bench --only macro --filter sustained \
		--repeats 1 --warmup 0 --sustained-ops 9999 \
		--out latency-smoke.json \
		--gate-latency-regression ci/latency-smoke.json
	$(PYTHON) -m repro.bench --validate latency-smoke.json

# The repository benchmark (perfbench/, declared in BENCHMARK.json): one
# workload and seed for DURATION wall seconds. TRACE=0 prints the
# end-to-end metrics, TRACE=1 the per-layer ones; the last line is JSON
# with the run's ``correct`` verdict. W is steady, geo_bulk or failover.
W ?= geo_bulk
SEED ?= 7
TRACE ?= 0
DURATION ?= 40
perfbench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) \
		--seconds $(DURATION) --trace $(TRACE)

# Seeded audited chaos run -> schema-checked bundle -> offline replay.
console:
	$(PYTHON) -m repro console --chaos-seed 2 --profile byzantine \
		--out replay.html --bundle-out replay-bundle.json
	$(PYTHON) -m repro console --validate replay-bundle.json

experiments:
	$(PYTHON) -m repro
