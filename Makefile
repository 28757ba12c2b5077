# Convenience targets for the GDISim reproduction.

PYTHON ?= python3

# every target runs from the checkout, installed or not
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast test-cov test-deep verify-oracles bench \
        bench-full perfbench examples trace-demo trace-parallel-demo \
        resilience-demo checkpoint-roundtrip lint clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-cov:  ## coverage-gated suite (needs pytest-cov; CI ratchet lives here)
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing \
	    --cov-fail-under=82

test-deep:  ## wide hypothesis sweep (nightly CI profile)
	HYPOTHESIS_PROFILE=deep $(PYTHON) -m pytest tests/

verify-oracles:  ## differential sweep: simulated stations vs. closed forms
	$(PYTHON) -m repro verify --report verify_report.json
	@echo "verify-oracles: wrote verify_report.json"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:  ## thesis-length chapter 5 experiments
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

perfbench:  ## the repository benchmark: all four workloads, digest-checked
	$(PYTHON) perfbench/run.py --workload all --seed 42

lint:  ## style check of the engine core, queueing, observability, metrics
	$(PYTHON) -m ruff check src/repro/core src/repro/queueing \
	    src/repro/observability src/repro/metrics

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f >/dev/null || exit 1; done

trace-demo:  ## fluid latency waterfalls + Chrome trace for the ch. 6 study
	$(PYTHON) -m repro trace consolidation --hour 15 --out trace-demo.json
	@test -s trace-demo.json || { echo "trace-demo.json is empty"; exit 1; }
	@echo "trace-demo: wrote $$(wc -c < trace-demo.json) bytes to trace-demo.json"

trace-parallel-demo:  ## traced+profiled 2-worker run, validates the merged trace
	$(PYTHON) scripts/trace_parallel_demo.py \
	    --out trace-parallel.json --profile-out profile-parallel.json
	@echo "trace-parallel-demo: wrote trace-parallel.json profile-parallel.json"

resilience-demo:  ## degraded-mode drill: policies off vs resilient under crash load
	$(PYTHON) -m repro resilience-drill --until 120 --mtbf 60
	$(PYTHON) examples/failure_drill.py

checkpoint-roundtrip:  ## kill a run mid-flight, resume, assert bit-exact equality
	$(PYTHON) scripts/checkpoint_roundtrip.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
	rm -f trace-demo.json trace-parallel.json profile-parallel.json
