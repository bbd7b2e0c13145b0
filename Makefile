# Convenience targets for the KML reproduction.

.PHONY: install test obs-check faults-check serve-check perf-check bench report clean

install:
	pip install -e . || python setup.py develop

test: obs-check faults-check serve-check perf-check
	pytest tests/

# Observability gate: the obs unit tests plus the instrumentation
# overhead budget (smoke mode; see docs/OBSERVABILITY.md).
obs-check:
	pytest tests/obs/ -q
	python benchmarks/bench_obs_overhead.py --smoke

# Fault-injection gate: the full stress matrices (fixed seed matrix:
# >= 200 seeded minikv crash cases, the multi-producer buffer storm,
# exhaustive model-file fuzzing) plus the fault-plane overhead budget
# (smoke mode; see docs/FAULTS.md).
faults-check:
	FAULTS_STRESS=1 pytest tests/faults/ -q
	python benchmarks/bench_faults_overhead.py --smoke

# Registry gate: the serve unit tests plus the long hot-swap storm
# (SERVE_STRESS=1; see docs/SERVING.md).
serve-check:
	SERVE_STRESS=1 pytest tests/serve/ -q

# Performance-refactor gate: the simulator golden test (bit-identical
# throughputs, cache/device stats, feature vectors, .ktrace bytes and
# page-cache event streams) plus the benchmark harness's own tests.
perf-check:
	pytest tests/integration/test_sim_golden.py perfbench/tests -q

bench:
	pytest benchmarks/ --benchmark-only

# Assemble the per-experiment result tables written by `make bench`.
report:
	python -m repro report

clean:
	rm -rf benchmarks/_artifacts benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
