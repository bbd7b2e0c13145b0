# Convenience targets for the KML reproduction.

.PHONY: install test check bench report clean

install:
	pip install -e . || python setup.py develop

test: check

# The full gate, each suite once: every test with the stress runs on
# (STRESS: >= 200 seeded minikv crash cases, the buffer storm,
# exhaustive model-file fuzzing, more page-cache model examples),
# the simulator and export goldens, the benchmark harness's own tests,
# and the hook-plane overhead gate in smoke mode: timed hooks (< 10%)
# and an untargeted fault plane (< 2%) (see docs/OBSERVABILITY.md,
# docs/FAULTS.md).
check:
	STRESS=1 pytest tests/ perfbench/tests -q
	python benchmarks/bench_hook_overhead.py --smoke

bench:
	pytest benchmarks/ --benchmark-only

# Assemble the per-experiment result tables written by `make bench`.
report:
	python -m repro report

clean:
	rm -rf benchmarks/_artifacts benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
