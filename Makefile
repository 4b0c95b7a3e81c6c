# EdgeReasoning reproduction — workflow automation.
#
# Mirrors the paper artifact's Make-driven workflow: setup, run the
# evaluation suites, regenerate every table/figure, and collect outputs.

PYTHON ?= python
OUTPUT ?= outputs

.PHONY: setup test lint bench chaos chaos-pipeline chaos-fleet chaos-overload chaos-autoscale chaos-tiering perf perf-100k perf-1m perf-tiering perf-baseline reproduce reproduce-fast examples fidelity takeaways clean

## Install the package in editable mode (legacy path works offline).
setup:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

## Run the full test suite.
test:
	$(PYTHON) -m pytest tests/

## Static checks (style, imports, bugbear) over src/ and tests/.
lint:
	$(PYTHON) -m ruff check src tests

## Regenerate every paper table and figure, timed.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## Same, printing each artifact's rows/series.
bench-verbose:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

## Fault-injection suite: resilience tests + the seeded chaos sweep.
chaos:
	$(PYTHON) -m pytest tests/test_faults_injector.py \
	    tests/test_hardware_thermal.py \
	    tests/test_engine_server_resilience.py \
	    tests/test_engine_server_overload.py
	$(PYTHON) -m repro chaos --seed 0

## Chaos-test the artifact pipeline itself: every artifact at the smoke
## tier under injected producer faults and cache corruption, then a
## crash/resume cycle; exits nonzero unless everything recovered with
## byte-identical outputs.
chaos-pipeline:
	PYTHONPATH=src $(PYTHON) -m repro chaos --pipeline --seed 0

## Fleet chaos: kill 2 of 4 devices mid-run under seeded faults; exits
## nonzero unless every request reached a terminal outcome, the kills
## actually fired, and a rerun reproduced the report byte-for-byte.
chaos-fleet:
	$(PYTHON) -m pytest tests/test_fleet_chaos.py
	PYTHONPATH=src $(PYTHON) -m repro chaos --fleet --seed 0

## Overload survival: 3x-capacity flash crowd into a flapping,
## thermally throttled fleet; exits nonzero unless conservation holds
## exactly, a brownout tier engaged and recovered, and same-seed reruns
## are byte-identical under both thread and process executors.
chaos-overload:
	$(PYTHON) -m pytest tests/test_fleet_overload.py tests/test_fleet_health.py
	PYTHONPATH=src $(PYTHON) -m repro chaos --overload --seed 0

## Autoscale lifecycle survival drill: a diurnal cycle plus flash crowd
## into an autoscaled fleet with crashes delivered mid-drain and
## mid-wake; exits nonzero unless no request is lost, flapping stays
## within the hysteresis bound, autoscaled energy beats always-on at
## equal-or-better attainment, and same-seed reruns are byte-identical
## under both thread and process executors.
chaos-autoscale:
	$(PYTHON) -m pytest tests/test_fleet_autoscale.py
	PYTHONPATH=src $(PYTHON) -m repro chaos --autoscale --seed 0

## Tiering gate: budget-aware Fast/Deep/Verify routing of the agentic
## DAG suite; exits nonzero unless the budget-aware frontier strictly
## dominates at least one fixed single-tier assignment on accuracy per
## joule at equal attainment, conservation is exact over DAG children,
## and same-seed reruns are byte-identical under both thread and
## process pipeline executors.
chaos-tiering:
	$(PYTHON) -m pytest tests/test_tiering_policy.py \
	    tests/test_tiering_dag.py tests/test_tiering_gateway.py
	PYTHONPATH=src $(PYTHON) -m repro chaos --tiering --seed 0

## Perf-regression harness: time the representative workloads, write
## BENCH_pipeline.json / BENCH_engine.json, and fail on >25% regression
## against benchmarks/baselines/ (or the span-speedup ratio floor).
perf:
	PYTHONPATH=src $(PYTHON) -m repro perf --check --out $(OUTPUT)

## 100k-scale vector event-loop gates only: the scalar/vector speedup
## ratio floor (>=10x, machine-independent) and the 100k-request,
## 64-device run's hard wall-clock budget.
perf-100k:
	PYTHONPATH=src $(PYTHON) -m repro perf --check \
	    --only fleet_vector_speedup,fleet_100k --out $(OUTPUT)

## Population-scale gates only: the streaming-trace vs scalar-oracle
## routing speedup floor (>=3x, per-request normalized) and the
## 1M-request, 32-device diurnal run's hard wall-clock budget (<=60s).
perf-1m:
	PYTHONPATH=src $(PYTHON) -m repro perf --check \
	    --only fleet_routing_speedup,fleet_diurnal_1m --out $(OUTPUT)

## Tiered-DAG gate only: one budget-aware agentic suite run through
## the gateway against its committed absolute-time baseline.
perf-tiering:
	PYTHONPATH=src $(PYTHON) -m repro perf --check \
	    --only fleet_tiered_dag --out $(OUTPUT)

## Refresh the committed perf baselines (run on a quiet machine).
perf-baseline:
	PYTHONPATH=src $(PYTHON) -m repro perf --out benchmarks/baselines

## Write every artifact's text into $(OUTPUT)/.
reproduce:
	$(PYTHON) -m repro reproduce --output $(OUTPUT)

## Smoke-tier sweep of every artifact through the memoizing pipeline:
## small producer sizes, 4 parallel jobs, shared intermediates computed
## exactly once, per-artifact timing printed at the end.
reproduce-fast:
	PYTHONPATH=src $(PYTHON) -m repro run --all --jobs 4 --smoke --timing

## Run all example applications.
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/fleet_cost_analysis.py
	$(PYTHON) examples/interactive_latency.py
	$(PYTHON) examples/optimization_advisor.py
	$(PYTHON) examples/token_budget_tuning.py
	$(PYTHON) examples/assistive_robot.py

## The paper-vs-repo audit and the eleven takeaway checks.
fidelity:
	$(PYTHON) -m repro run fidelity

takeaways:
	$(PYTHON) -m repro run takeaways

clean:
	rm -rf $(OUTPUT) .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
