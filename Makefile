# Convenience entry points; every target assumes the source layout
# documented in README.md (src/ on PYTHONPATH, no install required).

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test lint docs-check coverage bench-throughput bench-dynamic bench-fleet bench-longtail bench-smoke perfbench flight-smoke fuzz examples check

# Everything the ruff gate covers — named explicitly so benchmarks/ and
# scripts/ can never silently drop out of the lint surface.  Update when
# adding a top-level package or script.
LINT_TARGETS = src tests benchmarks scripts examples setup.py

# Coverage floor for `make coverage` / CI.  Measured 96.5% line
# coverage (scripts/measure_coverage.py); the floor sits a few points
# under to absorb counting differences between that tracer and
# pytest-cov.  Raise it as the measured value grows.
COV_FLOOR ?= 92

# Tier-1 verification: the full test suite (includes the docs gate via
# tests/core/test_docs_check.py).
test:
	$(PYTHON) -m pytest -x -q

# Ruff gate (config in pyproject.toml: pyflakes + runtime pycodestyle
# errors).  Offline environments without ruff skip with a notice — CI
# always installs it, so findings cannot land on main.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check $(LINT_TARGETS); \
	else \
		echo "lint: ruff not installed; skipped (CI runs it)"; \
	fi

# Fail if any public function/class/method in repro.vision,
# repro.recognition, repro.sax, repro.simulation, repro.mission,
# repro.protocol, repro.recorder or repro.testing lacks a docstring
# (see docs/ARCHITECTURE.md).
docs-check:
	$(PYTHON) scripts/check_docstrings.py

# Tier-1 with line coverage enforced at the measured floor.  Uses
# pytest-cov when installed (CI always installs it); offline
# environments fall back to the dependency-free tracer in
# scripts/measure_coverage.py (reports, but does not enforce).
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --cov=src/repro --cov-report=term-missing:skip-covered \
			--cov-fail-under=$(COV_FLOOR); \
	else \
		echo "coverage: pytest-cov not installed; using scripts/measure_coverage.py"; \
		$(PYTHON) scripts/measure_coverage.py; \
	fi

# Regenerate BENCH_throughput.json (gates: matcher >= 5x, end-to-end
# >= 3x, distinct-frame >= 1.5x, render >= 1.5x with pixel_identical
# asserted, windowed preprocess >= 2x with identical asserted; see
# docs/BENCHMARKS.md).
bench-throughput:
	$(PYTHON) benchmarks/bench_throughput.py

# Regenerate BENCH_dynamic_batch.json (gates: window >= 3x, distinct
# window >= 1.2x; see docs/BENCHMARKS.md).
bench-dynamic:
	$(PYTHON) benchmarks/bench_dynamic_batch.py

# Regenerate BENCH_fleet.json (gates: batched fleet >= 3x the
# sequential per-mission/per-frame loop on 16 missions with outcome
# parity and Oracle-parity on clean scenarios; time outside the fleet
# stages <= 3% of batched wall; flight-recorder overhead <= 10%; see
# docs/BENCHMARKS.md).
bench-fleet:
	$(PYTHON) benchmarks/bench_fleet.py

# Regenerate BENCH_longtail.json (long-tail window throughput through
# the real recognisers; the replay-determinism assertion is
# unconditional; see docs/BENCHMARKS.md).
bench-longtail:
	$(PYTHON) benchmarks/bench_longtail.py

# Reduced-size benchmark runs with perf gates disabled (parity checks
# stay on) — the CI smoke job uses this so bench scripts cannot rot,
# then diffs the artifacts against the committed baselines with
# scripts/compare_bench.py.
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_throughput.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_dynamic_batch.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_fleet.py
	BENCH_SMOKE=1 $(PYTHON) benchmarks/bench_longtail.py

# The repository benchmark declared in BENCHMARK.json (perfbench/):
# both workloads untraced (end-to-end metrics), then traced (per-layer
# spans), each seeded by PERF_SEED.  The last line of each run is its
# JSON result; details and spans land in .perfbench/.
PERF_SEED ?= 0
perfbench:
	$(PYTHON) perfbench/run.py --workload fleet-negotiate --seed $(PERF_SEED) --trace 0
	$(PYTHON) perfbench/run.py --workload fleet-negotiate --seed $(PERF_SEED) --trace 1
	$(PYTHON) perfbench/run.py --workload recognize-distinct --seed $(PERF_SEED) --trace 0
	$(PYTHON) perfbench/run.py --workload recognize-distinct --seed $(PERF_SEED) --trace 1

# Flight-recorder smoke: record a small oracle trap fleet run and a
# small recognizer trap fleet run (its core0 observation, verdict and
# tick lines), replay each (byte compare), self-diff the fresh
# recordings against the originals and render each as a tail
# dashboard — the record/replay/diff/tail CLI pipeline end to end
# through both perception kinds (see docs/ARCHITECTURE.md "Flight
# recorder").  CI runs this in the bench-smoke job; recordings land in
# FLIGHT_DIR.
FLIGHT_DIR ?= flight-artifacts
flight-smoke:
	mkdir -p $(FLIGHT_DIR)
	$(PYTHON) scripts/flight_record.py record --out $(FLIGHT_DIR)/smoke.jsonl \
		--missions 2 --perception oracle --smoke
	$(PYTHON) scripts/flight_record.py replay $(FLIGHT_DIR)/smoke.jsonl \
		--out $(FLIGHT_DIR)/smoke-replay.jsonl
	$(PYTHON) scripts/flight_diff.py $(FLIGHT_DIR)/smoke.jsonl \
		$(FLIGHT_DIR)/smoke-replay.jsonl
	$(PYTHON) scripts/flight_record.py tail $(FLIGHT_DIR)/smoke.jsonl
	$(PYTHON) scripts/flight_record.py record --out $(FLIGHT_DIR)/smoke-recognizer.jsonl \
		--missions 2 --perception recognizer --smoke
	$(PYTHON) scripts/flight_record.py replay $(FLIGHT_DIR)/smoke-recognizer.jsonl \
		--out $(FLIGHT_DIR)/smoke-recognizer-replay.jsonl
	$(PYTHON) scripts/flight_diff.py $(FLIGHT_DIR)/smoke-recognizer.jsonl \
		$(FLIGHT_DIR)/smoke-recognizer-replay.jsonl
	$(PYTHON) scripts/flight_record.py tail $(FLIGHT_DIR)/smoke-recognizer.jsonl

# Seeded long-tail fuzz: randomized adversarial scenarios through the
# full recognition + fleet stack, safety invariants asserted, failures
# auto-minimised into fuzz-artifacts/ (exit 1 on any violation).  The
# same FUZZ_SEED reproduces the same scenarios, verdicts and minimised
# case bytes; tier-1 replays the committed corpus in
# tests/data/longtail/ and checks one orchard trap fleet case — the
# open-ended search runs nightly.
FUZZ_SEED ?= 0
FUZZ_ITERATIONS ?= 25
fuzz:
	$(PYTHON) scripts/run_fuzz.py --seed $(FUZZ_SEED) --iterations $(FUZZ_ITERATIONS)

# Run every script in examples/ end to end (about 6 s in all); the
# first one that exits non-zero fails the target.  Their stdout is
# dropped, their errors are not.  CI runs this in the bench-smoke job.
examples:
	@for example in examples/*.py; do \
		echo "examples: $$example"; \
		$(PYTHON) $$example > /dev/null || exit 1; \
	done

check: lint docs-check test
