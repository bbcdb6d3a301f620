# Convenience targets; everything runs with the in-tree sources.
PY ?= python
export PYTHONPATH := src

SMOKE_CACHE := .smoke-cache
SMOKE_ARGS  := experiment table2 --scale 0.05 --jobs 2 --cache $(SMOKE_CACHE)

.PHONY: test lint faults smoke bench bench-all bench-simcore clean

test:
	$(PY) -m pytest -x -q tests

## Static gate: every benchmark analog must lint clean under --strict
## (warnings fail too).  The ruff error-class pass (config in
## pyproject.toml) runs only when ruff is installed; CI always has it.
lint:
	$(PY) -m repro lint --all --strict
	@if $(PY) -c "import ruff" 2>/dev/null; then \
		$(PY) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping style checks"; \
	fi

## Only the fault-injection and recovery tests (crashed/hung/flaky
## workers, corrupted cache entries, degraded experiments).
faults:
	$(PY) -m pytest -x -q -m faults tests

## End-to-end sanity check for the evaluation engine: a cold run that
## simulates and populates the content-addressed store, a warm run that
## must be served from it, then a corruption pass — one cache entry is
## damaged in place and the rerun must quarantine + resimulate it.
smoke:
	rm -rf $(SMOKE_CACHE)
	@echo "== cold: simulating into $(SMOKE_CACHE) =="
	$(PY) -m repro $(SMOKE_ARGS)
	@echo "== warm: store hits only =="
	$(PY) -m repro $(SMOKE_ARGS)
	@echo "== corrupt: damaging one stored trace =="
	$(PY) -c "import pathlib; from repro.eval.faults import corrupt_file; \
	victim = sorted(pathlib.Path('$(SMOKE_CACHE)').glob('*.trace.npz'))[0]; \
	corrupt_file(victim); print(f'corrupted {victim}')"
	@echo "== recover: quarantine + resimulate the damaged entry =="
	$(PY) -m repro $(SMOKE_ARGS)
	rm -rf $(SMOKE_CACHE)

bench:
	$(PY) -m pytest benchmarks -q

## The repo benchmark (BENCHMARK.json): every perfbench workload, 25 s
## each, end-to-end metrics plus the per-layer breakdown.
bench-all:
	python3 perfbench/run.py --workload all --seconds 25

## Simulation-core throughput: superblock backend vs interpreter,
## byte-identity asserted; writes BENCH_simcore.json at the repo root.
bench-simcore:
	$(PY) -m pytest benchmarks/bench_simcore.py -q

clean:
	rm -rf $(SMOKE_CACHE) .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
