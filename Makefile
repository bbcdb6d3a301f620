# Convenience targets; everything runs with the in-tree sources.
PY ?= python
export PYTHONPATH := src

SMOKE_CACHE := .smoke-cache
SMOKE_ARGS  := experiment table2 --scale 0.05 --jobs 2 --cache $(SMOKE_CACHE)
SMOKE_JSON  := .smoke-envelope.json

## Assert engine counters of the last smoke leg's --json envelope:
## $(SMOKE_EXPECT) simulated=0 quarantined=1 ...
SMOKE_EXPECT = $(PY) -c "import json, sys; \
engine = json.load(open('$(SMOKE_JSON)'))['results']['engine']; \
want = {k: int(v) for k, v in (a.split('=') for a in sys.argv[1:])}; \
got = {k: engine[k] for k in want}; print(f'engine counters: {got}'); \
sys.exit(0 if got == want else f'smoke check failed: wanted {want}')"

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
## must be served from it (nothing simulated — the "rerun continues a
## run" check: a plain rerun is how an interrupted suite resumes, there
## is no separate resume mode), a bad-memo pass — every
## digest-memo record is overwritten with garbage and the rerun must
## still be all store hits, nothing quarantined — then a corruption pass:
## one cache entry is damaged in place and the rerun must quarantine +
## resimulate exactly that one.  Every leg after the cold one reads its
## --json envelope and fails the target when the counters disagree.
smoke:
	rm -rf $(SMOKE_CACHE) $(SMOKE_JSON)
	@echo "== cold: simulating into $(SMOKE_CACHE) =="
	$(PY) -m repro $(SMOKE_ARGS)
	@echo "== warm: store hits only =="
	$(PY) -m repro $(SMOKE_ARGS) --json > $(SMOKE_JSON)
	$(SMOKE_EXPECT) simulated=0
	@echo "== bad memo: garbage in every digest-memo record =="
	$(PY) -c "import pathlib; \
	memo = sorted(pathlib.Path('$(SMOKE_CACHE)/digests').iterdir()); \
	assert memo, 'no digest-memo records'; \
	[p.write_bytes(b'\\x00garbage{') for p in memo]; \
	print(f'overwrote {len(memo)} memo record(s)')"
	$(PY) -m repro $(SMOKE_ARGS) --json > $(SMOKE_JSON)
	$(SMOKE_EXPECT) simulated=0 quarantined=0
	@echo "== corrupt: damaging one stored trace =="
	$(PY) -c "import pathlib; from repro.eval.faults import corrupt_file; \
	victim = sorted(pathlib.Path('$(SMOKE_CACHE)').glob('*.trace.npz'))[0]; \
	corrupt_file(victim); print(f'corrupted {victim}')"
	@echo "== recover: quarantine + resimulate the damaged entry =="
	$(PY) -m repro $(SMOKE_ARGS) --json > $(SMOKE_JSON)
	$(SMOKE_EXPECT) quarantined=1 simulated=1
	rm -rf $(SMOKE_CACHE) $(SMOKE_JSON)

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
	rm -rf $(SMOKE_CACHE) $(SMOKE_JSON) .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
