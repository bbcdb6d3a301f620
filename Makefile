# Convenience targets; everything runs with the in-tree sources.
PY ?= python
export PYTHONPATH := src

SMOKE_CACHE := .smoke-cache
SMOKE_ARGS  := experiment table2 --scale 0.05 --jobs 2 --cache $(SMOKE_CACHE)
SMOKE_JSON  := .smoke-envelope.json
SMOKE_FIGURE_ARGS := experiment figure3 --scale 0.05 --jobs 2 --cache $(SMOKE_CACHE)
SUPERVISED_CACHE := $(SMOKE_CACHE)/supervised
SUPERVISED_ARGS  := supervise --benchmarks plot --workers 1 --scale 0.05 \
                    --cache $(SUPERVISED_CACHE)

## Assert engine counters of the last smoke leg's --json envelope:
## $(SMOKE_EXPECT) simulated=0 quarantined=1 ...
SMOKE_EXPECT = $(PY) -c "import json, sys; \
engine = json.load(open('$(SMOKE_JSON)'))['results']['engine']; \
want = {k: int(v) for k, v in (a.split('=') for a in sys.argv[1:])}; \
got = {k: engine[k] for k in want}; print(f'engine counters: {got}'); \
sys.exit(0 if got == want else f'smoke check failed: wanted {want}')"

.PHONY: test lint faults smoke bench bench-all clean

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
## is no separate resume mode) and whose Table 2 title must name the
## scale's edge threshold (10 below scale 0.9), a bad-memo pass — every
## digest-memo record is overwritten with garbage and the rerun must
## still be all store hits, nothing quarantined — then a corruption pass:
## one cache entry is damaged in place and the rerun must quarantine +
## resimulate exactly that one; then the middle of one entry's last
## trace column is damaged, and the table2 rerun, which inflates no
## trace, must still catch it through the archive checksum and
## quarantine + resimulate that one.  Every leg after the cold one
## reads its --json envelope and fails the target when the counters
## disagree.
## Then a supervised leg checks that finished means stored: plot runs
## under `supervise`, its store entry is deleted (the journal still says
## completed), and a rerun whose only worker is killed mid-simulation
## must restart it once, report plot completed and leave its entry.
## Then `faults --kill plot` at the default cadence must kill plot's
## worker past its first checkpoint (plot@0.05 runs ~46k branch events,
## the default kill point is 1.5x the cadence) and the retry must
## resume from it.  Last, figure3 runs twice: the rerun must simulate
## nothing and replay no predictor (every result is a stored record).
smoke:
	rm -rf $(SMOKE_CACHE) $(SMOKE_JSON)
	@echo "== cold: simulating into $(SMOKE_CACHE) =="
	$(PY) -m repro $(SMOKE_ARGS)
	@echo "== warm: store hits only =="
	$(PY) -m repro $(SMOKE_ARGS) --json > $(SMOKE_JSON)
	$(SMOKE_EXPECT) simulated=0
	$(PY) -c "import json, sys; \
	title = json.load(open('$(SMOKE_JSON)'))['results']['output'].splitlines()[0]; \
	print(title); \
	sys.exit(0 if title.endswith('(threshold=10)') else \
	         'smoke check failed: Table 2 at scale 0.05 wants threshold=10')"
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
	@echo "== corrupt trace: damaging one entry's last trace column =="
	$(PY) -c "import pathlib; from repro.eval.faults import corrupt_member; \
	victim = sorted(pathlib.Path('$(SMOKE_CACHE)').glob('*.trace.npz'))[0]; \
	corrupt_member(victim, 'timestamps.npy'); print(f'corrupted {victim}')"
	@echo "== recover: a profile-only read still quarantines the entry =="
	$(PY) -m repro $(SMOKE_ARGS) --json > $(SMOKE_JSON)
	$(SMOKE_EXPECT) quarantined=1 simulated=1
	@echo "== supervised: plot into $(SUPERVISED_CACHE) =="
	$(PY) -m repro $(SUPERVISED_ARGS)
	@echo "== supervised lost entry: delete plot's entry, kill the worker =="
	$(PY) -c "import pathlib; \
	entry = [p for p in pathlib.Path('$(SUPERVISED_CACHE)').glob('plot-*') \
	         if p.name.endswith(('.trace.npz', '.meta.json'))]; \
	assert len(entry) == 2, entry; [p.unlink() for p in entry]; \
	print(f'deleted {len(entry)} file(s)')"
	REPRO_FAULTS=shard_kill:1@1000 $(PY) -m repro $(SUPERVISED_ARGS) \
		--json > $(SMOKE_JSON)
	$(PY) -c "import json, pathlib, sys; \
	results = json.load(open('$(SMOKE_JSON)'))['results']; \
	metas = list(pathlib.Path('$(SUPERVISED_CACHE)').glob('plot-*.meta.json')); \
	got = {'restarts': results['supervisor']['restarts'], \
	       'completed': results['completed'], 'plot_metas': len(metas)}; \
	want = {'restarts': 1, 'completed': ['plot'], 'plot_metas': 1}; \
	print(f'supervised: {got}'); \
	sys.exit(0 if got == want else f'smoke check failed: wanted {want}')"
	@echo "== faults: kill plot's worker past its first checkpoint =="
	$(PY) -m repro faults --kill plot --benchmarks plot --scale 0.05 \
		--json > $(SMOKE_JSON)
	$(PY) -c "import json, sys; \
	injected = json.load(open('$(SMOKE_JSON)'))['results']['injected']; \
	got = injected['resumed_from_checkpoint']; \
	print(f'faults: resumed_from_checkpoint={got}'); \
	sys.exit(0 if got >= 1 else 'smoke check failed: no resume')"
	@echo "== figure: a rerun reads every predictor result from its record =="
	$(PY) -m repro $(SMOKE_FIGURE_ARGS)
	$(PY) -m repro $(SMOKE_FIGURE_ARGS) --json > $(SMOKE_JSON)
	$(SMOKE_EXPECT) simulated=0 replayed_runs=0
	rm -rf $(SMOKE_CACHE) $(SMOKE_JSON)

bench:
	$(PY) -m pytest benchmarks -q

## The repo benchmark (BENCHMARK.json): every perfbench workload, 25 s
## each, end-to-end metrics plus the per-layer breakdown.
bench-all:
	python3 perfbench/run.py --workload all --seconds 25

clean:
	rm -rf $(SMOKE_CACHE) $(SMOKE_JSON) .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
