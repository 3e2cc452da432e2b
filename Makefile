# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test chaos-smoke failover-smoke campaign-smoke sharded-root-smoke goldens verify-goldens reproduce perfbench-smoke profile loc examples figures all clean

install:
	$(PY) setup.py develop

test:
	PYTHONPATH=src $(PY) -m pytest tests/
	PYTHONPATH=src $(PY) -m repro chaos --smoke
	PYTHONPATH=src $(PY) -m repro chaos --scenario crash_root --seeds 3
	PYTHONPATH=src $(PY) -m repro campaign --smoke
	PYTHONPATH=src $(PY) -m repro sharded-root-smoke

# Deterministic fault-injection mini-matrix (< 30 s); part of `make test`.
chaos-smoke:
	PYTHONPATH=src $(PY) -m repro chaos --smoke

# Seeded root-kill matrix (GWC family x 3 seeds, byte-identical per
# seed); part of `make test`.  Kills each group root mid-critical-
# section and requires election + reconstruction to converge.
failover-smoke:
	PYTHONPATH=src $(PY) -m repro chaos --scenario crash_root --seeds 3

# Randomized fault-campaign smoke: seeded generated plans across the
# chaos profiles, live-checked by the invariant oracles (< 10 s);
# part of `make test`.
campaign-smoke:
	PYTHONPATH=src $(PY) -m repro campaign --smoke

# Sharded-root parity smoke: serial vs root-sharded state hashes across
# partition counts, relay fanouts, and an online re-partition, on two
# (seed, topology) triples; part of `make test`.
sharded-root-smoke:
	PYTHONPATH=src $(PY) -m repro sharded-root-smoke

# Continuous-verify drift gate: regenerate every golden surface and
# compare bit-for-bit against the committed goldens/ tree.  Exit 0
# clean, 1 drift (with per-file / per-field report), 2 usage.
verify-goldens:
	PYTHONPATH=src $(PY) -m repro verify-goldens

# Rewrite the committed goldens after a reviewed semantic change.  The
# REPRO_REGEN_GOLDENS=1 kill-switch is mandatory; without it the target
# refuses (exit 2).  Commit the printed diff summary with the PR.
goldens:
	REPRO_REGEN_GOLDENS=1 PYTHONPATH=src $(PY) -m repro update-goldens

# Every paper claim at quick scale (~7 s); exit 0 only when each
# expectation holds.  `PYTHONPATH=src python -m repro reproduce --full`
# runs the paper's sizes.
reproduce:
	PYTHONPATH=src $(PY) -m repro reproduce

# Benchmark smoke: one traced optimistic_contention run of perfbench/
# (see BENCHMARK.json).  Fails unless the run's last output line, its
# JSON result, reports "correct": true -- which also breaks if the
# Network / NodeInterface calls that perfbench/probes.py wraps go away.
perfbench-smoke:
	$(PY) perfbench/run.py --workload optimistic_contention --seed 0 --seconds 0 --trace 1 \
	  | tee /dev/stderr | tail -n 1 \
	  | $(PY) -c 'import json, sys; line = sys.stdin.read().strip(); sys.exit(0 if line.startswith("{") and json.loads(line).get("correct") is True else 1)'

# cProfile the quick Figure 2 + Figure 8 sweeps and print the top 20
# hot spots by cumulative time, then the top 20 by self time (tottime),
# the table to compare before and after a hot-path change (see
# docs/REPRODUCING.md, Performance).
profile:
	PYTHONPATH=src $(PY) -c "\
	import cProfile, pstats; \
	from repro.experiments.figure2 import run_figure2; \
	from repro.experiments.figure8 import run_figure8; \
	p = cProfile.Profile(); \
	p.enable(); run_figure2(); run_figure8(); p.disable(); \
	stats = pstats.Stats(p); \
	stats.sort_stats('cumulative').print_stats(20); \
	stats.sort_stats('tottime').print_stats(20)"

# Python line totals of src/ and tests/ (ROADMAP tracks src lines).
loc:
	@for dir in src tests; do \
	  printf '%-6s %s\n' $$dir "$$(find $$dir -name '*.py' -print0 | xargs -0 cat | wc -l)"; \
	done

examples:
	for script in examples/*.py; do echo "== $$script"; $(PY) $$script; done

figures:
	$(PY) -m repro figure1
	$(PY) -m repro figure2 --chart
	$(PY) -m repro figure8 --chart
	$(PY) -m repro figure7
	$(PY) -m repro grouping

all: test reproduce verify-goldens

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
