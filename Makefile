# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-fast test-verbose chaos chaos-disk chaos-kill chaos-tm-shard chaos-ssi chaos-all chaos-disk-kill chaos-tm3-kill chaos-diff check-sweep bench bench-compare host-pairs host-profile host-calls bench-figs bench-paper examples demo clean apidoc loc

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

# Skip the slow 20-seed chaos sweeps (marked @pytest.mark.slow); the
# quick inner-loop gate for local development.
test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

test-verbose:
	$(PYTHON) -m pytest tests/ -v

# The five 20-seed chaos sweeps (oracle on: ledger read-back, SI checker,
# invariant monitor, convergence gate).  Each leaves its report and every
# seed's recorded history under artifacts/; a history can be re-audited
# offline with `python -m repro check <file>` (`make recheck-<sweep>` does
# all of them).
#   chaos           the plain storm
#   chaos-disk      + storage faults on the datanode disks
#   chaos-kill      + a second crash inside each recovery window (the
#                   recovery-of-recovery gate)
#   chaos-tm-shard  a 2-shard TM with a shard killed mid-storm (the
#                   non-blocking cross-shard commit gate: nothing lost,
#                   nothing left in doubt)
#   chaos-ssi       the same under serializable SSI, with the full
#                   serializability audit on every history
chaos:          CHAOS_FLAGS =
chaos-disk:     CHAOS_FLAGS = --disk-faults
chaos-kill:     CHAOS_FLAGS = --kill-during-recovery
chaos-tm-shard: CHAOS_FLAGS = --tm-shards 2
chaos-ssi:      CHAOS_FLAGS = --isolation ssi

CHAOS_SWEEPS = chaos chaos-disk chaos-kill chaos-tm-shard chaos-ssi

# Two sweeps that still lose acknowledged commits (ROADMAP item 2), kept
# out of chaos-all and the CI matrix until that is mended; both fail:
#   chaos-disk-kill  storage faults + a second crash in recovery (seed 12)
#   chaos-tm3-kill   a 3-shard TM + a second crash in recovery (seed 8)
chaos-disk-kill: CHAOS_FLAGS = --disk-faults --kill-during-recovery
chaos-tm3-kill:  CHAOS_FLAGS = --tm-shards 3 --kill-during-recovery

$(CHAOS_SWEEPS) chaos-disk-kill chaos-tm3-kill:
	$(PYTHON) -m repro chaos --seeds 20 $(CHAOS_FLAGS) \
		--json artifacts/$@-report.json --history-dir artifacts/histories-$@

# Re-audit every history one sweep saved with `repro check` (the SI
# checker, and the serialization graph in the mode the history is stamped
# with -- si sweeps get no other serializability audit), keeping the
# output as artifacts/<sweep>.check.out; exit 1 if any history fails.
recheck-%:
	@status=0; for history in artifacts/histories-$*/*; do \
		$(PYTHON) -m repro check $$history || status=1; \
	done > artifacts/$*.check.out; exit $$status

# All five sweeps, each one's stdout kept as artifacts/<sweep>.out beside
# its report, histories and re-audit.  Two trees ran byte-identical storms
# when `diff -r` of their artifacts/ directories prints nothing.
chaos-all:
	@mkdir -p artifacts
	@status=0; for sweep in $(CHAOS_SWEEPS); do \
		$(MAKE) --no-print-directory -s $$sweep > artifacts/$$sweep.out || status=1; \
		$(MAKE) --no-print-directory -s recheck-$$sweep || status=1; \
	done; exit $$status

# chaos-all in a temporary clone of the git ref BASE (required) and in the
# working tree, then every artifacts/ file that differs between the two;
# exit 1 on any difference or failed sweep (tools/chaos_diff.py).
chaos-diff:
	$(if $(BASE),,$(error BASE=<git ref> is required))
	$(PYTHON) tools/chaos_diff.py $(BASE)

check-sweep: chaos chaos-disk

# The standing five-workload benchmark (BENCHMARK.json, bench/README.md),
# written to bench/out/result.json, and its verdict per workload x metric
# between two result files (exit 1 on any `worse` row).
bench:
	$(PYTHON) bench/run.py

bench-compare:
	$(PYTHON) bench/compare.py $(OLD) $(NEW)

# host_txn_per_s of the working tree against the git ref BASE (required),
# in N alternating pairs of one-workload benchmark runs on workload W;
# AA=1 adds a BASE-against-BASE set.  Unset W, N and SEED take
# tools/host_pairs.py's defaults.
host-pairs:
	$(if $(BASE),,$(error BASE=<git ref> is required))
	$(PYTHON) tools/host_pairs.py $(BASE) $(if $(W),--workload $(W)) \
		$(if $(N),--pairs $(N)) $(if $(SEED),--seed $(SEED)) $(if $(AA),--aa)

# Where workload W's host time goes: a SIGPROF sample of the stack over
# its untraced measured windows (tools/host_profile.py), as self and
# inclusive shares by file and by function.  W is required.
host-profile:
	$(if $(W),,$(error W=<workload> is required))
	$(PYTHON) tools/host_profile.py $(W) $(if $(SEED),--seed $(SEED))

# Python calls per committed transaction of workload W, by function and
# by file, from one untraced measured window under cProfile
# (tools/host_calls.py); the window runs twice and the target exits 1 if
# the two counts differ.  W is required.
host-calls:
	$(if $(W),,$(error W=<workload> is required))
	$(PYTHON) tools/host_calls.py $(W) $(if $(SEED),--seed $(SEED))

bench-figs:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-paper:
	REPRO_BENCH_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/session_store.py
	$(PYTHON) examples/bank_transfers.py
	$(PYTHON) examples/failover_timeline.py
	$(PYTHON) examples/elastic_scaleout.py
	$(PYTHON) examples/ycsb_suite.py

demo:
	$(PYTHON) -m repro demo

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

apidoc:
	$(PYTHON) tools/gen_api_docs.py

# Lines per src/repro package and the count of repro.config fields.
loc:
	@$(PYTHON) tools/loc.py
