# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-fast test-verbose chaos chaos-disk chaos-kill chaos-tm-shard chaos-ssi check-sweep bench bench-compare bench-figs bench-paper examples demo clean apidoc loc

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

chaos:
	$(PYTHON) -m repro chaos --seeds 20

chaos-disk:
	$(PYTHON) -m repro chaos --seeds 20 --disk-faults --json chaos-disk-report.json

# 20-seed sweep with a second crash injected inside each recovery window
# (oracle on by default): the recovery-of-recovery acceptance gate.
chaos-kill:
	mkdir -p artifacts
	$(PYTHON) -m repro chaos --seeds 20 --kill-during-recovery \
		--json artifacts/chaos-kill-report.json \
		--history-dir artifacts/histories-kill

# 20-seed sweep on a 2-shard transaction manager with a kill-a-TM-shard
# injection inside each storm (oracle on by default): the non-blocking
# cross-shard commit acceptance gate -- zero lost commits, SI anomalies,
# invariant violations, or permanently in-doubt transactions.
chaos-tm-shard:
	mkdir -p artifacts
	$(PYTHON) -m repro chaos --seeds 20 --tm-shards 2 \
		--json artifacts/chaos-tm-shard-report.json \
		--history-dir artifacts/histories-tm-shard

# 20-seed sweep under serializable SSI (2-shard TM, kill-a-TM-shard
# injection) with the full serializability oracle on every history: the
# acceptance gate for txn.isolation="ssi" -- zero serialization-graph
# cycles, lost commits, SI anomalies, or in-doubt transactions.
chaos-ssi:
	mkdir -p artifacts
	$(PYTHON) -m repro chaos --seeds 20 --isolation ssi \
		--json artifacts/chaos-ssi-report.json \
		--history-dir artifacts/histories-ssi

# Oracle-backed sweeps with per-seed history artifacts: each seed's
# recorded operation history lands under artifacts/ and can be
# re-audited offline with `python -m repro check <file>`.
check-sweep:
	$(PYTHON) -m repro chaos --seeds 20 \
		--json artifacts/check-sweep.json --history-dir artifacts/histories
	$(PYTHON) -m repro chaos --seeds 20 --disk-faults \
		--json artifacts/check-sweep-disk.json --history-dir artifacts/histories-disk

# The standing five-workload benchmark (BENCHMARK.json, bench/README.md),
# written to bench/out/result.json, and its verdict per workload x metric
# between two result files (exit 1 on any `worse` row).
bench:
	$(PYTHON) bench/run.py

bench-compare:
	$(PYTHON) bench/compare.py $(OLD) $(NEW)

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
