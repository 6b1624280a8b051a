"""Unit tests for the transaction generator's draws (YcsbGenerator)."""

import zlib

import pytest

from repro.config import WorkloadSettings
from repro.kvstore.keys import row_key
from repro.sim.rng import SeededRng
from repro.workload import READ, UPDATE, WORKLOADS, YcsbGenerator, YcsbMix

PAPER = WORKLOADS["paper"]


def settings(**kw):
    base = dict(n_rows=1000, ops_per_txn=10)
    base.update(kw)
    return WorkloadSettings(**base)


def rows_drawn(mix, seed, n_txns=200, **kw):
    gen = YcsbGenerator(mix, settings(**kw), SeededRng(seed))
    return [row for _ in range(n_txns) for _kind, row, _len in gen.next_txn()]


def kinds(ops):
    return [kind for kind, _row, _len in ops]


class TestKeyChoosers:
    def test_uniform_keys_in_domain(self):
        keys = set(rows_drawn(PAPER, seed=1))
        assert all(row_key(0) <= k <= row_key(999) for k in keys)
        assert len(keys) > 500  # uniform over 1000 rows

    def test_zipfian_keys_skewed(self):
        rows = rows_drawn(WORKLOADS["A"], seed=2, n_txns=500, zipf_theta=0.99)
        counts = {}
        for k in rows:
            counts[k] = counts.get(k, 0) + 1
        top = max(counts.values())
        assert top > 5000 * 0.02  # the hottest key is genuinely hot
        assert len(counts) < 1000  # far from uniform coverage

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            YcsbMix("pareto", read=1.0, distribution="pareto").validate()

    def test_deterministic_per_seed(self):
        a, b = (rows_drawn(PAPER, seed=7, n_txns=10) for _ in range(2))
        assert a == b


class TestPaperMix:
    def test_draws_are_pinned(self):
        """The paper mix draws the stream every committed figure was made
        from: row first (redrawing repeats), then kind at ``u < 0.5``."""
        gen = YcsbGenerator(PAPER, settings(), SeededRng(4))
        txns = [[(kind, row) for kind, row, _len in gen.next_txn()] for _ in range(200)]
        assert txns[0] == [
            ("read", "user000000000241"), ("read", "user000000000738"),
            ("read", "user000000000158"), ("read", "user000000000020"),
            ("read", "user000000000939"), ("read", "user000000000783"),
            ("update", "user000000000532"), ("update", "user000000000283"),
            ("read", "user000000000846"), ("update", "user000000000219"),
        ]
        assert txns[1] == [
            ("update", "user000000000026"), ("read", "user000000000826"),
            ("read", "user000000000278"), ("read", "user000000000317"),
            ("update", "user000000000888"), ("update", "user000000000875"),
            ("read", "user000000000381"), ("read", "user000000000620"),
            ("update", "user000000000397"), ("read", "user000000000182"),
        ]
        assert zlib.crc32(repr(txns).encode()) == 2144550364

    def test_ops_per_txn(self):
        ops = YcsbGenerator(PAPER, settings(), SeededRng(4)).next_txn()
        assert len(ops) == 10
        assert set(kinds(ops)) <= {READ, UPDATE}

    def test_distinct_rows_within_txn(self):
        for mix in (PAPER, WORKLOADS["A"], WORKLOADS["D"], WORKLOADS["E"]):
            gen = YcsbGenerator(mix, settings(n_rows=20), SeededRng(5))
            for _ in range(50):
                rows = [row for _kind, row, _len in gen.next_txn()]
                assert len(set(rows)) == len(rows)

    def test_read_ratio_near_half(self):
        gen = YcsbGenerator(PAPER, settings(), SeededRng(6))
        reads = sum(kinds(gen.next_txn()).count(READ) for _ in range(500))
        assert 0.45 < reads / 5000 < 0.55

    def test_read_only_txn_with_all_read_mix(self):
        mix = YcsbMix("reads", read=1.0, distribution="uniform")
        gen = YcsbGenerator(mix, settings(), SeededRng(7))
        assert kinds(gen.next_txn()) == [READ] * 10

    def test_update_only(self):
        mix = YcsbMix("updates", update=1.0, distribution="uniform")
        gen = YcsbGenerator(mix, settings(), SeededRng(8))
        assert kinds(gen.next_txn()) == [UPDATE] * 10

    def test_more_ops_than_rows_rejected(self):
        with pytest.raises(ValueError):
            YcsbGenerator(PAPER, settings(n_rows=5, ops_per_txn=10), SeededRng(9))
