"""Unit tests for the deterministic parallel execution layer."""

import hashlib
import itertools
import pickle
import sys
import threading

import pytest

from repro.obs import TELEMETRY
from repro.obs.perf import PERF, counting
from repro.runtime import (Memo, available_cpus, chunk_bounds,
                           fork_available, parallel_map, resolve_jobs,
                           run_sharded, stride_shards)
from repro.runtime import executor


@pytest.fixture
def enabled_obs():
    """Both observability facades on, clean, restored afterwards."""
    was_perf, was_tel = PERF.enabled, TELEMETRY.enabled
    PERF.enable()
    PERF.reset()
    TELEMETRY.enable()
    TELEMETRY.reset()
    yield
    PERF.reset()
    TELEMETRY.reset()
    PERF.enabled, TELEMETRY.enabled = was_perf, was_tel


class TestChunkBounds:
    def test_covers_range_exactly(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_even_split(self):
        assert chunk_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_more_parts_than_items(self):
        bounds = chunk_bounds(2, 5)
        assert bounds == [(0, 1), (1, 2)]   # never an empty chunk

    def test_single_part(self):
        assert chunk_bounds(7, 1) == [(0, 7)]

    def test_empty(self):
        assert chunk_bounds(0, 4) == []

    @pytest.mark.parametrize("total,parts", [(1, 1), (13, 4), (100, 7),
                                             (5, 5), (6, 13)])
    def test_partition_property(self, total, parts):
        bounds = chunk_bounds(total, parts)
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(total))
        sizes = [hi - lo for lo, hi in bounds]
        assert all(size > 0 for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    def test_negative_total(self):
        assert chunk_bounds(-3, 2) == []


class TestStrideShards:
    def test_shapes(self):
        assert stride_shards(3) == [(0, 3), (1, 3), (2, 3)]
        assert stride_shards(1) == [(0, 1)]

    def test_partition_property(self):
        shards = stride_shards(4)
        covered = sorted(i for offset, step in shards
                         for i in range(offset, 23, step))
        assert covered == list(range(23))

    def test_degenerate(self):
        assert stride_shards(0) == [(0, 1)]


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(jobs=3) == 3

    def test_explicit_wins_over_small_work(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(jobs=4, work=2, min_work_per_job=100) == 4

    def test_env_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == available_cpus()

    def test_env_invalid_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1

    def test_env_scaled_down_by_work(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(work=30, min_work_per_job=10) == 3
        assert resolve_jobs(work=5, min_work_per_job=10) == 1
        assert resolve_jobs(work=1000, min_work_per_job=10) == 8

    def test_inside_worker_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        monkeypatch.setattr(executor, "_IN_WORKER", True)
        assert resolve_jobs() == 1
        assert resolve_jobs(jobs=4) == 1

    def test_no_fork_is_serial(self, monkeypatch):
        monkeypatch.setattr(executor, "fork_available", lambda: False)
        assert resolve_jobs(jobs=4) == 1


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(17))
        assert parallel_map(_square, items) == [x * x for x in items]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_matches_serial(self):
        items = list(range(23))
        serial = parallel_map(_square, items, jobs=1)
        assert parallel_map(_square, items, jobs=2) == serial
        assert parallel_map(_square, items, jobs=4) == serial

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_closures_cross_by_fork(self):
        offset = 1000   # captured, never pickled
        result = parallel_map(lambda x: x + offset, range(6), jobs=2)
        assert result == [1000, 1001, 1002, 1003, 1004, 1005]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_worker_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 3"):
            parallel_map(boom, range(6), jobs=2)

    def test_empty_and_single(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [5], jobs=4) == [25]


def _counting_worker(state, bounds):
    lo, hi = bounds
    for index in range(lo, hi):
        PERF.inc("test.work")
        TELEMETRY.counter("test.items").inc()
        with TELEMETRY.span("test.item", index=index):
            pass
    return hi - lo


class TestRunSharded:
    def test_serial_path_runs_inline(self):
        calls = []
        out = run_sharded(lambda state, shard: calls.append(shard)
                          or shard, "state", [(0, 2), (2, 4)], jobs=1)
        assert out == [(0, 2), (2, 4)]
        assert calls == [(0, 2), (2, 4)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_results_in_shard_order(self):
        shards = chunk_bounds(40, 4)
        out = run_sharded(lambda state, b: b[1] - b[0], None, shards,
                          jobs=4)
        assert out == [10, 10, 10, 10]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_observability_totals_match_serial(self, enabled_obs):
        shards = chunk_bounds(20, 4)
        serial = run_sharded(_counting_worker, None, shards, jobs=1)
        serial_perf = PERF.snapshot()["test.work"]
        serial_metric = TELEMETRY.metrics_snapshot()[
            "test.items"]["value"]
        serial_spans = sum(1 for r in TELEMETRY.tracer.snapshot()
                           if r["name"] == "test.item")
        PERF.reset()
        TELEMETRY.reset()

        parallel = run_sharded(_counting_worker, None, shards, jobs=4)
        assert parallel == serial
        assert PERF.snapshot()["test.work"] == serial_perf
        assert PERF.snapshot()["runtime.pools"] == 1
        assert PERF.snapshot()["runtime.shards"] == len(shards)
        assert TELEMETRY.metrics_snapshot()[
            "test.items"]["value"] == serial_metric
        spans = [r for r in TELEMETRY.tracer.snapshot()
                 if r["name"] == "test.item"]
        assert len(spans) == serial_spans
        # Worker spans re-id'd on merge: ids must stay unique.
        ids = [r["span_id"] for r in TELEMETRY.tracer.snapshot()]
        assert len(ids) == len(set(ids))

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_worker_spans_nest_under_fanout_span(self, enabled_obs):
        with TELEMETRY.span("test.fanout"):
            run_sharded(_counting_worker, None, chunk_bounds(8, 2),
                        jobs=2)
        records = TELEMETRY.tracer.snapshot()
        fanout = next(r for r in records if r["name"] == "test.fanout")
        items = [r for r in records if r["name"] == "test.item"]
        assert len(items) == 8
        assert all(r["parent_id"] == fanout["span_id"] for r in items)
        assert all(r["depth"] == fanout["depth"] + 1 for r in items)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_state_cleared_after_run(self):
        run_sharded(lambda s, b: 0, object(), [(0, 1), (1, 2)], jobs=2)
        assert executor._FORK_STATE is None


class TestMemo:
    def test_miss_then_hit(self):
        memo = Memo()
        found, value = memo.lookup("k")
        assert (found, value) == (False, None)
        memo.store("k", 42)
        assert memo.lookup("k") == (True, 42)
        assert memo.hits == 1 and memo.misses == 1

    def test_none_is_a_legal_value(self):
        memo = Memo()
        memo.store("infeasible", None)
        found, value = memo.lookup("infeasible")
        assert found is True and value is None

    def test_lru_eviction_order(self):
        memo = Memo(maxsize=2)
        memo.store("a", 1)
        memo.store("b", 2)
        memo.lookup("a")            # refresh a: b is now LRU
        memo.store("c", 3)
        assert "b" not in memo
        assert "a" in memo and "c" in memo
        assert memo.evictions == 1

    def test_stats(self):
        memo = Memo(maxsize=8)
        memo.store("a", 1)
        memo.lookup("a")
        memo.lookup("zzz")
        assert memo.stats() == {"size": 1, "maxsize": 8, "hits": 1,
                                "misses": 1, "evictions": 0}

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            Memo(maxsize=0)

    def test_get_or_build_builds_once(self):
        memo = Memo()
        calls = []
        for _ in range(3):
            assert memo.get_or_build("k", lambda: calls.append(1) or 7) == 7
        assert calls == [1]
        assert memo.hits == 2 and memo.misses == 1

    def test_get_or_build_may_recurse(self):
        memo = Memo()
        assert memo.get_or_build(
            "outer", lambda: memo.get_or_build("inner", lambda: 1) + 1) == 2
        assert "inner" in memo and "outer" in memo

    def test_concurrent_access_loses_no_update(self):
        memo = Memo(maxsize=8)
        threads, rounds = 8, 2000

        def worker(offset):
            for i in range(rounds):
                memo.get_or_build((offset + i) % 16, lambda: i)
        workers = [threading.Thread(target=worker, args=(t,), daemon=True)
                   for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert memo.hits + memo.misses == threads * rounds
        assert len(memo) <= memo.maxsize


# ---------------------------------------------------------------------------
# The replay-cache invariant suite: every production cache site served
# through Memo.get_or_build obeys the same contract.

_FRESH = itertools.count()
_SM_IMAGE = b"memo-suite-sm-image" * 32


def _fresh_seed(tag: str) -> bytes:
    """A 32-byte seed no other call in this process uses, so the first
    access through a site is a cold miss."""
    return hashlib.sha3_256(
        f"memo-suite:{tag}:{next(_FRESH)}".encode()).digest()


def _canonical(value) -> bytes:
    """Bytes that pin a cached value, slotted context objects by their
    slot values."""
    slots = getattr(type(value), "__slots__", None)
    if slots:
        value = [getattr(value, name) for name in slots]
    return pickle.dumps(value)


class _Site:
    """One cache site: ``fresh()`` makes a never-seen input, ``call``
    goes through the memo, ``cold`` builds without it, ``probe`` names
    a function every build calls, and ``counts`` are PERF events every
    access must show."""

    def __init__(self, name, memo, fresh, call, cold, probe,
                 hit_span=None, counts=None):
        self.name, self.memo = name, memo
        self.fresh, self.call, self.cold = fresh, call, cold
        self.probe, self.hit_span = probe, hit_span
        self.counts = counts or {}

    def __repr__(self):
        return self.name


def _sites():
    from repro.crypto import ed25519, mldsa
    from repro.crypto.mldsa import (ML_DSA_44, MLDSA, MLDSASigner,
                                    MLDSAVerifier)
    from repro.tee import bootrom
    from repro.tee.device import Device

    scheme = MLDSA(ML_DSA_44)

    def fresh_rom():
        return bootrom.BootRom(Device(_fresh_seed("boot"),
                                      post_quantum=True))

    def fresh_keypair():
        return scheme._key_gen(_fresh_seed("mldsa"))

    def fresh_ed_public():
        return ed25519.public_key(_fresh_seed("ed25519"))

    def neg_a(public):
        return ed25519._point_negate(ed25519._decompress(public))

    return [
        _Site("boot", bootrom._BOOT_MEMO, fresh_rom,
              lambda rom: rom.boot(_SM_IMAGE),
              lambda rom: rom._boot(_SM_IMAGE),
              (bootrom, "sm_certificate_payload"),
              hit_span="tee.boot.cache.hit",
              counts={"tee.bootrom.boots": 1, "crypto.mldsa.sign": 2}),
        _Site("mldsa.key_gen", mldsa._CTX_MEMO,
              lambda: _fresh_seed("key_gen"), scheme.key_gen,
              scheme._key_gen, (mldsa, "expand_a"),
              counts={"crypto.mldsa.key_gen": 1,
                      "crypto.mldsa.ntt_calls": 8}),
        _Site("mldsa.signer", mldsa._CTX_MEMO,
              lambda: fresh_keypair()[1], scheme.signer,
              lambda sk: MLDSASigner(ML_DSA_44, sk), (mldsa, "expand_a")),
        _Site("mldsa.verifier", mldsa._CTX_MEMO,
              lambda: fresh_keypair()[0], scheme.verifier,
              lambda pk: MLDSAVerifier(ML_DSA_44, pk), (mldsa, "expand_a")),
        _Site("ed25519.verify_table", ed25519._VERIFY_MEMO,
              fresh_ed_public, ed25519._verify_table,
              lambda pk: ed25519._point_table(neg_a(pk)),
              (ed25519, "_negated_point")),
        _Site("ed25519.batch_point", ed25519._VERIFY_MEMO,
              fresh_ed_public, ed25519._batch_verify_point, neg_a,
              (ed25519, "_negated_point")),
        _Site("ed25519.batch_table", ed25519._VERIFY_MEMO,
              fresh_ed_public, ed25519._batch_verify_table,
              lambda pk: ed25519._point_table(neg_a(pk),
                                              ed25519._WNAF_BATCH),
              (ed25519, "_negated_point")),
    ]


_SITES = _sites()


@pytest.fixture
def perf_off():
    """PERF off (so entries record no delta), restored afterwards."""
    was = PERF.enabled
    PERF.enabled = False
    yield
    PERF.enabled = was


def _measured(fn, arg):
    with counting() as window:
        value = fn(arg)
    return _canonical(value), window.delta()


@pytest.mark.parametrize("site", _SITES, ids=repr)
class TestReplayCacheInvariants:
    def test_hit_is_byte_identical_with_cold_delta(self, site):
        x = site.fresh()
        cold = _measured(site.cold, x)
        misses = site.memo.misses
        assert _measured(site.call, x) == cold
        assert site.memo.misses > misses  # nested builds miss too
        hits = site.memo.hits
        assert _measured(site.call, x) == cold
        assert site.memo.hits == hits + 1

    def test_perf_off_entry_rebuilds_for_perf_on_lookup(self, site,
                                                        perf_off):
        x = site.fresh()
        site.call(x)                    # stores an entry with no delta
        warm = _measured(site.call, x)
        assert warm == _measured(site.cold, x)
        assert _measured(site.call, x) == warm
        assert site.counts.items() <= warm[1].items()

    def test_telemetry_takes_the_same_path(self, site, enabled_obs):
        x = site.fresh()
        cold = _measured(site.cold, x)
        assert _measured(site.call, x) == cold
        TELEMETRY.reset()
        assert _measured(site.call, x) == cold
        names = {record["name"] for record in TELEMETRY.tracer.snapshot()}
        # Only the boot memo marks its hits; per-lane crypto hits stay
        # out of traces.
        assert names == ({site.hit_span} if site.hit_span else set())

    def test_lock_is_released_during_build(self, site, monkeypatch):
        module, attr = site.probe
        original = getattr(module, attr)
        held = []

        def probe(*args):
            held.append(site.memo._lock.locked())
            return original(*args)
        monkeypatch.setattr(module, attr, probe)
        x = site.fresh()
        worker = threading.Thread(target=site.call, args=(x,),
                                  daemon=True)
        worker.start()
        worker.join(60)
        assert not worker.is_alive(), "build deadlocked on the memo lock"
        assert held and not any(held)

