"""Attestation-service suites: deterministic micro-batching, the
enclave-session cache, and serial-vs-parallel byte parity.

The session-cache tests mirror ``TestBootMemo`` in
``test_crypto_fastpaths.py``: hits must replay identical bytes and
identical PERF deltas, armed fault injection must bypass the cache
entirely, a live telemetry subscriber must see the same cached path
production takes, and a change to any field of the exact-tuple key
(device, keys, pins, report bytes) must miss.  Session tokens are
checked against an independent ``hashlib`` rebuild of the v1 token.
The parity tests pin the acceptance contract of the service: results,
audit ledger and PERF counters byte-identical between a serial drain
and a sharded one, and between a first and a repeated hostile pass.
"""

import hashlib

import pytest

from repro.crypto import ed25519 as ed
from repro.faults.injector import FAULTS, FaultSpec
from repro.faults.models import BIT_FLIP
from repro.obs import TELEMETRY
from repro.obs.audit import AUDIT, canonical_encode, verify_records
from repro.obs.exposition import parse_exposition, render
from repro.obs.perf import PERF, counting
from repro.tee import AttestationService, build_tee, verify_report
from repro.tee.attestation import AttestationReport

#: Offset of the device's Ed25519 signature in an encoded report:
#: enclave hash, data length, data, enclave signature, SM hash, SM key.
_DEVICE_SIG_OFFSET = 64 + 8 + 1024 + 64 + 64 + 32


@pytest.fixture(scope="module")
def fleet():
    """Two devices (one hybrid-PQ, one classical), their enclaves and
    a pool of encoded attestation requests."""
    pq = build_tee(b"service-pq-device-root-secret-00", post_quantum=True)
    cl = build_tee(b"service-cl-device-root-secret-00",
                   post_quantum=False)
    pq_enclave = pq.sm.create_enclave(b"pq-enclave-image")
    cl_enclave = cl.sm.create_enclave(b"cl-enclave-image")
    pq_reports = pq.sm.attestation_requests(
        [pq_enclave] * 3, [b"pq-%d" % i for i in range(3)])
    cl_reports = cl.sm.attestation_requests(
        [cl_enclave] * 3, [b"cl-%d" % i for i in range(3)])
    return {
        "pq": pq, "cl": cl,
        "pq_enclave": pq_enclave, "cl_enclave": cl_enclave,
        "pq_reports": pq_reports, "cl_reports": cl_reports,
        "devices": {"pq0": pq.device.public_identity(),
                    "cl0": cl.device.public_identity()},
    }


def _service(fleet, **kwargs):
    return AttestationService(dict(fleet["devices"]), **kwargs)


def _oracle_token(device_id, identity, report, enclave_pin=None,
                  sm_pin=None):
    """The v1 session token rebuilt from its definition with
    ``hashlib``: SHA3-256 over the token domain and a SHA3-512 digest
    of the session domain plus the length-prefixed fields."""
    parts = [device_id.encode(), identity["ed25519"],
             identity.get("mldsa") or b"", enclave_pin or b"",
             sm_pin or b"", report]
    blob = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
    digest = hashlib.sha3_512(b"tee-service-session-v1" + blob).digest()
    return hashlib.sha3_256(b"tee-service-token-v1" + digest).hexdigest()


def _flip(report, offset):
    tampered = bytearray(report)
    tampered[offset] ^= 0x01
    return bytes(tampered)


def _verdict_bytes(results):
    """Canonical bytes of the verification outcome, without the
    admission sequence numbers (those increase monotonically across
    drains by design)."""
    return canonical_encode([{k: v for k, v in r.items() if k != "seq"}
                             for r in results])


class TestMicroBatchQueue:

    def test_size_flush(self, fleet):
        svc = _service(fleet, max_batch=2)
        svc.submit("cl0", fleet["cl_reports"][0])
        assert svc.sealed_count() == 0 and svc.pending_count() == 1
        svc.submit("cl0", fleet["cl_reports"][1])
        assert svc.sealed_count() == 1 and svc.pending_count() == 0

    def test_deadline_flush(self, fleet):
        svc = _service(fleet, max_batch=100, deadline_ticks=3)
        svc.tick(10)                       # empty ticks never seal
        assert svc.sealed_count() == 0
        svc.submit("cl0", fleet["cl_reports"][0])
        svc.tick(2)
        assert svc.sealed_count() == 0     # younger than the deadline
        svc.tick(1)
        assert svc.sealed_count() == 1 and svc.pending_count() == 0

    def test_results_in_admission_order(self, fleet):
        svc = _service(fleet, max_batch=3)
        tampered = bytearray(fleet["cl_reports"][0])
        tampered[-1] ^= 0xFF               # break the device signature
        submissions = [
            ("pq0", fleet["pq_reports"][0]),
            ("cl0", fleet["cl_reports"][0]),
            ("ghost", fleet["cl_reports"][0]),    # unregistered
            ("cl0", bytes(tampered)),
            ("cl0", b"\x00" * 17),                # malformed
            ("pq0", fleet["pq_reports"][1]),
        ]
        results = svc.process(submissions, jobs=1)
        assert [r["seq"] for r in results] == list(range(6))
        assert [r["ok"] for r in results] == \
            [True, True, False, False, False, True]
        assert all(bool(r["session"]) == r["ok"] for r in results)

    def test_empty_drain(self, fleet):
        assert _service(fleet).drain() == []

    def test_cross_device_batch_matches_scalar_verifier(self, fleet):
        """One flushed batch mixing PQ and classical devices agrees
        lane-for-lane with the scalar ``verify_report`` chain."""
        svc = _service(fleet, max_batch=6)
        submissions = [("pq0", r) for r in fleet["pq_reports"]] + \
                      [("cl0", r) for r in fleet["cl_reports"]]
        results = svc.process(submissions, jobs=1)
        for (device, blob), got in zip(submissions, results):
            report = AttestationReport.decode(blob)
            assert got["ok"] == verify_report(
                report, fleet["devices"][device])
            assert got["ok"] is True


class TestSessionCache:

    def test_hit_is_byte_identical(self, fleet):
        svc = _service(fleet)
        first = svc.process([("pq0", fleet["pq_reports"][0])], jobs=1)
        second = svc.process([("pq0", fleet["pq_reports"][0])], jobs=1)
        assert _verdict_bytes(second) == _verdict_bytes(first)
        assert svc.cache_stats()["hits"] == 1
        assert svc.cache_stats()["misses"] == 1

    def test_hit_replays_perf_delta(self, fleet):
        svc = _service(fleet)
        request = [("pq0", fleet["pq_reports"][1])]
        with counting() as cold:
            svc.process(request, jobs=1)
        cold_delta = cold.delta()
        with counting() as warm:
            svc.process(request, jobs=1)
        warm_delta = warm.delta()
        assert cold_delta["tee.service.verified"] == 1
        assert cold_delta["crypto.mldsa.verify"] > 0
        assert warm_delta == cold_delta

    def test_active_telemetry_takes_production_path(self, fleet):
        """A telemetry subscriber no longer bypasses the cache: results,
        tokens, the audit stream, PERF counters and cache statistics
        match an untraced run, and the trace shows the hit span."""
        request = [("cl0", fleet["cl_reports"][0]),
                   ("ghost", fleet["cl_reports"][0])]

        def run(traced):
            svc = _service(fleet)
            was_enabled, was_audit = TELEMETRY.enabled, AUDIT.enabled
            TELEMETRY.enabled = traced
            TELEMETRY.reset()
            AUDIT.reset()
            AUDIT.enable()
            try:
                with counting() as window:
                    results = [svc.process(request, jobs=1)
                               for _ in range(2)]   # cold, then warm
                names = {record["name"]
                         for record in TELEMETRY.tracer.snapshot()}
                audit = canonical_encode(AUDIT.export_records())
            finally:
                TELEMETRY.reset()
                TELEMETRY.enabled = was_enabled
                AUDIT.reset()
                AUDIT.enabled = was_audit
            return (canonical_encode(results), audit, window.delta(),
                    svc.cache_stats(), names)

        plain, traced = run(False), run(True)
        assert traced[:4] == plain[:4]
        assert plain[3]["hits"] == 1 and plain[3]["misses"] == 1
        assert plain[4] == set()
        assert {"tee.service.batch", "tee.service.cache.hit"} <= traced[4]

    def test_armed_faults_bypass_cache(self, fleet):
        svc = _service(fleet)
        request = [("cl0", fleet["cl_reports"][1])]
        clean = svc.process(request, jobs=1)    # warm the cache
        stats_before = svc.cache_stats()
        FAULTS.arm(FaultSpec("tee.bootrom.measure", BIT_FLIP, bit=0))
        try:
            armed = svc.process(request, jobs=1)
        finally:
            FAULTS.disarm()
        # The armed drain must neither consult nor repopulate the
        # cache; no corruption site fires in verification, so the
        # verdict bytes still match.
        assert _verdict_bytes(armed) == _verdict_bytes(clean)
        stats_after = svc.cache_stats()
        assert stats_after["hits"] == stats_before["hits"]
        assert stats_after["misses"] == stats_before["misses"]

    def test_measurement_mismatch_misses(self, fleet):
        svc = _service(fleet)
        report = fleet["cl_reports"][2]
        good_hash = AttestationReport.decode(report).enclave_hash
        trusted = svc.process([("cl0", report, good_hash)], jobs=1)
        assert trusted[0]["ok"] is True
        # Same report under a different pin: the content address
        # changes, so the cached session must NOT be served.
        wrong_hash = bytes(64)
        for _ in range(2):
            pinned = svc.process([("cl0", report, wrong_hash)], jobs=1)
            assert pinned[0]["ok"] is False
            assert pinned[0]["session"] == ""
        assert svc.cache_stats()["hits"] == 0
        # ...and matches the uncached scalar verifier's refusal.
        assert verify_report(AttestationReport.decode(report),
                             fleet["devices"]["cl0"],
                             expected_enclave_hash=wrong_hash) is False

    def test_sm_hash_pin_mismatch_rejects(self, fleet):
        svc = AttestationService()
        svc.register_device("cl0", fleet["devices"]["cl0"],
                            expected_sm_hash=bytes(64))
        rejected = svc.process([("cl0", fleet["cl_reports"][0])],
                               jobs=1)
        assert rejected[0]["ok"] is False

    def test_uncached_service_is_byte_identical(self, fleet):
        submissions = [("pq0", fleet["pq_reports"][0]),
                       ("cl0", fleet["cl_reports"][0]),
                       ("pq0", fleet["pq_reports"][0])]
        cached = _service(fleet).process(list(submissions), jobs=1)
        # The uncached oracle: a cold service per request (each one
        # admits its request as seq 0, so renumber in submission order).
        uncached = [dict(_service(fleet).process([submission], jobs=1)[0],
                         seq=seq)
                    for seq, submission in enumerate(submissions)]
        assert canonical_encode(uncached) == canonical_encode(cached)


class TestExactKey:
    """The cache key is the exact tuple (device id, Ed25519 key, ML-DSA
    key, enclave pin, SM pin, report bytes); the token is minted once,
    on a miss, and equals the v1 SHA3 definition on every path."""

    @staticmethod
    def _access(svc, *submission):
        """Process one submission; returns (result, hit?, missed?)."""
        before = svc.cache_stats()
        result = svc.process([submission], jobs=1)[0]
        after = svc.cache_stats()
        return (result, after["hits"] - before["hits"] == 1,
                after["misses"] - before["misses"] == 1)

    def test_hit_only_when_all_six_fields_equal(self, fleet):
        report = fleet["cl_reports"][0]
        decoded = AttestationReport.decode(report)
        identity = fleet["devices"]["cl0"]
        svc = AttestationService()
        svc.register_device("cl0", identity,
                            expected_sm_hash=decoded.sm_hash)
        first, hit, missed = self._access(svc, "cl0", report,
                                          decoded.enclave_hash)
        assert first["ok"] and missed and not hit
        # Equal but distinct bytes objects: equality, not identity.
        again, hit, _ = self._access(svc, "cl0", bytes(bytearray(report)),
                                     bytes(decoded.enclave_hash))
        assert hit and again["session"] == first["session"]
        # Same identity under another device id.
        svc.register_device("cl1", identity,
                            expected_sm_hash=decoded.sm_hash)
        other, hit, missed = self._access(svc, "cl1", report,
                                          decoded.enclave_hash)
        assert other["ok"] and missed and not hit
        assert other["session"] != first["session"]
        # No enclave pin.
        unpinned, hit, missed = self._access(svc, "cl0", report)
        assert unpinned["ok"] and missed and not hit
        assert unpinned["session"] != first["session"]
        # A changed enclave pin: misses, then the prefilter rejects.
        wrong, hit, missed = self._access(svc, "cl0", report, bytes(64))
        assert not wrong["ok"] and missed and not hit
        # One flipped report byte.
        flipped, hit, missed = self._access(
            svc, "cl0", _flip(report, 200), decoded.enclave_hash)
        assert not flipped["ok"] and missed and not hit
        # A changed SM pin.
        svc.register_device("cl0", identity, expected_sm_hash=bytes(64))
        sm_moved, hit, missed = self._access(svc, "cl0", report,
                                             decoded.enclave_hash)
        assert not sm_moved["ok"] and missed and not hit
        # Re-registered with new keys (the PQ device's identity).
        svc.register_device("cl0", fleet["devices"]["pq0"],
                            expected_sm_hash=decoded.sm_hash)
        rekeyed, hit, missed = self._access(svc, "cl0", report,
                                            decoded.enclave_hash)
        assert not rekeyed["ok"] and missed and not hit
        # Restoring every field hits the original entry again.
        svc.register_device("cl0", identity,
                            expected_sm_hash=decoded.sm_hash)
        restored, hit, _ = self._access(svc, "cl0", report,
                                        decoded.enclave_hash)
        assert hit and restored["session"] == first["session"]

    @pytest.mark.parametrize("device", ["pq0", "cl0"])
    def test_tokens_match_v1_oracle_on_every_path(self, fleet, device):
        report = fleet[f"{device[:2]}_reports"][1]
        decoded = AttestationReport.decode(report)
        identity = fleet["devices"][device]
        expected = {
            None: _oracle_token(device, identity, report),
            decoded.enclave_hash: _oracle_token(
                device, identity, report, decoded.enclave_hash),
        }
        for pin, token in expected.items():
            submission = [(device, report, pin)]
            svc = _service(fleet)
            fresh = svc.process(submission, jobs=1)[0]
            hit = svc.process(submission, jobs=1)[0]
            assert svc.cache_stats()["hits"] == 1
            FAULTS.arm(FaultSpec("tee.bootrom.measure", BIT_FLIP, bit=0))
            try:
                bypassed = svc.process(submission, jobs=1)[0]
            finally:
                FAULTS.disarm()
            uncached = _service(fleet).process(submission, jobs=1)[0]
            for result in (fresh, hit, bypassed, uncached):
                assert result["ok"] is True
                assert result["session"] == token
        # The SM pin is the fifth field of the token blob.
        svc = AttestationService()
        svc.register_device(device, identity,
                            expected_sm_hash=decoded.sm_hash)
        pinned = svc.process([(device, report)], jobs=1)[0]
        assert pinned["session"] == _oracle_token(
            device, identity, report, sm_pin=decoded.sm_hash)

    def test_rejected_lanes_are_never_stored(self, fleet):
        report = fleet["cl_reports"][2]
        svc = _service(fleet)
        results = svc.process([("ghost", report),            # registry
                               ("cl0", report, bytes(64)),   # prefilter
                               ("cl0", report[:-5])],        # decode
                              jobs=1)
        assert [r["ok"] for r in results] == [False] * 3
        assert [r["session"] for r in results] == [""] * 3
        assert svc.cache_stats()["size"] == 0
        # A failed verification is a stored negative verdict, also
        # with an empty token, and its hit replays it.
        tampered = _flip(report, len(report) - 1)
        svc.process([("cl0", tampered)], jobs=1)
        assert svc.cache_stats()["size"] == 1
        replay = svc.process([("cl0", tampered)], jobs=1)[0]
        assert svc.cache_stats()["hits"] == 1
        assert replay["ok"] is False and replay["session"] == ""


class TestHostileResubmission:
    """Every hostile class, submitted twice in separate drains, gives
    the same verdict, reason and audit events on the second pass."""

    @staticmethod
    def _hostile(fleet):
        pq, cl = fleet["pq_reports"][0], fleet["cl_reports"][1]
        pin = AttestationReport.decode(pq).enclave_hash
        mldsa_sig = len(pq) - 2 * 2420 + 7
        return [
            ("cl0", _flip(cl, _DEVICE_SIG_OFFSET + 40)),   # Ed25519
            ("pq0", _flip(pq, _DEVICE_SIG_OFFSET + 40)),
            ("pq0", _flip(pq, mldsa_sig)),                 # ML-DSA
            ("rogue", cl),                                 # unregistered
            ("cl0", cl[:-9]),                              # length
            ("pq0", pq[:-1]),
            ("pq0", pq, bytes(64)),                        # pin mismatch
            ("pq0", pq, pin),                              # honest
        ]

    @staticmethod
    def _pass(svc, submissions):
        """One drain; its verdicts and audit events, with sequence
        numbers made relative to the pass's first request."""
        AUDIT.reset()
        results = svc.process(submissions, jobs=1)
        first = results[0]["seq"]
        events = []
        for record in AUDIT.export_records():
            if "kind" not in record:
                continue
            detail = dict(record["detail"])
            if "seq" in detail:
                detail["seq"] -= first
            events.append((record["kind"], record["severity"], detail))
        verdicts = [(r["device"], r["ok"], r["session"]) for r in results]
        return verdicts, events

    def test_second_pass_matches_first(self, fleet):
        svc = _service(fleet, max_batch=4)
        was_audit = AUDIT.enabled
        AUDIT.enable()
        try:
            first = self._pass(svc, self._hostile(fleet))
            size = svc.cache_stats()["size"]
            second = self._pass(svc, self._hostile(fleet))
        finally:
            AUDIT.reset()
            AUDIT.enabled = was_audit
        # The second pass also resubmits the honest report, cached by
        # the first pass, under a wrong pin: the prefilter still
        # rejects it with the same reason.
        assert second == first
        ok = [verdict[1] for verdict in first[0]]
        assert ok == [False] * 7 + [True]
        # Stored: the three failed verifications and the honest lane.
        assert size == 4
        assert svc.cache_stats()["hits"] == 4
        reasons = [detail["reason"] for kind, _, detail in first[1]
                   if kind == "request-rejected"]
        assert reasons == ["verification-failed"] * 3 + [
            "unknown-device", "malformed-report", "malformed-report",
            "policy-mismatch"]


class TestServiceParity:

    def _run(self, fleet, jobs):
        """One full service run under a fresh audit ledger; returns
        (results bytes, audit bytes, perf delta sans runtime.*)."""
        tampered = bytearray(fleet["pq_reports"][2])
        tampered[100] ^= 0x01
        submissions = ([("pq0", r) for r in fleet["pq_reports"]]
                       + [("cl0", r) for r in fleet["cl_reports"]]
                       + [("pq0", bytes(tampered)),
                          ("ghost", fleet["cl_reports"][0]),
                          ("cl0", fleet["cl_reports"][0]),
                          ("pq0", fleet["pq_reports"][0])])
        svc = _service(fleet, max_batch=3)
        was_audit = AUDIT.enabled
        AUDIT.reset()
        AUDIT.enable()
        try:
            with counting() as window:
                results = svc.process(submissions, jobs=jobs)
            audit_blob = canonical_encode(AUDIT.export_records())
        finally:
            AUDIT.reset()
            AUDIT.enabled = was_audit
        # runtime.pools/runtime.shards only tick when a pool actually
        # spins up — the one sanctioned serial/parallel difference.
        delta = {k: v for k, v in sorted(window.delta().items())
                 if not k.startswith("runtime.")}
        return canonical_encode(results), audit_blob, delta

    def test_serial_vs_sharded_byte_identical(self, fleet):
        serial_results, serial_audit, serial_delta = self._run(fleet, 1)
        sharded_results, sharded_audit, sharded_delta = \
            self._run(fleet, 2)
        assert sharded_results == serial_results
        assert sharded_audit == serial_audit
        assert sharded_delta == serial_delta

    def test_audit_stream_contents(self, fleet):
        svc = _service(fleet, max_batch=2)
        was_audit = AUDIT.enabled
        AUDIT.reset()
        AUDIT.enable()
        try:
            svc.process([("cl0", fleet["cl_reports"][0]),
                         ("ghost", fleet["cl_reports"][0])], jobs=1)
            records = AUDIT.export_records()
        finally:
            AUDIT.reset()
            AUDIT.enabled = was_audit
        kinds = [r["kind"] for r in records if "kind" in r]
        assert "batch-verified" in kinds
        assert "request-rejected" in kinds
        rejected = next(r for r in records
                        if r.get("kind") == "request-rejected")
        assert rejected["detail"]["reason"] == "unknown-device"
        assert rejected["severity"] == "warning"
        # The exported ledger chain-verifies end to end.
        verify_records(records)


def test_service_counters_render_and_parse_roundtrip(fleet):
    """``tee.service.*`` counters and the cache/queue gauges survive the
    exposition round trip; the gauges stay out of PERF."""
    svc = _service(fleet, max_batch=2)
    was_enabled = TELEMETRY.enabled
    TELEMETRY.enable()
    TELEMETRY.reset()
    try:
        with counting() as window:
            svc.process([("pq0", fleet["pq_reports"][0]),
                         ("cl0", fleet["cl_reports"][0]),
                         ("ghost", fleet["cl_reports"][0])], jobs=1)
            svc.process([("cl0", fleet["cl_reports"][0])], jobs=1)
        metrics = TELEMETRY.metrics_snapshot()
    finally:
        TELEMETRY.reset()
        TELEMETRY.enabled = was_enabled
    delta = window.delta()
    families = parse_exposition(render(metrics=metrics, perf=dict(delta)))
    events = {labels["event"]: value for labels, value in
              families["repro_perf_events_total"]}
    assert events["tee.service.requests"] == 4.0
    assert events["tee.service.batches"] == 3.0
    assert events["tee.service.flush_size"] == 1.0
    assert events["tee.service.flush_drain"] == 2.0
    assert events["tee.service.verified"] == 3.0
    assert events["tee.service.rejected"] == 1.0
    gauges = {name: families[f"repro_tee_service_{name}"][0][1]
              for name in ("cache_size", "cache_hits", "cache_misses",
                           "cache_evictions", "queue_depth")}
    # After the second drain: two stored sessions, one hit on the
    # second drain, two misses on the first; it found one request.
    assert gauges == {"cache_size": 2.0, "cache_hits": 1.0,
                      "cache_misses": 2.0, "cache_evictions": 0.0,
                      "queue_depth": 1.0}
    assert not [event for event in delta
                if event.startswith(("tee.service.cache",
                                     "tee.service.queue"))]
