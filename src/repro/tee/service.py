"""Attestation-as-a-service: a batching verification frontend.

The paper's Section III-B attestation flow is device-side; the ROADMAP
north star is the *other* end of that link — a verifier serving
millions of edge devices.  This module is that serving tier: an
:class:`AttestationService` that accepts attestation-report
submissions from a registered device fleet, coalesces them in a
deterministic micro-batching queue, and drains whole batches through
the batch crypto kernels (cross-key ML-DSA ``verify_many``, Ed25519
RLC ``verify_batch`` with the Pippenger multi-scalar path above its
crossover) plus an enclave-session cache.

Determinism is the design axis, same as the rest of the runtime:

* **Admission** — requests get a monotonically increasing sequence
  number; batches are formed purely from admission order, a maximum
  batch size, and a simulated deadline clock.  No wall clock, no
  thread scheduling: the same submissions always form the same
  batches.
* **Drain** — sealed batches process independently (optionally across
  ``run_sharded`` fork workers) against the session cache *frozen at
  drain start*; new cache entries are collected and applied by the
  parent in shard order after the drain.  Workers fork with the same
  frozen cache the serial loop reads, so the hit/miss pattern — and
  with it every result byte, audit event and PERF counter — is
  identical for any ``REPRO_JOBS``.
* **Session cache** — keyed on the exact tuple of every verification
  input: device id, the device's Ed25519 and ML-DSA public keys, the
  enclave and SM measurement pins, and the full report bytes (which
  carry the enclave measurement and the SM image hash).  Dict equality
  on that tuple decides a hit, so there is no digest to collide and a
  hit does no hashing beyond the ``bytes`` hash CPython caches per
  object.  The value holds the verdict plus the session token, minted
  once — on the miss that verified the request — as SHA3-256 over a
  SHA3-512 digest of the length-prefixed key fields; the token is a
  pure function of the key, so cached, fresh and bypassed
  verifications of the same request mint the same bytes.  The price of
  exact keys is memory: the cache pins up to ``cache_size`` reports,
  about 30 MB at the default 4096 PQ reports of 7,472 bytes.  Entries
  built by a single-request flush also record the PERF delta of the
  verification and replay it on every hit, through the same
  :func:`~repro.runtime.memo.record` / :func:`~repro.runtime.memo.replay`
  pair as every other cache.  Entries built by a multi-lane
  batch deliberately store no delta — the combined-chain Ed25519
  counters are a property of the *batch*, not attributable to one
  lane — so their hits leave only the ``tee.service.*`` bookkeeping
  counters.  The cache is bypassed only while FAULTS are armed
  (injections must reach the real verification).  Telemetry takes the
  production path: hits emit a ``tee.service.cache.hit`` span, and
  each drain publishes cache and queue gauges.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.keccak import sha3_256, sha3_512
from ..crypto.mldsa import ML_DSA_44, MLDSAParams
from ..faults.injector import FAULTS
from ..obs import TELEMETRY
from ..obs.audit import AUDIT
from ..obs.perf import PERF
from ..runtime.executor import run_sharded
from ..runtime.memo import Memo, record, replay
from .attestation import (DEFAULT_REPORT_LEN, AttestationReport,
                          pq_report_len, verify_reports)

_SESSION_KEY_DOMAIN = b"tee-service-session-v1"
_SESSION_TOKEN_DOMAIN = b"tee-service-token-v1"

#: Offset of the 64-byte SM measurement inside an encoded report
#: (enclave hash, data length, padded data, enclave signature).
_SM_HASH_OFFSET = 64 + 8 + 1024 + 64


@dataclass(frozen=True)
class ServiceRequest:
    """One queued verification request (plain data, picklable)."""

    seq: int
    device_id: str
    report: bytes
    expected_enclave_hash: bytes = None
    arrival: int = 0


def _drain_worker(service, batch):
    """Module-level shard entry for :func:`run_sharded` (fork state)."""
    return service._process_batch(batch)


class AttestationService:
    """Deterministic micro-batching frontend over batch verification.

    ``devices`` maps a fleet device id to its
    :meth:`~repro.tee.device.Device.public_identity` dict; requests
    naming an unregistered device are rejected without touching any
    crypto.  ``expected_sm_hashes`` optionally pins the SM measurement
    per device (the :func:`~repro.tee.attestation.verify_report`
    docstring explains why a careful verifier should).

    Queue semantics: :meth:`submit` admits one request; a batch seals
    when ``max_batch`` requests are pending, when the oldest pending
    request is ``deadline_ticks`` old on the simulated clock
    (:meth:`tick`), or when :meth:`drain` flushes the tail.  Batches
    then verify via :func:`verify_reports` — one Ed25519 RLC equation
    and two stacked ML-DSA passes (device, then SM signatures) per
    batch, whatever its key mix — with per-request results returned in
    admission order.  Verdicts do not depend on ``max_batch`` or on
    which requests share a batch.
    """

    def __init__(self, devices=None, *, max_batch: int = 64,
                 deadline_ticks: int = 4, cache_size: int = 4096,
                 params: MLDSAParams = ML_DSA_44):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if deadline_ticks < 1:
            raise ValueError("deadline_ticks must be at least 1")
        self.max_batch = max_batch
        self.deadline_ticks = deadline_ticks
        self.params = params
        self._devices = {}
        self._expected_sm = {}
        self._cache = Memo(maxsize=cache_size)
        self._clock = 0
        self._next_seq = 0
        self._pending = []
        self._sealed = []
        for device_id, identity in (devices or {}).items():
            self.register_device(device_id, identity)

    # -- fleet registry ----------------------------------------------------

    def register_device(self, device_id: str, identity: dict,
                        expected_sm_hash: bytes = None) -> None:
        """Register (or update) a fleet device's public identity."""
        if "ed25519" not in identity:
            raise ValueError("device identity needs an ed25519 key")
        self._devices[str(device_id)] = {
            "ed25519": bytes(identity["ed25519"]),
            "mldsa": (bytes(identity["mldsa"])
                      if identity.get("mldsa") else None),
        }
        if expected_sm_hash is not None:
            self._expected_sm[str(device_id)] = bytes(expected_sm_hash)

    # -- admission ---------------------------------------------------------

    def submit(self, device_id: str, report: bytes,
               expected_enclave_hash: bytes = None) -> int:
        """Admit one request; returns its sequence number.

        Admission order is the arrival order of ``submit`` calls —
        callers that need a reproducible interleaving (the bench's
        seeded client mix) order their submissions deterministically
        and the queue preserves that order exactly.
        """
        seq = self._next_seq
        self._next_seq += 1
        if PERF.enabled:
            PERF.inc("tee.service.requests")
        self._pending.append(ServiceRequest(
            seq=seq, device_id=str(device_id), report=bytes(report),
            expected_enclave_hash=(bytes(expected_enclave_hash)
                                   if expected_enclave_hash is not None
                                   else None),
            arrival=self._clock))
        if len(self._pending) >= self.max_batch:
            self._seal("size")
        return seq

    def tick(self, ticks: int = 1) -> None:
        """Advance the simulated deadline clock; seals the pending
        batch when its oldest request has waited ``deadline_ticks``."""
        self._clock += int(ticks)
        if self._pending and \
                self._clock - self._pending[0].arrival >= \
                self.deadline_ticks:
            self._seal("deadline")

    def _seal(self, cause: str) -> None:
        if not self._pending:
            return
        if PERF.enabled:
            PERF.inc("tee.service.batches")
            PERF.inc(f"tee.service.flush_{cause}")
        self._sealed.append(self._pending)
        self._pending = []

    def pending_count(self) -> int:
        return len(self._pending)

    def sealed_count(self) -> int:
        return len(self._sealed)

    # -- session cache -----------------------------------------------------

    def _identity_for(self, device_id: str):
        return self._devices.get(device_id)

    def _session_key(self, request: ServiceRequest,
                     identity: dict) -> tuple:
        """Exact cache key of one verification: device identity keys,
        policy pins, and the full report bytes (which carry the
        enclave measurement and the SM image hash).  It holds every
        input of :meth:`_structurally_plausible`, so a lookup may run
        before that prefilter."""
        return (request.device_id, identity["ed25519"], identity["mldsa"],
                request.expected_enclave_hash,
                self._expected_sm.get(request.device_id), request.report)

    @staticmethod
    def _session_token(key: tuple) -> str:
        """The verified-session token (hex), deterministic in the key:
        SHA3-256 over a SHA3-512 digest of the length-prefixed key
        fields, absent pins and keys taking the empty string."""
        device_id, *fields = key
        parts = [device_id.encode()] + [field or b"" for field in fields]
        blob = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
        digest = sha3_512(_SESSION_KEY_DOMAIN + blob)
        return sha3_256(_SESSION_TOKEN_DOMAIN + digest).hex()

    def cache_stats(self) -> dict:
        """Hit/miss/eviction statistics of the session cache (service-
        local diagnostics; deliberately not PERF counters)."""
        return self._cache.stats()

    # -- drain -------------------------------------------------------------

    def drain(self, jobs: int = None) -> list:
        """Process every sealed batch (sealing the pending tail first)
        and return all results in admission order.

        Batches fan out across ``run_sharded`` workers when ``jobs``
        (or ``REPRO_JOBS``) asks for it.  All batches — serial or
        parallel — read the session cache as frozen at drain start;
        entries minted by the drain are merged afterwards in shard
        order with first-writer-wins dedup.  That freeze is what makes
        the hit/miss pattern (and therefore results, audit events and
        counters) byte-identical for any worker count: a forked worker
        could never observe a sibling batch's insertions anyway, so
        the serial loop must not either.  With telemetry on, each
        drain also publishes the cache statistics and the queue depth
        it found (pending plus sealed requests) as gauges.
        """
        depth = len(self._pending) + sum(map(len, self._sealed))
        self._seal("drain")
        batches, self._sealed = self._sealed, []
        results = []
        if batches:
            merged = {}
            for batch_results, entries in run_sharded(
                    _drain_worker, self, batches, jobs=jobs):
                results.extend(batch_results)
                for key, entry in entries:
                    merged.setdefault(key, entry)
            for key, entry in merged.items():
                # __contains__ skips the hit/miss accounting: the
                # merge is bookkeeping, not a cache access.
                if key not in self._cache:
                    self._cache.store(key, entry)
            results.sort(key=lambda r: r["seq"])
        if TELEMETRY.enabled:
            self._publish_gauges(depth)
        return results

    def _publish_gauges(self, depth: int) -> None:
        """Cache statistics and the queue depth this drain found, as
        telemetry gauges (never PERF counters: a cold and a warm run
        must write the same counter file)."""
        stats = self.cache_stats()
        for name in ("size", "hits", "misses", "evictions"):
            TELEMETRY.gauge(f"tee.service.cache.{name}").set(stats[name])
        TELEMETRY.gauge("tee.service.queue_depth").set(depth)

    def process(self, requests, jobs: int = None) -> list:
        """Submit ``(device_id, report_bytes)`` pairs (or 3-tuples with
        an expected enclave hash) and drain; results in input order."""
        for request in requests:
            self.submit(*request)
        return self.drain(jobs=jobs)

    # -- batch verification (runs inside drain workers) --------------------

    def _process_batch(self, batch):
        """Verify one sealed batch against the frozen session cache.

        Returns ``(results, new_entries)`` — both plain data — where
        ``new_entries`` carries the cache inserts for the parent to
        apply after the drain.  Audit events and PERF ticks emitted
        here are captured and merged in shard order by the runtime, so
        the serial and parallel streams are identical.
        """
        bypass = FAULTS.enabled
        with TELEMETRY.span("tee.service.batch", batch=len(batch)):
            lanes = []          # (request, identity, key) to verify
            hits = []           # (request, entry)
            results = {}        # seq -> result dict
            reasons = {}        # seq -> rejection reason (or None)
            for request in batch:
                identity = self._identity_for(request.device_id)
                if identity is None:
                    results[request.seq] = self._result(request, False, "")
                    reasons[request.seq] = "unknown-device"
                    continue
                key = self._session_key(request, identity)
                if not bypass:
                    # Only lanes that passed the prefilter and decoded
                    # are ever stored, and the key holds every input of
                    # the prefilter, so a hit needs no prefilter.
                    found, entry = self._cache.lookup(key)
                    if found:
                        hits.append((request, entry))
                        continue
                if not self._structurally_plausible(request):
                    results[request.seq] = self._result(request, False, "")
                    reasons[request.seq] = "policy-mismatch"
                    continue
                lanes.append((request, identity, key))
            # Hit/miss tallies live in the Memo's own stats
            # (:meth:`cache_stats`), deliberately NOT in PERF: a cold
            # and a warm run of the same workload must produce the same
            # counter file (the boot-memo contract), which no
            # hit-or-miss counter can satisfy.
            if hits:
                with TELEMETRY.span("tee.service.cache.hit", hits=len(hits)):
                    for request, (ok, token, reason, delta) in hits:
                        replay(delta)
                        results[request.seq] = self._result(request, ok,
                                                            token)
                        reasons[request.seq] = reason
            new_entries = []
            if lanes:
                new_entries = self._verify_lanes(lanes, results,
                                                 reasons, bypass)
            verified = sum(1 for r in results.values() if r["ok"])
            if AUDIT.enabled:
                AUDIT.emit("tee.service", "batch-verified",
                           batch=len(batch), verified=verified,
                           rejected=len(batch) - verified)
                for request in batch:
                    reason = reasons.get(request.seq)
                    if reason is not None:
                        AUDIT.emit("tee.service", "request-rejected",
                                   severity="warning",
                                   seq=int(request.seq),
                                   device=request.device_id,
                                   reason=reason)
            if PERF.enabled:
                # Zero-amount ticks are skipped: a worker's capture
                # delta drops zero entries, so minting the key only on
                # the serial path would break serial/parallel parity.
                if verified:
                    PERF.inc("tee.service.verified", verified)
                if len(batch) - verified:
                    PERF.inc("tee.service.rejected",
                             len(batch) - verified)
            ordered = [results[request.seq] for request in batch]
            return ordered, new_entries

    def _verify_lanes(self, lanes, results, reasons, bypass) -> list:
        """Run the fresh lanes through the batch verifier; returns the
        session-cache entries to insert (empty when bypassed)."""
        reports = []
        identities = []
        parsed = []
        for request, identity, key in lanes:
            try:
                report = AttestationReport.decode(request.report,
                                                  self.params)
            except ValueError:
                results[request.seq] = self._result(request, False, "")
                reasons[request.seq] = "malformed-report"
                continue
            reports.append(report)
            identities.append(identity)
            parsed.append((request, key))
        if not parsed:
            return []
        verdicts, delta = record(lambda: verify_reports(
            reports, identities, params=self.params))
        if bypass or len(parsed) > 1:
            delta = None    # only single-lane flushes keep a delta
        new_entries = []
        for (request, key), ok in zip(parsed, verdicts):
            token = self._session_token(key) if ok else ""
            reason = None if ok else "verification-failed"
            results[request.seq] = self._result(request, ok, token)
            reasons[request.seq] = reason
            if not bypass:
                new_entries.append((key, (ok, token, reason, delta)))
        return new_entries

    def _structurally_plausible(self, request: ServiceRequest) -> bool:
        """Policy pre-filter on the raw report bytes — no decode, no
        crypto: length sanity plus the expected-measurement pins the
        scalar verifier would reject anyway."""
        report = request.report
        if len(report) not in (DEFAULT_REPORT_LEN,
                               pq_report_len(self.params)):
            return True   # let decode produce the malformed verdict
        if request.expected_enclave_hash is not None and \
                report[:64] != request.expected_enclave_hash:
            return False
        expected_sm = self._expected_sm.get(request.device_id)
        if expected_sm is not None and \
                report[_SM_HASH_OFFSET:_SM_HASH_OFFSET + 64] != \
                expected_sm:
            return False
        return True

    @staticmethod
    def _result(request: ServiceRequest, ok: bool, token: str) -> dict:
        return {"seq": int(request.seq),
                "device": request.device_id,
                "ok": bool(ok),
                "session": token}
