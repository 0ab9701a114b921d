"""Tamper-evident security audit ledger (ISSUE 8).

CONVOLVE's runtime-assurance story needs an *account* of what
security-relevant events happened — boot verdicts, handoff checks,
delivery accept/reject, PMP traps and containment, bus watchdog trips,
attestation sign/verify, fault-injection arm/fire — in a form whose
integrity can be checked after the fact.  This module provides that
plane with the same discipline as the rest of :mod:`repro.obs`:

* **Facade with a switch** — the global :data:`AUDIT` ledger is off by
  default (``REPRO_AUDIT=1`` or :meth:`AuditLedger.enable` turns it
  on); every hook site is written as ``if AUDIT.enabled:`` so the
  disabled path costs one attribute check.
* **Canonical events** — each event body is canonical JSON (sorted
  keys, compact separators, ASCII, no NaN), so encoding is a bijection
  the hypothesis round-trip test can pin byte for byte.  Events carry
  no wall-clock time: the sequence number *is* the clock, which keeps
  campaign ledgers replayable and parity-stable.
* **Keccak hash chain** — every record (event or checkpoint) links to
  its predecessor via SHA3-256 over ``prev || canonical(body)``; the
  chain starts at the header, so a single flipped bit anywhere —
  header, body, link, or signature — breaks verification.  The chain
  hash calls :mod:`hashlib` directly; :mod:`repro.crypto.keccak` wraps
  the same functions and ticks no PERF counters either, so the audit
  plane leaves the architectural counters it observes untouched.
* **Ed25519 checkpoints** — every ``checkpoint_every`` events (and
  always at export) the current head is signed with a PR 5 cached
  :class:`~repro.crypto.ed25519.SigningKey` context.  PERF/telemetry
  are suppressed around the signing call for the same
  observer-must-not-perturb reason.
* **Shard-order merge** — workers record plain event bodies which the
  parent re-chains in shard order (:mod:`repro.runtime.capture`), the
  same recipe spans and coverage maps use, so the chain is
  byte-identical serial vs ``REPRO_JOBS=N``.

Verification (:func:`verify_records`) recomputes every link and
signature and fails with a one-line :class:`AuditVerificationError` on
any flipped bit, dropped record, or reordered pair — the contract
``scripts/audit_report.py --verify`` exposes to operators.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from .perf import PERF
from .telemetry import TELEMETRY

#: Ledger layout version (bump on incompatible record changes).
SCHEMA_VERSION = 1

#: The chain anchor preceding the header record.
GENESIS = "0" * 64

#: Allowed event severities, in increasing order of concern.
SEVERITIES = ("info", "warning", "critical")

#: Events between automatic checkpoint signatures.
DEFAULT_CHECKPOINT_EVERY = 256

#: Domain-separation prefixes (versioned, like the boot memo's).
_CHAIN_DOMAIN = b"repro-audit-chain-v1:"
_CHECKPOINT_DOMAIN = b"repro-audit-checkpoint-v1:"

#: Deterministic default checkpoint-signing seed.  A real deployment
#: provisions a per-device key; the reproduction pins determinism so
#: two runs of the same campaign produce byte-identical ledgers.
DEFAULT_SIGNER_SEED = hashlib.sha3_256(
    b"repro-audit-ledger-key-v1").digest()


class AuditVerificationError(ValueError):
    """Chain verification failed; the message is one operator line."""


def canonical_encode(obj) -> bytes:
    """The canonical byte encoding of a JSON-native value.

    Sorted keys, compact separators, ASCII-only, NaN/Infinity
    rejected: encoding is a bijection on the JSON-native domain, so
    ``encode(decode(encode(x))) == encode(x)`` byte for byte.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, ensure_ascii=True
                      ).encode("ascii")


def canonical_decode(data: bytes):
    """Inverse of :func:`canonical_encode` (accepts any valid JSON)."""
    return json.loads(data.decode("ascii"))


def chain_hash(prev: str, body: dict) -> str:
    """SHA3-256 link: the running head absorbed with a record body."""
    return hashlib.sha3_256(_CHAIN_DOMAIN + prev.encode("ascii")
                            + canonical_encode(body)).hexdigest()


def _checkpoint_message(head: str, seq: int) -> bytes:
    return _CHECKPOINT_DOMAIN + canonical_encode(
        {"head": head, "seq": seq})


class AuditLedger:
    """An append-only, hash-chained security event log.

    ``emit`` is the hook-site API (a no-op unless :attr:`enabled`);
    everything else — checkpointing, worker merge, export,
    verification — is owner-side and runs regardless of the switch.
    Listeners (the :class:`~repro.obs.detect.AnomalyEngine`) observe
    every appended event record and may re-enter :meth:`emit` to file
    detections; re-entrant appends land immediately after their
    trigger, in both the serial and the merged parallel stream.
    """

    def __init__(self, name: str = "audit", enabled: bool = False,
                 signer_seed: bytes = None,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY):
        self.name = name
        self.enabled = enabled
        self.checkpoint_every = checkpoint_every
        self._signer_seed = (bytes(signer_seed) if signer_seed
                             else DEFAULT_SIGNER_SEED)
        self._signer = None
        self._listeners = []
        self._reset_chain()

    # -- switch ------------------------------------------------------------

    def enable(self) -> "AuditLedger":
        self.enabled = True
        return self

    def disable(self) -> "AuditLedger":
        self.enabled = False
        return self

    def reset(self) -> "AuditLedger":
        """Drop all records (the switch and listeners are kept)."""
        self._reset_chain()
        return self

    def _reset_chain(self) -> None:
        self._header = None
        self._head = GENESIS
        self._seq = 0
        self._records = []        # events + checkpoints, in order
        self._events = []         # event records only, in order
        self._checkpoints = 0

    # -- lazy signing context ----------------------------------------------

    def _ensure_signer(self):
        if self._signer is None:
            # Imported lazily: building the cached context touches the
            # Ed25519 comb tables, which a disabled ledger never pays.
            from ..crypto.ed25519 import SigningKey
            self._signer = SigningKey(self._signer_seed)
        return self._signer

    def _ensure_header(self) -> None:
        if self._header is None:
            self._header = {
                "type": "header",
                "schema_version": SCHEMA_VERSION,
                "name": self.name,
                "public_key": self._ensure_signer().public.hex(),
            }
            self._head = chain_hash(GENESIS, self._header)

    # -- appending ---------------------------------------------------------

    def emit(self, subsystem: str, kind: str, severity: str = "info",
             **detail):
        """Append one security event; returns the chained record (or
        ``None`` when the ledger is disabled)."""
        if not self.enabled:
            return None
        return self._append(subsystem, kind, severity, detail)

    def _append(self, subsystem, kind, severity, detail) -> dict:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self._ensure_header()
        body = {"type": "event", "seq": self._seq,
                "subsystem": subsystem, "kind": kind,
                "severity": severity, "detail": detail}
        record = dict(body)
        record["prev"] = self._head
        record["hash"] = chain_hash(self._head, body)
        self._head = record["hash"]
        self._seq += 1
        self._records.append(record)
        self._events.append(record)
        if self.checkpoint_every and \
                self._seq % self.checkpoint_every == 0:
            self.checkpoint()
        for listener in tuple(self._listeners):
            listener(record)
        return record

    def checkpoint(self) -> dict:
        """Sign the current head; the checkpoint record joins the
        chain itself, so dropping one is as detectable as dropping an
        event."""
        self._ensure_header()
        signer = self._ensure_signer()
        message = _checkpoint_message(self._head, self._seq)
        # The audit plane must not perturb what it observes: signing
        # inside a campaign run window would otherwise add
        # crypto.ed25519 PERF counts and spans to the measured system.
        perf_was, PERF.enabled = PERF.enabled, False
        telemetry_was, TELEMETRY.enabled = TELEMETRY.enabled, False
        try:
            signature = signer.sign(message)
        finally:
            PERF.enabled = perf_was
            TELEMETRY.enabled = telemetry_was
        body = {"type": "checkpoint", "seq": self._seq,
                "head": self._head, "signature": signature.hex()}
        record = dict(body)
        record["prev"] = self._head
        record["hash"] = chain_hash(self._head, body)
        self._head = record["hash"]
        self._records.append(record)
        self._checkpoints += 1
        return record

    # -- listeners (the detection engine) ----------------------------------

    def add_listener(self, listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- introspection -----------------------------------------------------

    @property
    def head(self) -> str:
        return self._head

    def event_count(self) -> int:
        return self._seq

    def checkpoint_count(self) -> int:
        return self._checkpoints

    def records(self) -> list:
        """Header plus every chained record, as plain dicts."""
        self._ensure_header()
        return [dict(self._header)] + [dict(r) for r in self._records]

    # -- worker capture (the spans/coverage merge recipe) ------------------

    def mark(self) -> int:
        """Event position at the start of one worker task."""
        return len(self._events)

    def bodies_since(self, mark: int) -> list:
        """Plain picklable event bodies appended since ``mark`` —
        chain fields stripped; the parent re-chains on merge."""
        return [{"subsystem": r["subsystem"], "kind": r["kind"],
                 "severity": r["severity"], "detail": r["detail"]}
                for r in self._events[mark:]]

    def merge_bodies(self, bodies) -> None:
        """Re-append worker event bodies through the parent chain.

        Bodies merge one at a time through the same append path as
        serial emission, so listeners fire (and detections interleave)
        at exactly the positions a serial run produces.
        """
        for body in bodies:
            self._append(body["subsystem"], body["kind"],
                         body["severity"], body["detail"])

    def reset_worker(self) -> None:
        """Reset a fork-inherited copy inside a new pool worker.

        Drops inherited records and listeners (detection runs in the
        parent only, over the merged stream) and disables automatic
        checkpointing — worker-side chain state never ships, only the
        event bodies do, and a worker signing checkpoints mid-run
        would waste work at chunk-dependent positions.  The enabled
        switch is deliberately kept, like PERF/telemetry.
        """
        self._listeners = []
        self.checkpoint_every = 0
        self._reset_chain()

    # -- export ------------------------------------------------------------

    def export_records(self) -> list:
        """Everything :meth:`write` persists: the chain, terminated by
        a signed checkpoint (always — an unterminated ledger is a
        verification error, so a truncated tail cannot masquerade as a
        complete artifact)."""
        last = self._records[-1] if self._records else None
        if last is None or last.get("type") != "checkpoint":
            self.checkpoint()
        return self.records()

    def write(self, path) -> pathlib.Path:
        """Persist the ledger as canonical JSONL (one record per
        line), atomically."""
        from .export import atomic_write_text
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [canonical_encode(record).decode("ascii")
                 for record in self.export_records()]
        atomic_write_text(path, "\n".join(lines) + "\n")
        return path


# -- verification ---------------------------------------------------------

def _event_body(record: dict) -> dict:
    return {"type": "event", "seq": record.get("seq"),
            "subsystem": record.get("subsystem"),
            "kind": record.get("kind"),
            "severity": record.get("severity"),
            "detail": record.get("detail")}


def _checkpoint_body(record: dict) -> dict:
    return {"type": "checkpoint", "seq": record.get("seq"),
            "head": record.get("head"),
            "signature": record.get("signature")}


def verify_records(records,
                   require_checkpoint: bool = True) -> dict:
    """Verify a full record list (header first); returns summary
    stats or raises :class:`AuditVerificationError` with a one-line
    message on the first inconsistency.

    Every record is re-hashed against the running head, sequence
    numbers must be contiguous, and every checkpoint signature must
    verify under the header's public key — so any flipped bit,
    dropped record, or reordered pair breaks exactly one of those
    invariants.
    """
    from ..crypto import ed25519
    records = list(records)
    if not records:
        raise AuditVerificationError("empty ledger")
    header = records[0]
    if not isinstance(header, dict) or header.get("type") != "header":
        raise AuditVerificationError("record 0: not a ledger header")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise AuditVerificationError(
            f"unsupported schema_version "
            f"{header.get('schema_version')!r}")
    try:
        public = bytes.fromhex(header.get("public_key", ""))
    except ValueError:
        raise AuditVerificationError("header: malformed public key")
    header_body = {"type": "header",
                   "schema_version": header.get("schema_version"),
                   "name": header.get("name"),
                   "public_key": header.get("public_key")}
    head = chain_hash(GENESIS, header_body)
    seq = 0
    checkpoints = 0
    by_subsystem = {}
    by_severity = {}
    detections = {}
    last_type = "header"
    for index, record in enumerate(records[1:], 1):
        kind = record.get("type") if isinstance(record, dict) else None
        if kind == "event":
            if record.get("seq") != seq:
                raise AuditVerificationError(
                    f"record {index}: sequence break (got "
                    f"{record.get('seq')!r}, want {seq})")
            if record.get("prev") != head:
                raise AuditVerificationError(
                    f"record {index}: chain break at seq {seq}")
            if chain_hash(head, _event_body(record)) \
                    != record.get("hash"):
                raise AuditVerificationError(
                    f"record {index}: hash mismatch at seq {seq}")
            head = record["hash"]
            seq += 1
            subsystem = str(record.get("subsystem"))
            severity = str(record.get("severity"))
            bucket = by_subsystem.setdefault(subsystem, {})
            bucket[severity] = bucket.get(severity, 0) + 1
            by_severity[severity] = by_severity.get(severity, 0) + 1
            if subsystem == "obs.detect":
                detector = str((record.get("detail") or {})
                               .get("detector", "unknown"))
                detections[detector] = detections.get(detector, 0) + 1
        elif kind == "checkpoint":
            if record.get("seq") != seq:
                raise AuditVerificationError(
                    f"record {index}: checkpoint sequence mismatch "
                    f"(got {record.get('seq')!r}, want {seq})")
            if record.get("head") != head:
                raise AuditVerificationError(
                    f"record {index}: checkpoint head mismatch at "
                    f"seq {seq}")
            if record.get("prev") != head:
                raise AuditVerificationError(
                    f"record {index}: chain break at checkpoint "
                    f"seq {seq}")
            if chain_hash(head, _checkpoint_body(record)) \
                    != record.get("hash"):
                raise AuditVerificationError(
                    f"record {index}: checkpoint hash mismatch at "
                    f"seq {seq}")
            try:
                signature = bytes.fromhex(
                    record.get("signature", ""))
            except ValueError:
                raise AuditVerificationError(
                    f"record {index}: malformed checkpoint signature")
            if not ed25519.verify(
                    public, _checkpoint_message(record["head"], seq),
                    signature):
                raise AuditVerificationError(
                    f"record {index}: checkpoint signature invalid "
                    f"at seq {seq}")
            head = record["hash"]
            checkpoints += 1
        else:
            raise AuditVerificationError(
                f"record {index}: unknown record type {kind!r}")
        last_type = kind
    if require_checkpoint and last_type != "checkpoint":
        raise AuditVerificationError(
            "ledger does not end with a signed checkpoint")
    return {"events": seq, "checkpoints": checkpoints, "head": head,
            "by_subsystem": by_subsystem, "by_severity": by_severity,
            "detections": detections}


def load_ledger_records(path) -> list:
    """Parse a JSONL ledger artifact into a record list; malformed
    lines raise :class:`AuditVerificationError` (one line, no
    traceback — the report-script contract)."""
    try:
        text = pathlib.Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        # A flipped high bit can take the artifact out of UTF-8
        # entirely; that is still a tamper, not a traceback.
        raise AuditVerificationError("ledger is not valid UTF-8 text")
    # Strict framing: exactly one record per "\n"-terminated line.
    # splitlines() would also break on \x0b/\x85/… and silently drop
    # a corrupted trailing newline, hiding single-byte tampers.
    if not text.endswith("\n"):
        raise AuditVerificationError(
            "ledger does not end with a newline")
    records = []
    for number, line in enumerate(text[:-1].split("\n"), 1):
        try:
            record = json.loads(line)
        except ValueError:
            raise AuditVerificationError(
                f"line {number}: malformed ledger record")
        if json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) != line:
            raise AuditVerificationError(
                f"line {number}: non-canonical ledger record")
        records.append(record)
    return records


def summarize_records(records) -> dict:
    """Unverified tallies of a record list (reports, exposition):
    events by subsystem and severity, detections by detector."""
    events = 0
    checkpoints = 0
    by_subsystem = {}
    by_severity = {}
    by_kind = {}
    detections = {}
    name = "audit"
    for record in records:
        if not isinstance(record, dict):
            continue
        kind = record.get("type")
        if kind == "header":
            name = str(record.get("name", name))
        elif kind == "checkpoint":
            checkpoints += 1
        elif kind == "event":
            events += 1
            subsystem = str(record.get("subsystem"))
            severity = str(record.get("severity"))
            bucket = by_subsystem.setdefault(subsystem, {})
            bucket[severity] = bucket.get(severity, 0) + 1
            by_severity[severity] = by_severity.get(severity, 0) + 1
            event_kind = str(record.get("kind"))
            by_kind[event_kind] = by_kind.get(event_kind, 0) + 1
            if subsystem == "obs.detect":
                detector = str((record.get("detail") or {})
                               .get("detector", "unknown"))
                detections[detector] = detections.get(detector, 0) + 1
    return {"schema_version": SCHEMA_VERSION, "name": name,
            "events": events, "checkpoints": checkpoints,
            "by_subsystem": by_subsystem, "by_severity": by_severity,
            "by_kind": by_kind, "detections": detections}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_AUDIT", "") not in ("", "0", "off",
                                                     "false")


#: The process-global ledger every hook site consults.
AUDIT = AuditLedger(enabled=_env_enabled())


def get_audit() -> AuditLedger:
    return AUDIT
