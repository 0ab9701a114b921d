"""Keystone attestation reports, default and PQ-enabled formats.

The report proves to a remote verifier that (a) a specific security
monitor booted on a specific device and (b) a specific enclave runs
under that SM, optionally binding 1 KB of enclave-chosen data (e.g. a
key-exchange public key).

Layout of the default report (1320 bytes, Table III):

====================  =====  =========================================
field                 bytes  meaning
====================  =====  =========================================
enclave.hash             64  SHA3-512 measurement of the enclave
enclave.data_len          8  big-endian length of the bound data
enclave.data           1024  enclave-chosen payload (zero padded)
enclave.signature        64  Ed25519 by the SM attestation key
sm.hash                  64  SHA3-512 measurement of the SM
sm.public_key            32  SM Ed25519 attestation public key
sm.signature             64  Ed25519 by the *device* key
====================  =====  =========================================

The PQ-enabled report appends the hybrid material (7472 bytes total):
the SM's ML-DSA-44 public key (1312) and ML-DSA-44 signatures over the
enclave part (2420) and the SM part (2420).  Verification follows the
hybrid rule: *all* present signatures must verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import ed25519
from ..crypto.mldsa import ML_DSA_44, MLDSA, MLDSAParams

ENCLAVE_HASH_LEN = 64
SM_HASH_LEN = 64
MAX_DATA_LEN = 1024

DEFAULT_REPORT_LEN = (ENCLAVE_HASH_LEN + 8 + MAX_DATA_LEN + 64
                      + SM_HASH_LEN + 32 + 64)


def sm_certificate_payload(sm_hash: bytes, sm_ed25519_public: bytes,
                           sm_mldsa_public: bytes = b"") -> bytes:
    """The device-signed statement binding the SM measurement to the
    SM's attestation public keys.  Produced by the bootrom at boot and
    embedded (as ``sm.signature`` / ``sm.pq_signature``) in every
    attestation report."""
    return (b"keystone-sm-v1" + sm_hash + sm_ed25519_public
            + sm_mldsa_public)


def pq_report_len(params: MLDSAParams = ML_DSA_44) -> int:
    """Size of the PQ-enabled report for a given ML-DSA parameter set."""
    return (DEFAULT_REPORT_LEN + params.public_key_bytes
            + 2 * params.signature_bytes)


@dataclass
class AttestationReport:
    """A parsed attestation report (either format)."""

    enclave_hash: bytes
    enclave_data: bytes
    enclave_signature: bytes
    sm_hash: bytes
    sm_ed25519_public: bytes
    sm_signature: bytes
    # PQ-only fields; empty bytes in the default format.
    sm_mldsa_public: bytes = b""
    enclave_pq_signature: bytes = b""
    sm_pq_signature: bytes = b""

    @property
    def post_quantum(self) -> bool:
        return bool(self.sm_mldsa_public)

    # -- byte-level encoding ------------------------------------------

    def encode(self) -> bytes:
        if len(self.enclave_data) > MAX_DATA_LEN:
            raise ValueError("enclave data exceeds 1024 bytes")
        padded = self.enclave_data.ljust(MAX_DATA_LEN, b"\x00")
        body = (self.enclave_hash
                + len(self.enclave_data).to_bytes(8, "big")
                + padded
                + self.enclave_signature
                + self.sm_hash
                + self.sm_ed25519_public
                + self.sm_signature)
        if self.post_quantum:
            body += (self.sm_mldsa_public + self.enclave_pq_signature
                     + self.sm_pq_signature)
        return body

    @classmethod
    def decode(cls, data: bytes,
               params: MLDSAParams = ML_DSA_44) -> "AttestationReport":
        if len(data) not in (DEFAULT_REPORT_LEN, pq_report_len(params)):
            raise ValueError(
                f"report must be {DEFAULT_REPORT_LEN} or "
                f"{pq_report_len(params)} bytes, got {len(data)}")
        offset = 0

        def take(n):
            nonlocal offset
            chunk = data[offset:offset + n]
            offset += n
            return chunk

        enclave_hash = take(ENCLAVE_HASH_LEN)
        data_len = int.from_bytes(take(8), "big")
        if data_len > MAX_DATA_LEN:
            raise ValueError("declared data length exceeds 1024")
        padded = take(MAX_DATA_LEN)
        if any(padded[data_len:]):
            raise ValueError("nonzero padding after enclave data")
        report = cls(
            enclave_hash=enclave_hash,
            enclave_data=padded[:data_len],
            enclave_signature=take(64),
            sm_hash=take(SM_HASH_LEN),
            sm_ed25519_public=take(32),
            sm_signature=take(64),
        )
        if offset < len(data):
            report.sm_mldsa_public = take(params.public_key_bytes)
            report.enclave_pq_signature = take(params.signature_bytes)
            report.sm_pq_signature = take(params.signature_bytes)
        return report

    # -- signed payloads ------------------------------------------------

    def enclave_payload(self) -> bytes:
        """What the SM signs about the enclave."""
        return (b"keystone-enclave-v1" + self.enclave_hash
                + len(self.enclave_data).to_bytes(8, "big")
                + self.enclave_data)

    def sm_payload(self) -> bytes:
        """What the device key signs about the SM (binds *all* the SM's
        attestation public keys, classical and PQ)."""
        return sm_certificate_payload(self.sm_hash,
                                      self.sm_ed25519_public,
                                      self.sm_mldsa_public)


def verify_report(report: AttestationReport, device_identity: dict,
                  expected_enclave_hash: bytes = None,
                  expected_sm_hash: bytes = None,
                  params: MLDSAParams = ML_DSA_44) -> bool:
    """Full verifier-side chain check.

    ``device_identity`` is :meth:`repro.tee.device.Device.public_identity`
    output.  In the PQ format every signature (classical and PQ, on both
    report halves) must verify; a report claiming to be PQ while the
    verifier knows no device ML-DSA key fails closed.

    Measured boot is "measure and report", not "refuse to boot": the
    bootrom will happily certify a *modified* SM (it just measures
    differently), so a verifier that cares about SM integrity MUST pass
    ``expected_sm_hash`` — the signature chain alone only proves the
    report comes from *some* SM on the genuine device.
    """
    if expected_enclave_hash is not None and \
            report.enclave_hash != expected_enclave_hash:
        return False
    if expected_sm_hash is not None and \
            report.sm_hash != expected_sm_hash:
        return False
    if not ed25519.verify(device_identity["ed25519"], report.sm_payload(),
                          report.sm_signature):
        return False
    if not ed25519.verify(report.sm_ed25519_public,
                          report.enclave_payload(),
                          report.enclave_signature):
        return False
    if report.post_quantum:
        device_pq = device_identity.get("mldsa")
        if device_pq is None:
            return False
        # Cached verifier contexts: the NTT-domain key expansion for
        # the device and SM keys is paid once per key, not per report.
        scheme = MLDSA(params)
        try:
            device_verifier = scheme.verifier(device_pq)
        except ValueError:
            return False
        if not device_verifier.verify(report.sm_payload(),
                                      report.sm_pq_signature):
            return False
        try:
            sm_verifier = scheme.verifier(report.sm_mldsa_public)
        except ValueError:
            return False
        if not sm_verifier.verify(report.enclave_payload(),
                                  report.enclave_pq_signature):
            return False
    return True


def verify_reports(reports, device_identity,
                   expected_enclave_hash: bytes = None,
                   expected_sm_hash: bytes = None,
                   params: MLDSAParams = ML_DSA_44) -> list:
    """Batch :func:`verify_report`: entry *i* equals
    ``verify_report(reports[i], ...)``.

    ``device_identity`` is either ONE identity dict applied to every
    report, or a sequence of identity dicts pairing up with ``reports``
    — the attestation-service shape, where one flushed micro-batch
    mixes reports from many devices.

    The classical signatures of every candidate report (two per report)
    go through one Ed25519 random-linear-combination batch check, and
    the ML-DSA signatures of the reports that pass it through two
    cross-key ``verify_many`` calls: every device signature in one,
    then the SM signatures of the reports whose device signature held
    in the other.  Results are boolean-identical to the scalar loop;
    per-scheme PERF counters can differ because the batch path does not
    short-circuit after a failed earlier check, but the ``crypto.mldsa.*``
    totals equal those of one ``verify_many`` call per key.
    """
    reports = list(reports)
    if isinstance(device_identity, dict):
        identities = [device_identity] * len(reports)
    else:
        identities = list(device_identity)
        if len(identities) != len(reports):
            raise ValueError("one device identity per report required, "
                             f"got {len(identities)} identities for "
                             f"{len(reports)} reports")
    results = [False] * len(reports)
    candidates = []
    for i, report in enumerate(reports):
        if expected_enclave_hash is not None and \
                report.enclave_hash != expected_enclave_hash:
            continue
        if expected_sm_hash is not None and \
                report.sm_hash != expected_sm_hash:
            continue
        if report.post_quantum and identities[i].get("mldsa") is None:
            continue
        candidates.append(i)
    if not candidates:
        return results
    items = []
    for i in candidates:
        report = reports[i]
        items.append((identities[i]["ed25519"], report.sm_payload(),
                      report.sm_signature))
        items.append((report.sm_ed25519_public,
                      report.enclave_payload(),
                      report.enclave_signature))
    classical_ok = ed25519.verify_batch(items)
    candidates = [i for j, i in enumerate(candidates)
                  if classical_ok[2 * j] and classical_ok[2 * j + 1]]
    pq = [i for i in candidates if reports[i].post_quantum]
    for i in candidates:
        if not reports[i].post_quantum:
            results[i] = True
    if pq:
        # Two stacked ML-DSA passes whatever the key mix: the device
        # stage, then the SM stage for the lanes the device signed (so
        # an SM context is only built for a key its device certified).
        # Arguments stay positional: the perfbench ledger wraps
        # ``MLDSA.verify_many`` and counts lanes by argument position.
        scheme = MLDSA(params)
        device_ok = scheme.verify_many(
            [identities[i]["mldsa"] for i in pq],
            [reports[i].sm_payload() for i in pq],
            [reports[i].sm_pq_signature for i in pq])
        passed = [i for i, ok in zip(pq, device_ok) if ok]
        if passed:
            enclave_ok = scheme.verify_many(
                [reports[i].sm_mldsa_public for i in passed],
                [reports[i].enclave_payload() for i in passed],
                [reports[i].enclave_pq_signature for i in passed])
            for i, ok in zip(passed, enclave_ok):
                results[i] = ok
    return results
