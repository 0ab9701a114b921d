"""SHA-3 and SHAKE (FIPS 202) for the simulator, backed by ``hashlib``.

The CONVOLVE paper (Section III-A/III-B) uses Keccak both as a hardware
accelerator target (it is a subroutine of BIKE and CRYSTALS-Dilithium) and
as the measurement hash of the Keystone security monitor.  This module is
the one production path used by the TEE substrate (:mod:`repro.tee`),
ML-DSA (:mod:`repro.crypto.mldsa`), ML-KEM, the KDF and Ed25519: CPython's
C implementation of FIPS 202, always present on Python >= 3.6.

The from-scratch Keccak-f[1600] permutation and sponge live in
``tests/reference/keccak.py`` as the test oracle; the suite pins them
byte-identical to ``hashlib`` on KATs and hypothesis inputs.
"""

import hashlib


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 digest of ``data`` (32 bytes)."""
    return hashlib.sha3_256(data).digest()


def sha3_512(data: bytes) -> bytes:
    """SHA3-512 digest of ``data`` (64 bytes)."""
    return hashlib.sha3_512(data).digest()


def shake128(data: bytes, out_len: int) -> bytes:
    """SHAKE128 extendable-output function."""
    return hashlib.shake_128(data).digest(out_len)


def shake256(data: bytes, out_len: int) -> bytes:
    """SHAKE256 extendable-output function."""
    return hashlib.shake_256(data).digest(out_len)


class _IncrementalXof:
    """Absorb-then-stream XOF over a ``hashlib`` SHAKE object.

    ``hashlib`` SHAKE objects only produce a prefix of the output
    stream, so the first :meth:`read` squeezes one rate block ahead into
    a buffer and later reads are served from it; a read past the end
    re-squeezes a prefix of at least twice the length.  Byte-at-a-time
    readers (SampleInBall) thus cost one ``digest()`` per challenge
    instead of one per byte.
    """

    _HASHLIB_NAME = None
    _RATE = None

    def __init__(self, data: bytes = b""):
        self._state = hashlib.new(self._HASHLIB_NAME, data)
        self._buffer = b""
        self._offset = 0
        self._reading = False

    def absorb(self, data: bytes):
        if self._reading:
            raise RuntimeError("cannot absorb after squeezing")
        self._state.update(data)
        return self

    def read(self, length: int) -> bytes:
        self._reading = True
        end = self._offset + length
        if end > len(self._buffer):
            size = max(self._RATE, 2 * len(self._buffer))
            while size < end:
                size *= 2
            self._buffer = self._state.digest(size)
        out = self._buffer[self._offset:end]
        self._offset = end
        return out


class Shake128(_IncrementalXof):
    """Incremental SHAKE128 (absorb-then-stream)."""

    _HASHLIB_NAME = "shake_128"
    _RATE = 168


class Shake256(_IncrementalXof):
    """Incremental SHAKE256 (absorb-then-stream)."""

    _HASHLIB_NAME = "shake_256"
    _RATE = 136
