"""From-scratch Keccak-f[1600] sponge, SHA-3 and SHAKE (FIPS 202).

The test oracle for :mod:`repro.crypto.keccak`, whose production path
is ``hashlib``.  The permutation is the readable loop form (theta, rho,
pi, chi, iota over a flat 25-lane list); the sponge absorbs and
squeezes whole rate-sized blocks via ``struct``.  ``tests/test_keccak.py``
pins every function here byte-identical to ``hashlib``.
"""

import struct

_MASK64 = (1 << 64) - 1

#: Round constants for the iota step of Keccak-f[1600].
ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _rho_offsets() -> tuple:
    """Compute the FIPS 202 rho rotation offsets, indexed ``[x][y]``.

    Derived from the defining recurrence: starting at lane (1, 0), step t
    rotates by (t+1)(t+2)/2 and moves to (y, 2x + 3y mod 5).
    """
    offsets = [[0] * 5 for _ in range(5)]
    x, y = 1, 0
    for t in range(24):
        offsets[x][y] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return tuple(tuple(row) for row in offsets)


#: FIPS 202 rho-step rotation offsets, indexed ``[x][y]``.
ROTATION_OFFSETS = _rho_offsets()


def _rotl64(value: int, shift: int) -> int:
    """Rotate a 64-bit lane left by ``shift`` bits."""
    shift %= 64
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _MASK64


def keccak_f1600_reference(lanes: list) -> list:
    """Apply the Keccak-f[1600] permutation to 25 lanes (5x5, row-major x).

    ``lanes`` is a flat list of 25 integers where lane ``(x, y)`` lives at
    index ``x + 5 * y``.  A new list is returned; the input is not mutated.
    """
    a = list(lanes)
    for rc in ROUND_CONSTANTS:
        # theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]
             for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl64(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] ^= d[x]
        # rho and pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                nx, ny = y, (2 * x + 3 * y) % 5
                b[nx + 5 * ny] = _rotl64(a[x + 5 * y],
                                         ROTATION_OFFSETS[x][y])
        # chi
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] = b[x + 5 * y] ^ (
                    (~b[(x + 1) % 5 + 5 * y] & _MASK64)
                    & b[(x + 2) % 5 + 5 * y])
        # iota
        a[0] ^= rc
    return a


class KeccakSponge:
    """Incremental Keccak sponge with a lane-aligned rate.

    Parameters
    ----------
    rate_bytes:
        Sponge rate in bytes (block size); capacity is ``200 - rate``.
        Must be a multiple of 8, as every FIPS 202 rate is, so each
        block XORs into whole lanes.
    domain_suffix:
        Padding domain-separation byte (``0x06`` for SHA-3, ``0x1F`` for
        SHAKE, ``0x01`` for original Keccak).
    """

    def __init__(self, rate_bytes: int, domain_suffix: int):
        if not 0 < rate_bytes < 200:
            raise ValueError(f"rate must be in (0, 200), got {rate_bytes}")
        if rate_bytes % 8:
            raise ValueError(
                f"rate must be a multiple of 8 bytes, got {rate_bytes}")
        self.rate_bytes = rate_bytes
        self.domain_suffix = domain_suffix
        self._lanes = [0] * 25
        self._buffer = bytearray()
        self._squeezing = False
        self._squeeze_offset = 0

    def absorb(self, data: bytes) -> "KeccakSponge":
        """Absorb ``data`` into the sponge; chainable."""
        if self._squeezing:
            raise RuntimeError("cannot absorb after squeezing has begun")
        buffer = self._buffer
        buffer.extend(data)
        rate = self.rate_bytes
        if len(buffer) >= rate:
            blocks = len(buffer) // rate
            chunk = bytes(buffer[:blocks * rate])
            del buffer[:blocks * rate]
            self._absorb_blocks(chunk)
        return self

    def _absorb_blocks(self, chunk: bytes) -> None:
        """XOR-and-permute whole rate-sized blocks (``chunk`` is a
        multiple of the rate)."""
        rate = self.rate_bytes
        lanes_per_block = rate // 8
        fmt = f"<{lanes_per_block}Q"
        lanes = self._lanes
        for offset in range(0, len(chunk), rate):
            words = struct.unpack_from(fmt, chunk, offset)
            for i in range(lanes_per_block):
                lanes[i] ^= words[i]
            lanes = keccak_f1600_reference(lanes)
        self._lanes = lanes

    def _pad(self) -> None:
        pad_len = self.rate_bytes - (len(self._buffer) % self.rate_bytes)
        padding = bytearray(pad_len)
        padding[0] = self.domain_suffix
        padding[-1] ^= 0x80
        self._buffer.extend(padding)
        chunk = bytes(self._buffer)
        del self._buffer[:]
        self._absorb_blocks(chunk)

    def _serialize_rate(self) -> bytes:
        """The rate-sized prefix of the state as bytes (one output
        block of the squeezing phase)."""
        lanes_per_block = self.rate_bytes // 8
        return struct.pack(f"<{lanes_per_block}Q",
                           *self._lanes[:lanes_per_block])

    def squeeze(self, length: int) -> bytes:
        """Squeeze ``length`` output bytes; may be called repeatedly."""
        if not self._squeezing:
            self._pad()
            self._squeezing = True
            self._squeeze_offset = 0
            self._block = self._serialize_rate()
        out = bytearray()
        rate = self.rate_bytes
        while len(out) < length:
            if self._squeeze_offset == rate:
                self._lanes = keccak_f1600_reference(self._lanes)
                self._block = self._serialize_rate()
                self._squeeze_offset = 0
            take = min(length - len(out), rate - self._squeeze_offset)
            out.extend(self._block[self._squeeze_offset:
                                   self._squeeze_offset + take])
            self._squeeze_offset += take
        return bytes(out)


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 via the from-scratch sponge (32 bytes)."""
    return KeccakSponge(136, domain_suffix=0x06).absorb(data).squeeze(32)


def sha3_512(data: bytes) -> bytes:
    """SHA3-512 via the from-scratch sponge (64 bytes)."""
    return KeccakSponge(72, domain_suffix=0x06).absorb(data).squeeze(64)


def shake128(data: bytes, out_len: int) -> bytes:
    """SHAKE128 via the from-scratch sponge."""
    return KeccakSponge(168, domain_suffix=0x1F).absorb(data).squeeze(out_len)


def shake256(data: bytes, out_len: int) -> bytes:
    """SHAKE256 via the from-scratch sponge."""
    return KeccakSponge(136, domain_suffix=0x1F).absorb(data).squeeze(out_len)
