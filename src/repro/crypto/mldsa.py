"""Pure-Python ML-DSA (FIPS 204, a.k.a. CRYSTALS-Dilithium).

The CONVOLVE post-quantum TEE (paper Section III-B, Table III) adds
ML-DSA-44 next to Ed25519 for measured boot, attestation-report signing
and sealing-key derivation.  This module implements the full standard from
scratch: NTT arithmetic over Z_q[x]/(x^256+1), rejection sampling,
hint-based signature compression and all bit-packed encodings.  All three
parameter sets are provided; the TEE uses :data:`ML_DSA_44`.

The deterministic signing variant is the default (``rnd`` = 32 zero
bytes), matching what an enclave without a DRBG would use.

Two practical observations from the paper are modelled faithfully:

* the private key can be stored as a 32-byte seed and regenerated at boot
  (:func:`MLDSA.key_gen` is deterministic in the seed), and
* signing needs far more working memory than Ed25519 — the
  :attr:`MLDSA.signing_stack_bytes` estimate drives the security-monitor
  stack sizing experiment (8 KB default corrupts, 128 KB suffices).

The signing/verification hot loops run on exact int64 numpy kernels
(batched NTTs, pointwise products and decompositions mod q); every
intermediate fits in 64 bits, so they are bit-identical to the scalar
loop forms kept as test oracles in ``tests/reference/mldsa.py`` and
pinned by the parity suite in ``tests/test_crypto_fastpaths.py``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from ..obs import TELEMETRY
from ..obs.perf import PERF
from ..runtime.memo import Memo
from .keccak import Shake128, Shake256, shake256

Q = 8380417
N = 256
ZETA = 1753
D = 13


def _bitrev8(value: int) -> int:
    result = 0
    for _ in range(8):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


#: zeta^bitrev8(k) mod q, the butterfly twiddles in standard NTT order.
ZETAS = tuple(pow(ZETA, _bitrev8(k), Q) for k in range(N))

_INV_256 = pow(N, Q - 2, Q)


def _butterfly_layers(inverse: bool) -> tuple:
    """Per-layer flat butterfly schedules ``(j, j + length, twiddle)``.

    Precomputing the index pairs and the (negated, for the inverse)
    twiddle per butterfly turns each transform layer into one flat loop
    over local tuples — no block bookkeeping on the hot path.
    """
    layers = []
    if not inverse:
        k = 0
        length = 128
        while length >= 1:
            pairs = []
            for start in range(0, N, 2 * length):
                k += 1
                zeta = ZETAS[k]
                pairs.extend((j, j + length, zeta)
                             for j in range(start, start + length))
            layers.append(tuple(pairs))
            length //= 2
    else:
        k = N
        length = 1
        while length < N:
            pairs = []
            for start in range(0, N, 2 * length):
                k -= 1
                neg_zeta = Q - ZETAS[k]
                pairs.extend((j, j + length, neg_zeta)
                             for j in range(start, start + length))
            layers.append(tuple(pairs))
            length *= 2
    return tuple(layers)


_NTT_LAYERS = _butterfly_layers(inverse=False)
_INTT_LAYERS = _butterfly_layers(inverse=True)


def _ntt_raw(coeffs: list) -> list:
    """Lazy-reduction forward NTT (uncounted core).

    Only the twiddle product is reduced per butterfly; sums and
    differences stay unreduced across all eight layers (bounded by
    ``9q``, far below anything Python's bignums care about) and one
    final pass normalizes into [0, q).  Butterfly indices and twiddles
    come from the precomputed :data:`_NTT_LAYERS` schedule.
    Bit-identical to the fully reduced schoolbook transform in
    ``tests/reference/mldsa.py``.
    """
    a = list(coeffs)
    for pairs in _NTT_LAYERS:
        for j, jl, zeta in pairs:
            t = zeta * a[jl] % Q
            aj = a[j]
            a[jl] = aj - t
            a[j] = aj + t
    return [x % Q for x in a]


def _intt_raw(coeffs: list) -> list:
    """Lazy-reduction inverse NTT (uncounted core).

    Accepts *unreduced* coefficient sums (the matrix rows accumulate
    ``l`` coefficient products without intermediate reduction); sums
    double per layer but stay small integers.  Bit-identical to the
    reference inverse transform on reduced input, and congruent mod q
    on unreduced input.
    """
    a = list(coeffs)
    for pairs in _INTT_LAYERS:
        for j, jl, neg_zeta in pairs:
            t = a[j]
            u = a[jl]
            a[j] = t + u
            a[jl] = (t - u) * neg_zeta % Q
    return [x * _INV_256 % Q for x in a]


def ntt(coeffs: list) -> list:
    """Forward number-theoretic transform (in standard FIPS 204 order)."""
    if PERF.enabled:
        PERF.inc("crypto.mldsa.ntt_calls")
    return _ntt_raw(coeffs)


def intt(coeffs: list) -> list:
    """Inverse NTT, returning coefficients in [0, q)."""
    if PERF.enabled:
        PERF.inc("crypto.mldsa.ntt_calls")
    return _intt_raw(coeffs)


def ntt_mul(a: list, b: list) -> list:
    """Coefficient-wise product of two NTT-domain polynomials."""
    return [x * y % Q for x, y in zip(a, b)]


def poly_add(a: list, b: list) -> list:
    return [(x + y) % Q for x, y in zip(a, b)]


def poly_sub(a: list, b: list) -> list:
    return [(x - y) % Q for x, y in zip(a, b)]


def centered(value: int, modulus: int = Q) -> int:
    """Map ``value mod modulus`` into (-modulus/2, modulus/2]."""
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


def infinity_norm(poly_or_vec) -> int:
    """Max |coefficient| after centering mod q (vector of polys or poly)."""
    if poly_or_vec and isinstance(poly_or_vec[0], list):
        return max(infinity_norm(p) for p in poly_or_vec)
    return max(abs(centered(c)) for c in poly_or_vec)


def power2round(value: int) -> tuple:
    """Split ``value`` (mod q) into (r1, r0) with r = r1*2^d + r0."""
    value %= Q
    r0 = centered(value, 1 << D)
    return (value - r0) >> D, r0


def decompose(value: int, gamma2: int) -> tuple:
    """FIPS 204 Decompose: r = r1*(2*gamma2) + r0 with the q-1 wraparound."""
    value %= Q
    r0 = centered(value, 2 * gamma2)
    if value - r0 == Q - 1:
        return 0, r0 - 1
    return (value - r0) // (2 * gamma2), r0


def high_bits(value: int, gamma2: int) -> int:
    return decompose(value, gamma2)[0]


def low_bits(value: int, gamma2: int) -> int:
    return decompose(value, gamma2)[1]


def _high_bits_poly(poly: list, gamma2: int) -> list:
    """``[high_bits(c, gamma2) for c in poly]`` without per-coefficient
    call overhead (coefficients must already be reduced mod q)."""
    g = 2 * gamma2
    top = Q - 1
    out = []
    append = out.append
    for v in poly:
        r0 = v % g
        if r0 > gamma2:
            r0 -= g
        hi = v - r0
        append(0 if hi == top else hi // g)
    return out


def _low_bits_max(vecs: list, gamma2: int) -> int:
    """``max(abs(low_bits(c, gamma2)))`` over a vector of reduced
    polynomials, inlined (the signing rejection loop's hot check)."""
    g = 2 * gamma2
    top = Q - 1
    best = 0
    for poly in vecs:
        for v in poly:
            r0 = v % g
            if r0 > gamma2:
                r0 -= g
            if v - r0 == top:
                r0 -= 1
            if r0 < 0:
                r0 = -r0
            if r0 > best:
                best = r0
    return best


# ---------------------------------------------------------------------------
# Vectorized kernels (the signing/verification hot loop).
#
# Exact int64 arithmetic mod q: the largest intermediate is an l-term sum
# of coefficient products (< 8 * q^2 < 2^49), so nothing overflows and the
# batched forms are bit-identical to the scalar helpers above — the parity
# suite pins both.  Counter semantics are preserved: the batch wrappers
# tick ``crypto.mldsa.ntt_calls`` once per transformed row, exactly what
# the per-poly scalar path used to record.


def _np_layer_zetas() -> tuple:
    """Per-layer ``(length, twiddle column)`` schedules for the batched
    transforms, in the same :data:`ZETAS` order as the scalar loops."""
    fwd = []
    k = 0
    length = 128
    while length >= 1:
        blocks = N // (2 * length)
        fwd.append((length, np.array(
            [ZETAS[k + b + 1] for b in range(blocks)],
            dtype=np.int64)[:, None]))
        k += blocks
        length //= 2
    inv = []
    k = N
    length = 1
    while length < N:
        blocks = N // (2 * length)
        inv.append((length, np.array(
            [Q - ZETAS[k - b - 1] for b in range(blocks)],
            dtype=np.int64)[:, None]))
        k -= blocks
        length *= 2
    return tuple(fwd), tuple(inv)


_NP_NTT_LAYERS, _NP_INTT_LAYERS = _np_layer_zetas()


def _ntt_np(arr: np.ndarray) -> np.ndarray:
    """Forward NTT of a ``(rows, 256)`` int64 batch, reduced mod q.

    Lazy reduction, like the scalar :func:`_ntt_raw`: only the twiddle
    product is reduced per layer, sums and differences stay unreduced
    (bounded by 9q, products by 9q^2 < 2^50 — exact in int64) and one
    final pass normalizes into [0, q).  Butterflies update one copy of
    the input in place, so a layer allocates one half-size temporary.
    """
    out = arr % Q
    rows = out.shape[0]
    for length, zetas in _NP_NTT_LAYERS:
        v = out.reshape(rows, -1, 2, length)
        lo = v[:, :, 0, :]
        hi = v[:, :, 1, :]
        t = hi * zetas
        t %= Q
        np.subtract(lo, t, out=hi)
        lo += t
    out %= Q
    return out


def _intt_np(arr: np.ndarray) -> np.ndarray:
    """Inverse NTT of a ``(rows, 256)`` int64 batch; accepts unreduced
    (even negative) input and returns coefficients in [0, q).

    Lazy reduction, like the scalar :func:`_intt_raw`: sums double per
    layer (bounded by 256q after eight layers, twiddle products by
    512q^2 < 2^56 — exact in int64), with one reduction per layer on
    the twiddled half and a final normalization, in place on one copy
    of the input.
    """
    out = arr % Q
    rows = out.shape[0]
    for length, zetas in _NP_INTT_LAYERS:
        v = out.reshape(rows, -1, 2, length)
        lo = v[:, :, 0, :]
        hi = v[:, :, 1, :]
        diff = lo - hi
        lo += hi
        diff *= zetas
        np.remainder(diff, Q, out=hi)
    out *= _INV_256
    out %= Q
    return out


def _ntt_batch(arr: np.ndarray) -> np.ndarray:
    """Counted :func:`_ntt_np` — one ntt_calls tick per row."""
    if PERF.enabled:
        PERF.inc("crypto.mldsa.ntt_calls", arr.shape[0])
    return _ntt_np(arr)


def _intt_batch(arr: np.ndarray) -> np.ndarray:
    """Counted :func:`_intt_np` — one ntt_calls tick per row."""
    if PERF.enabled:
        PERF.inc("crypto.mldsa.ntt_calls", arr.shape[0])
    return _intt_np(arr)


def _high_bits_np(arr: np.ndarray, gamma2: int) -> np.ndarray:
    """Vectorized :func:`high_bits` (input reduced mod q)."""
    g = 2 * gamma2
    hi = arr % g
    hi[hi > gamma2] -= g
    np.subtract(arr, hi, out=hi)
    top = hi == Q - 1
    hi //= g
    hi[top] = 0
    return hi


def _low_bits_max_np(arr: np.ndarray, gamma2: int) -> int:
    """Vectorized :func:`_low_bits_max` (input reduced mod q)."""
    g = 2 * gamma2
    r0 = arr % g
    r0 = np.where(r0 > gamma2, r0 - g, r0)
    r0 = np.where(arr - r0 == Q - 1, r0 - 1, r0)
    return int(np.abs(r0).max())


def _inf_norm_np(arr: np.ndarray) -> int:
    """Vectorized :func:`infinity_norm` (input reduced mod q)."""
    return int(np.where(arr > Q // 2, Q - arr, arr).max())


def _inf_norm_rows_np(arr: np.ndarray) -> np.ndarray:
    """Per-lane infinity norm of a ``(lanes, ...)`` batch reduced mod q."""
    lanes = arr.shape[0]
    return np.where(arr > Q // 2, Q - arr, arr).reshape(lanes, -1).max(axis=1)


def _low_bits_np(arr: np.ndarray, gamma2: int) -> np.ndarray:
    """Vectorized :func:`low_bits` (input reduced mod q)."""
    g = 2 * gamma2
    r0 = arr % g
    r0 = np.where(r0 > gamma2, r0 - g, r0)
    return np.where(arr - r0 == Q - 1, r0 - 1, r0)


def make_hint(z: int, r: int, gamma2: int) -> int:
    """1 iff adding ``z`` to ``r`` changes the high bits."""
    return int(high_bits(r, gamma2) != high_bits((r + z) % Q, gamma2))


def use_hint(hint: int, r: int, gamma2: int) -> int:
    """Recover the high bits of ``r + z`` from ``r`` and the hint bit."""
    m = (Q - 1) // (2 * gamma2)
    r1, r0 = decompose(r, gamma2)
    if hint == 0:
        return r1
    if r0 > 0:
        return (r1 + 1) % m
    return (r1 - 1) % m


# ---------------------------------------------------------------------------
# Bit packing


def bits_for(value: int) -> int:
    return value.bit_length()


def simple_bit_pack(coeffs: list, b: int) -> bytes:
    """Pack coefficients in [0, b] using bitlen(b) bits each."""
    width = bits_for(b)
    acc = 0
    acc_bits = 0
    out = bytearray()
    for c in coeffs:
        acc |= c << acc_bits
        acc_bits += width
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def simple_bit_unpack(data: bytes, b: int) -> list:
    width = bits_for(b)
    total = int.from_bytes(data, "little")
    mask = (1 << width) - 1
    return [(total >> (width * i)) & mask for i in range(N)]


def bit_pack(coeffs: list, a: int, b: int) -> bytes:
    """Pack centered coefficients in [-a, b] as b - c in bitlen(a+b) bits."""
    return simple_bit_pack([b - centered(c) for c in coeffs], a + b)


def bit_unpack(data: bytes, a: int, b: int) -> list:
    """Inverse of :func:`bit_pack`; coefficients returned mod q."""
    return [(b - z) % Q for z in simple_bit_unpack(data, a + b)]


# Vectorized packing.  FIPS 204 packs little-endian, so every group of
# 8 coefficients of ``width`` bits fills exactly ``width`` bytes, and
# coefficient ``j`` of a group sits at bit ``j * width`` of it: inside a
# 4-byte window that starts at byte ``j * width // 8`` (widths up to
# 25 bits).  The kernels below move whole byte windows, in uint8 and
# uint32, rather than one int64 per bit.  Each polynomial occupies a
# whole number of groups, so packing a flattened multi-poly batch is
# byte-identical to concatenating the per-poly scalar packs above — the
# parity suite pins both for every width in use.


@functools.lru_cache(maxsize=None)
def _group_layout(width: int) -> tuple:
    """Byte windows of one 8-coefficient group: per coefficient the
    window's first byte and bit shift, and per output byte the (padded
    with 32) ``coefficient * 4 + window byte`` pieces that land in it."""
    if not 1 <= width <= 25:
        raise ValueError(f"bit width {width} outside 1..25")
    starts = np.array([j * width // 8 for j in range(8)])
    shifts = np.array([j * width % 8 for j in range(8)], dtype=np.uint32)
    pieces = [[] for _ in range(width)]
    for j in range(8):
        for b in range(4):
            if starts[j] + b < width:
                pieces[starts[j] + b].append(4 * j + b)
    depth = max(len(row) for row in pieces)
    gather = np.array([row + [32] * (depth - len(row)) for row in pieces])
    return starts[:, None] + np.arange(4), shifts, gather


def _simple_bit_pack_np(arr: np.ndarray, width: int) -> np.ndarray:
    """:func:`simple_bit_pack` rows of a ``(rows, n)`` batch of values
    < 2^width; returns ``(rows, n*width/8)`` uint8."""
    rows = arr.shape[0]
    _, shifts, gather = _group_layout(width)
    groups = arr.astype(np.uint32).reshape(-1, 8)
    groups <<= shifts
    # Piece 4*j + byte is byte ``byte`` of coefficient j's window.
    pieces = np.zeros((groups.shape[0], 33), dtype=np.uint8)
    for byte in range(4):
        pieces[:, byte:32:4] = groups >> (8 * byte)
    return np.bitwise_or.reduce(pieces[:, gather], axis=2) \
        .reshape(rows, -1)


def _bit_pack_np(arr: np.ndarray, a: int, b: int) -> np.ndarray:
    """:func:`bit_pack` rows of a ``(rows, n)`` batch reduced mod q."""
    cent = np.where(arr > Q // 2, arr - Q, arr)
    return _simple_bit_pack_np(b - cent, bits_for(a + b))


def _bit_unpack_np(data: bytes, rows: int, width: int, b: int) -> np.ndarray:
    """:func:`bit_unpack` of ``rows`` concatenated 32*width-byte blocks
    into a ``(rows, 256)`` int64 batch (coefficients mod q)."""
    windows, shifts, _ = _group_layout(width)
    groups = np.zeros((rows * N // 8, width + 3), dtype=np.uint8)
    groups[:, :width] = np.frombuffer(data, dtype=np.uint8) \
        .reshape(-1, width)
    window = groups[:, windows]
    words = window[:, :, 0].astype(np.uint32)
    for byte in (1, 2, 3):
        words |= window[:, :, byte].astype(np.uint32) << (8 * byte)
    words >>= shifts
    words &= (1 << width) - 1
    out = np.subtract(b, words.reshape(rows, N), dtype=np.int64)
    out %= Q
    return out


# ---------------------------------------------------------------------------
# Parameter sets


@dataclass(frozen=True)
class MLDSAParams:
    """One FIPS 204 parameter set."""

    name: str
    k: int
    l: int
    eta: int
    tau: int
    gamma1: int
    gamma2: int
    omega: int
    ctilde_bytes: int

    @property
    def beta(self) -> int:
        return self.tau * self.eta

    @property
    def z_bits(self) -> int:
        return 1 + bits_for(self.gamma1 - 1)

    @property
    def w1_bits(self) -> int:
        return bits_for((Q - 1) // (2 * self.gamma2) - 1)

    @property
    def eta_bits(self) -> int:
        return bits_for(2 * self.eta)

    @property
    def public_key_bytes(self) -> int:
        return 32 + 32 * self.k * (23 - D)

    @property
    def secret_key_bytes(self) -> int:
        return (128 + 32 * (self.k + self.l) * self.eta_bits
                + 32 * self.k * D)

    @property
    def signature_bytes(self) -> int:
        return (self.ctilde_bytes + 32 * self.l * self.z_bits
                + self.omega + self.k)


ML_DSA_44 = MLDSAParams("ML-DSA-44", k=4, l=4, eta=2, tau=39,
                        gamma1=1 << 17, gamma2=(Q - 1) // 88, omega=80,
                        ctilde_bytes=32)
ML_DSA_65 = MLDSAParams("ML-DSA-65", k=6, l=5, eta=4, tau=49,
                        gamma1=1 << 19, gamma2=(Q - 1) // 32, omega=55,
                        ctilde_bytes=48)
ML_DSA_87 = MLDSAParams("ML-DSA-87", k=8, l=7, eta=2, tau=60,
                        gamma1=1 << 19, gamma2=(Q - 1) // 32, omega=75,
                        ctilde_bytes=64)

PARAMETER_SETS = {p.name: p for p in (ML_DSA_44, ML_DSA_65, ML_DSA_87)}


# ---------------------------------------------------------------------------
# Sampling


def _rej_ntt_poly(seed: bytes) -> list:
    """Sample a uniform NTT-domain polynomial by 23-bit rejection."""
    xof = Shake128(seed)
    coeffs = []
    while len(coeffs) < N:
        chunk = xof.read(3 * 168)
        for i in range(0, len(chunk), 3):
            value = (chunk[i] | (chunk[i + 1] << 8)
                     | ((chunk[i + 2] & 0x7F) << 16))
            if value < Q:
                coeffs.append(value)
                if len(coeffs) == N:
                    break
    return coeffs


def _coeff_from_half_byte(z: int, eta: int):
    if eta == 2 and z < 15:
        return (2 - (z % 5)) % Q
    if eta == 4 and z < 9:
        return (4 - z) % Q
    return None


def _rej_bounded_poly(seed: bytes, eta: int) -> list:
    """Sample a polynomial with coefficients in [-eta, eta]."""
    xof = Shake256(seed)
    coeffs = []
    while len(coeffs) < N:
        for byte in xof.read(136):
            for z in (byte & 0x0F, byte >> 4):
                c = _coeff_from_half_byte(z, eta)
                if c is not None:
                    coeffs.append(c)
                    if len(coeffs) == N:
                        return coeffs
    return coeffs


def expand_a(rho: bytes, params: MLDSAParams) -> list:
    """ExpandA: the k x l public matrix, sampled in the NTT domain."""
    return [[_rej_ntt_poly(rho + bytes([s, r])) for s in range(params.l)]
            for r in range(params.k)]


def expand_s(rho_prime: bytes, params: MLDSAParams) -> tuple:
    """ExpandS: the short secret vectors (s1, s2)."""
    s1 = [_rej_bounded_poly(rho_prime + r.to_bytes(2, "little"), params.eta)
          for r in range(params.l)]
    s2 = [_rej_bounded_poly(rho_prime + r.to_bytes(2, "little"), params.eta)
          for r in range(params.l, params.l + params.k)]
    return s1, s2


def expand_mask(rho_pp: bytes, kappa: int, params: MLDSAParams) -> list:
    """ExpandMask: the per-attempt commitment mask vector y."""
    width = params.z_bits
    vec = []
    for r in range(params.l):
        seed = rho_pp + (kappa + r).to_bytes(2, "little")
        data = shake256(seed, 32 * width)
        vec.append(bit_unpack(data, params.gamma1 - 1, params.gamma1))
    return vec


def _expand_mask_np(rho_pp: bytes, kappa: int,
                    params: MLDSAParams) -> np.ndarray:
    """:func:`expand_mask` as an ``(l, 256)`` int64 batch: the same
    SHAKE stream, unpacked in one vectorized pass."""
    width = params.z_bits
    data = b"".join(
        shake256(rho_pp + (kappa + r).to_bytes(2, "little"), 32 * width)
        for r in range(params.l))
    return _bit_unpack_np(data, params.l, width, params.gamma1)


def sample_in_ball(seed: bytes, params: MLDSAParams) -> list:
    """SampleInBall: a polynomial with tau coefficients of +-1."""
    xof = Shake256(seed)
    signs = int.from_bytes(xof.read(8), "little")
    c = [0] * N
    for i in range(N - params.tau, N):
        while True:
            j = xof.read(1)[0]
            if j <= i:
                break
        c[i] = c[j]
        c[j] = (1 if signs & 1 == 0 else Q - 1)
        signs >>= 1
    return c


# ---------------------------------------------------------------------------
# Hint packing


def hint_bit_pack(hints: list, params: MLDSAParams) -> bytes:
    """HintBitPack: sparse encoding of k hint polynomials (omega+k bytes)."""
    out = bytearray(params.omega + params.k)
    index = 0
    for i, poly in enumerate(hints):
        for j, bit in enumerate(poly):
            if bit:
                out[index] = j
                index += 1
        out[params.omega + i] = index
    return bytes(out)


def _hint_positions(data, params: MLDSAParams):
    """Flat ``r * 256 + j`` positions of the set hint bits, in encoding
    order; None on malformed input (the :func:`hint_bit_unpack` rule:
    per-polynomial ends never decrease or pass omega, indices strictly
    increase within a polynomial, unused slots are zero)."""
    positions = []
    index = 0
    for i in range(params.k):
        end = data[params.omega + i]
        if end < index or end > params.omega:
            return None
        row = bytes(data[index:end])
        if any(a >= b for a, b in zip(row, row[1:])):
            return None
        positions += [i * N + j for j in row]
        index = end
    if any(data[index:params.omega]):
        return None
    return positions


def hint_bit_unpack(data: bytes, params: MLDSAParams):
    """Strict inverse of :func:`hint_bit_pack`; None on malformed input."""
    positions = _hint_positions(data, params)
    if positions is None:
        return None
    hints = [[0] * N for _ in range(params.k)]
    for position in positions:
        hints[position // N][position % N] = 1
    return hints


# ---------------------------------------------------------------------------
# Key/signature encodings


def pk_encode(rho: bytes, t1: list, params: MLDSAParams) -> bytes:
    packed = b"".join(simple_bit_pack(p, (1 << (23 - D)) - 1) for p in t1)
    return rho + packed


def pk_decode(data: bytes, params: MLDSAParams) -> tuple:
    if len(data) != params.public_key_bytes:
        raise ValueError(f"{params.name} public key must be "
                         f"{params.public_key_bytes} bytes")
    rho = data[:32]
    per_poly = 32 * (23 - D)
    t1 = []
    for i in range(params.k):
        chunk = data[32 + per_poly * i:32 + per_poly * (i + 1)]
        t1.append(simple_bit_unpack(chunk, (1 << (23 - D)) - 1))
    return rho, t1


def sk_encode(rho: bytes, key: bytes, tr: bytes, s1: list, s2: list,
              t0: list, params: MLDSAParams) -> bytes:
    parts = [rho, key, tr]
    parts += [bit_pack(p, params.eta, params.eta) for p in s1]
    parts += [bit_pack(p, params.eta, params.eta) for p in s2]
    parts += [bit_pack(p, (1 << (D - 1)) - 1, 1 << (D - 1)) for p in t0]
    return b"".join(parts)


def sk_decode(data: bytes, params: MLDSAParams) -> tuple:
    if len(data) != params.secret_key_bytes:
        raise ValueError(f"{params.name} secret key must be "
                         f"{params.secret_key_bytes} bytes")
    rho, key, tr = data[:32], data[32:64], data[64:128]
    offset = 128
    eta_len = 32 * params.eta_bits
    s1 = []
    for _ in range(params.l):
        s1.append(bit_unpack(data[offset:offset + eta_len],
                             params.eta, params.eta))
        offset += eta_len
    s2 = []
    for _ in range(params.k):
        s2.append(bit_unpack(data[offset:offset + eta_len],
                             params.eta, params.eta))
        offset += eta_len
    t0 = []
    t0_len = 32 * D
    for _ in range(params.k):
        t0.append(bit_unpack(data[offset:offset + t0_len],
                             (1 << (D - 1)) - 1, 1 << (D - 1)))
        offset += t0_len
    return rho, key, tr, s1, s2, t0


def w1_encode(w1: list, params: MLDSAParams) -> bytes:
    bound = (Q - 1) // (2 * params.gamma2) - 1
    return b"".join(simple_bit_pack(p, bound) for p in w1)


def sig_encode(c_tilde: bytes, z: list, hints: list,
               params: MLDSAParams) -> bytes:
    packed_z = b"".join(bit_pack(p, params.gamma1 - 1, params.gamma1)
                        for p in z)
    return c_tilde + packed_z + hint_bit_pack(hints, params)


def sig_decode(data: bytes, params: MLDSAParams):
    if len(data) != params.signature_bytes:
        return None
    c_tilde = data[:params.ctilde_bytes]
    z_len = 32 * params.z_bits
    offset = params.ctilde_bytes
    z = []
    for _ in range(params.l):
        z.append(bit_unpack(data[offset:offset + z_len],
                            params.gamma1 - 1, params.gamma1))
        offset += z_len
    hints = hint_bit_unpack(data[offset:], params)
    if hints is None:
        return None
    return c_tilde, z, hints


# ---------------------------------------------------------------------------
# Keyed contexts

#: Memoized keyed contexts and seed-regenerated keypairs, keyed
#: ``(kind, parameter set, bytes)``.  The PERF delta of a build is
#: replayed on every hit (:meth:`~repro.runtime.memo.Memo.get_or_build`),
#: so counter totals are identical whether a context was built cold or
#: served warm (the parallel-parity transparency contract — see
#: tests/test_parallel_parity.py).
_CTX_MEMO = Memo(maxsize=64)


class MLDSASigner:
    """Keyed signing context: the secret decoded and expanded once.

    Caches everything :meth:`MLDSA.sign` used to re-derive per call —
    ExpandA's Â, NTT(s1)/NTT(s2)/NTT(t0) and ``tr``, all as int64
    arrays for the batched kernels — so each signature pays only the
    per-attempt rejection loop.  Signatures are byte-identical to the
    one-shot path.  The NTTs of the build are precomputation and do not
    touch ``crypto.mldsa.ntt_calls``; the Keccak work of ExpandA is
    counted once and replayed on memo hits.  The cached arrays are
    treated as read-only, so a memoized context is safe to share across
    campaign worker threads.
    """

    __slots__ = ("params", "secret", "_key", "_tr", "_a_np",
                 "_s1_np", "_s2_np", "_t0_np")

    def __init__(self, params: MLDSAParams, secret: bytes):
        rho, key, tr, s1, s2, t0 = sk_decode(secret, params)
        self.params = params
        self.secret = bytes(secret)
        self._key = key
        self._tr = tr
        self._a_np = np.array(expand_a(rho, params), dtype=np.int64)
        self._s1_np = _ntt_np(np.array(s1, dtype=np.int64))
        self._s2_np = _ntt_np(np.array(s2, dtype=np.int64))
        self._t0_np = _ntt_np(np.array(t0, dtype=np.int64))

    def sign(self, message: bytes, context: bytes = b"",
             randomize: bool = False, _trace: dict = None) -> bytes:
        """Sign ``message`` (same contract as :meth:`MLDSA.sign`)."""
        if PERF.enabled:
            PERF.inc("crypto.mldsa.sign")
        with TELEMETRY.span("crypto.mldsa.sign",
                            message_bytes=len(message)), \
                TELEMETRY.timer("crypto.mldsa.sign_seconds"):
            return self._sign(message, context, randomize, _trace)

    def _sign(self, message: bytes, context: bytes, randomize: bool,
              _trace: dict) -> bytes:
        p = self.params
        a_np, s1_np = self._a_np, self._s1_np
        s2_np, t0_np = self._s2_np, self._t0_np
        mu = shake256(self._tr + MLDSA._format_message(message, context),
                      64)
        rnd = os.urandom(32) if randomize else bytes(32)
        rho_pp = shake256(self._key + rnd + mu, 64)
        kappa = 0
        attempts = 0
        while True:
            attempts += 1
            y = np.array(expand_mask(rho_pp, kappa, p), dtype=np.int64)
            kappa += p.l
            y_hat = _ntt_batch(y)
            # A_hat @ y_hat rows accumulate unreduced (< l * q^2 < 2^49,
            # well inside int64); the inverse transform reduces mod q.
            w = _intt_batch((a_np * y_hat[None, :, :]).sum(axis=1))
            w1 = _high_bits_np(w, p.gamma2)
            c_tilde = shake256(mu + w1_encode(w1.tolist(), p),
                               p.ctilde_bytes)
            c = sample_in_ball(c_tilde, p)
            c_hat = _ntt_batch(np.array([c], dtype=np.int64))[0]
            z = (y + _intt_batch(c_hat * s1_np % Q)) % Q
            if _inf_norm_np(z) >= p.gamma1 - p.beta:
                continue
            w_minus_cs2 = (w - _intt_batch(c_hat * s2_np % Q)) % Q
            if _low_bits_max_np(w_minus_cs2, p.gamma2) >= \
                    p.gamma2 - p.beta:
                continue
            ct0 = _intt_batch(c_hat * t0_np % Q)
            if _inf_norm_np(ct0) >= p.gamma2:
                continue
            # MakeHint, vectorized: the hint bit is exactly "adding ct0
            # back changes the high bits of w - c*s2".
            restored = (w_minus_cs2 + ct0) % Q
            hint_bits = (_high_bits_np(w_minus_cs2, p.gamma2)
                         != _high_bits_np(restored, p.gamma2))
            if int(hint_bits.sum()) > p.omega:
                continue
            if _trace is not None:
                _trace["attempts"] = attempts
                _trace["peak_stack_bytes"] = \
                    MLDSA(p).signing_stack_bytes
            return sig_encode(c_tilde, z.tolist(),
                              hint_bits.astype(np.int64).tolist(), p)

    def sign_many(self, messages, context: bytes = b"",
                  randomize: bool = False) -> list:
        """Sign a whole message batch through one vectorized rejection
        loop.

        Lane *i* of the result is byte-identical to
        ``self.sign(messages[i], context)``: every lane runs the same
        per-attempt schedule (kappa advances by ``l`` per attempt) and
        the same staged rejection checks, just stacked on a leading
        batch axis through the int64 NTT kernels.  Each round resamples
        only the still-rejected lanes, and each rejection stage
        sub-batches to exactly the lanes the scalar path would have
        reached — so ``crypto.mldsa.ntt_calls`` totals match the
        per-call loop exactly.
        """
        messages = list(messages)
        if PERF.enabled:
            PERF.inc("crypto.mldsa.sign", len(messages))
            PERF.inc("crypto.mldsa.batch_sign_lanes", len(messages))
        with TELEMETRY.span("crypto.mldsa.sign_many",
                            batch=len(messages)), \
                TELEMETRY.timer("crypto.mldsa.sign_seconds"):
            return self._sign_many(messages, context, randomize)

    def _sign_many(self, messages: list, context: bytes,
                   randomize: bool) -> list:
        p = self.params
        batch = len(messages)
        if not batch:
            return []
        sigs = [None] * batch
        mus = []
        rho_pps = []
        for message in messages:
            mu = shake256(
                self._tr + MLDSA._format_message(message, context), 64)
            rnd = os.urandom(32) if randomize else bytes(32)
            mus.append(mu)
            rho_pps.append(shake256(self._key + rnd + mu, 64))
        kappas = [0] * batch
        active = list(range(batch))
        while active:
            lanes = len(active)
            y = np.empty((lanes, p.l, N), dtype=np.int64)
            for ai, lane in enumerate(active):
                y[ai] = _expand_mask_np(rho_pps[lane], kappas[lane], p)
                kappas[lane] += p.l
            y_hat = _ntt_batch(y.reshape(lanes * p.l, N)) \
                .reshape(lanes, p.l, N)
            # Â @ ŷ rows accumulate unreduced (< l * q^2 < 2^49); the
            # inverse transform reduces mod q.
            w = _intt_batch(
                np.einsum("rsn,bsn->brn", self._a_np, y_hat)
                .reshape(lanes * p.k, N)).reshape(lanes, p.k, N)
            w1_packed = _simple_bit_pack_np(
                _high_bits_np(w, p.gamma2).reshape(lanes, -1), p.w1_bits)
            c_tildes = [shake256(mus[lane] + w1_packed[ai].tobytes(),
                                 p.ctilde_bytes)
                        for ai, lane in enumerate(active)]
            c = np.array([sample_in_ball(ct, p) for ct in c_tildes],
                         dtype=np.int64)
            c_hat = _ntt_batch(c)
            z = (y + _intt_batch(
                (c_hat[:, None, :] * self._s1_np[None] % Q)
                .reshape(lanes * p.l, N)).reshape(lanes, p.l, N)) % Q
            pass1 = np.nonzero(
                _inf_norm_rows_np(z) < p.gamma1 - p.beta)[0]
            if pass1.size == 0:
                continue
            w_minus_cs2 = (w[pass1] - _intt_batch(
                (c_hat[pass1][:, None, :] * self._s2_np[None] % Q)
                .reshape(pass1.size * p.k, N))
                .reshape(pass1.size, p.k, N)) % Q
            r0 = np.abs(_low_bits_np(w_minus_cs2, p.gamma2)) \
                .reshape(pass1.size, -1).max(axis=1)
            keep2 = np.nonzero(r0 < p.gamma2 - p.beta)[0]
            if keep2.size == 0:
                continue
            pass2 = pass1[keep2]
            ct0 = _intt_batch(
                (c_hat[pass2][:, None, :] * self._t0_np[None] % Q)
                .reshape(pass2.size * p.k, N)).reshape(pass2.size, p.k, N)
            keep3 = np.nonzero(_inf_norm_rows_np(ct0) < p.gamma2)[0]
            if keep3.size == 0:
                continue
            pass3 = pass2[keep3]
            wm = w_minus_cs2[keep2][keep3]
            hint_bits = (_high_bits_np(wm, p.gamma2)
                         != _high_bits_np((wm + ct0[keep3]) % Q,
                                          p.gamma2))
            keep4 = np.nonzero(
                hint_bits.reshape(pass3.size, -1).sum(axis=1)
                <= p.omega)[0]
            done = pass3[keep4]
            if done.size:
                packed_z = _bit_pack_np(
                    z[done].reshape(done.size * p.l, N),
                    p.gamma1 - 1, p.gamma1).reshape(done.size, -1)
                hints_done = hint_bits[keep4].astype(np.int64)
                for bi, ai in enumerate(done.tolist()):
                    sigs[active[ai]] = (
                        c_tildes[ai] + packed_z[bi].tobytes()
                        + hint_bit_pack(hints_done[bi].tolist(), p))
            finished = set(done.tolist())
            active = [lane for ai, lane in enumerate(active)
                      if ai not in finished]
        return sigs


class MLDSAVerifier:
    """Keyed verification context: the public key decoded and expanded
    once (Â, ``tr``, NTT(t1 << d), as int64 arrays for the batched
    kernels); results identical to the one-shot path."""

    __slots__ = ("params", "public", "_tr", "_a_np", "_t1_np")

    def __init__(self, params: MLDSAParams, public: bytes):
        rho, t1 = pk_decode(public, params)
        self.params = params
        self.public = bytes(public)
        self._tr = shake256(public, 64)
        self._a_np = np.array(expand_a(rho, params), dtype=np.int64)
        self._t1_np = _ntt_np(np.array(t1, dtype=np.int64) << D)

    def verify(self, message: bytes, signature: bytes,
               context: bytes = b"") -> bool:
        """Check a signature (same contract as :meth:`MLDSA.verify`)."""
        if PERF.enabled:
            PERF.inc("crypto.mldsa.verify")
        with TELEMETRY.span("crypto.mldsa.verify",
                            message_bytes=len(message)), \
                TELEMETRY.timer("crypto.mldsa.verify_seconds"):
            return self._verify(message, signature, context)

    def _verify(self, message: bytes, signature: bytes,
                context: bytes) -> bool:
        p = self.params
        decoded = sig_decode(signature, p)
        if decoded is None:
            return False
        c_tilde, z, hints = decoded
        z_np = np.array(z, dtype=np.int64) % Q
        if _inf_norm_np(z_np) >= p.gamma1 - p.beta:
            return False
        mu = shake256(self._tr + MLDSA._format_message(message, context),
                      64)
        c = sample_in_ball(c_tilde, p)
        c_hat = _ntt_batch(np.array([c], dtype=np.int64))[0]
        z_hat = _ntt_batch(z_np)
        # A_hat @ z_hat - c_hat * t1_hat, unreduced (|.| < 8 * q^2); the
        # inverse transform reduces mod q.
        rows = (self._a_np * z_hat[None, :, :]).sum(axis=1)
        w_approx = _intt_batch(rows - c_hat * self._t1_np)
        # UseHint: bulk high bits, then the (at most omega) set hint
        # bits patch individual coefficients.
        w1_prime = _high_bits_np(w_approx, p.gamma2).tolist()
        for r in range(p.k):
            w1r = w1_prime[r]
            war = w_approx[r]
            for j, bit in enumerate(hints[r]):
                if bit:
                    w1r[j] = use_hint(1, int(war[j]), p.gamma2)
        expected = shake256(mu + w1_encode(w1_prime, p), p.ctilde_bytes)
        return expected == c_tilde

    def verify_many(self, messages, signatures,
                    context: bytes = b"") -> list:
        """Check a signature batch in one vectorized pass: entry *i*
        equals ``self.verify(messages[i], signatures[i], context)`` (the
        one-key case of :func:`_verify_many`)."""
        messages = list(messages)
        return _verify_many(self.params, [self] * len(messages),
                            messages, signatures, context)


def _verify_many(params: MLDSAParams, verifiers: list, messages: list,
                 signatures, context: bytes) -> list:
    """Counted, traced :func:`_verify_lanes`.  Lanes whose key did not
    decode (``None`` verifier) are rejected uncounted, as a one-key call
    with that key always was."""
    signatures = list(signatures)
    if len(messages) != len(signatures):
        raise ValueError("messages and signatures must pair up")
    if PERF.enabled:
        keyed = len(verifiers) - verifiers.count(None)
        PERF.inc("crypto.mldsa.verify", keyed)
        PERF.inc("crypto.mldsa.batch_verify_lanes", keyed)
    with TELEMETRY.span("crypto.mldsa.verify_many",
                        batch=len(messages)), \
            TELEMETRY.timer("crypto.mldsa.verify_seconds"):
        return _verify_lanes(params, verifiers, messages, signatures,
                             context)


def _verify_lanes(p: MLDSAParams, verifiers: list, messages: list,
                  signatures: list, context: bytes) -> list:
    """The batch verification kernel: lane *i* checks ``signatures[i]``
    over ``messages[i]`` under ``verifiers[i]``, and lanes may mix keys.

    Every lane-wise stage stacks across keys: the length and z-norm
    checks, hint decoding, SampleInBall, the forward NTTs of c and z,
    the inverse NTT, UseHint and the w1 packing.  Only the keyed product
    ``Â·ẑ − ĉ·t̂1`` runs once per distinct key.  Lanes rejected
    structurally are filtered before the transforms, in the order the
    scalar :meth:`MLDSAVerifier.verify` decides them, so
    ``crypto.mldsa.ntt_calls`` totals match a per-call loop exactly.
    """
    results = [False] * len(messages)
    z_start = p.ctilde_bytes
    z_end = z_start + 32 * p.z_bits * p.l
    cand = [i for i, sig in enumerate(signatures)
            if verifiers[i] is not None and len(sig) == p.signature_bytes]
    if not cand:
        return results
    z_all = _bit_unpack_np(
        b"".join(signatures[i][z_start:z_end] for i in cand),
        len(cand) * p.l, p.z_bits, p.gamma1).reshape(len(cand), p.l, N)
    norms = _inf_norm_rows_np(z_all)
    lanes = []
    for ci, i in enumerate(cand):
        if norms[ci] >= p.gamma1 - p.beta:
            continue
        hints = _hint_positions(signatures[i][z_end:], p)
        if hints is not None:
            lanes.append((i, ci, hints))
    if not lanes:
        return results
    count = len(lanes)
    c = np.array([sample_in_ball(signatures[i][:p.ctilde_bytes], p)
                  for i, _ci, _hints in lanes], dtype=np.int64)
    c_hat = _ntt_batch(c)
    z_hat = _ntt_batch(
        z_all[[ci for _i, ci, _hints in lanes]].reshape(count * p.l, N)) \
        .reshape(count, p.l, N)
    # Drop each stage's inputs once used: peak memory grows with the batch.
    del z_all, c
    groups = {}
    for ai, (i, _ci, _hints) in enumerate(lanes):
        groups.setdefault(verifiers[i], []).append(ai)
    # Â @ ẑ - ĉ * t̂1 per lane, unreduced (|.| < 9 * q^2 < 2^50).
    rows = np.empty((count, p.k, N), dtype=np.int64)
    for verifier, members in groups.items():
        rows[members] = np.einsum("rsn,bsn->brn", verifier._a_np,
                                  z_hat[members]) \
            - c_hat[members][:, None, :] * verifier._t1_np[None]
    w_approx = _intt_batch(rows.reshape(count * p.k, N)) \
        .reshape(count, p.k * N)
    del rows, z_hat, c_hat
    w1 = _high_bits_np(w_approx, p.gamma2)
    # UseHint, vectorized across every set hint bit in the batch.
    ais = np.repeat(np.arange(count), [len(lane[2]) for lane in lanes])
    if ais.size:
        positions = np.array([position for lane in lanes
                              for position in lane[2]], dtype=np.intp)
        vals = w_approx[ais, positions]
        m = (Q - 1) // (2 * p.gamma2)
        r1 = _high_bits_np(vals, p.gamma2)
        r0 = _low_bits_np(vals, p.gamma2)
        w1[ais, positions] = np.where(r0 > 0, (r1 + 1) % m, (r1 - 1) % m)
    packed = _simple_bit_pack_np(w1, p.w1_bits)
    for ai, (i, _ci, _hints) in enumerate(lanes):
        mu = shake256(verifiers[i]._tr
                      + MLDSA._format_message(messages[i], context), 64)
        c_tilde = signatures[i][:p.ctilde_bytes]
        results[i] = shake256(mu + packed[ai].tobytes(),
                              p.ctilde_bytes) == c_tilde
    return results


# ---------------------------------------------------------------------------
# The scheme


class MLDSA:
    """An ML-DSA instance for one parameter set.

    >>> scheme = MLDSA(ML_DSA_44)
    >>> pk, sk = scheme.key_gen(bytes(32))
    >>> sig = scheme.sign(sk, b"attest me")
    >>> scheme.verify(pk, b"attest me", sig)
    True
    """

    def __init__(self, params: MLDSAParams = ML_DSA_44):
        self.params = params

    # -- key generation ----------------------------------------------------

    def key_gen(self, seed: bytes = None) -> tuple:
        """Generate (public_key, secret_key); deterministic in ``seed``.

        The 32-byte ``seed`` is exactly what the paper's PQ bootrom stores
        instead of the 2560-byte expanded key.
        """
        p = self.params
        if seed is None:
            return self._key_gen(os.urandom(32))
        if len(seed) != 32:
            raise ValueError("ML-DSA seed must be 32 bytes")
        # Seeded generation is deterministic, so regenerate-at-boot (the
        # paper's 32-byte-seed storage model) hits the context memo.
        seed = bytes(seed)
        return _CTX_MEMO.get_or_build(("key_gen", p.name, seed),
                                      lambda: self._key_gen(seed))

    def _key_gen(self, seed: bytes) -> tuple:
        p = self.params
        if PERF.enabled:
            PERF.inc("crypto.mldsa.key_gen")
        expanded = shake256(seed + bytes([p.k, p.l]), 128)
        rho, rho_prime, key = expanded[:32], expanded[32:96], expanded[96:]
        a_hat = expand_a(rho, p)
        s1, s2 = expand_s(rho_prime, p)
        s1_hat = [ntt(poly) for poly in s1]
        t = []
        for r in range(p.k):
            acc = [0] * N
            for s in range(p.l):
                acc = poly_add(acc, ntt_mul(a_hat[r][s], s1_hat[s]))
            t.append(poly_add(intt(acc), s2[r]))
        t1 = []
        t0 = []
        for poly in t:
            highs, lows = zip(*(power2round(c) for c in poly))
            t1.append(list(highs))
            t0.append([low % Q for low in lows])
        public = pk_encode(rho, t1, p)
        tr = shake256(public, 64)
        secret = sk_encode(rho, key, tr, s1, s2, t0, p)
        return public, secret

    # -- keyed contexts ----------------------------------------------------

    def signer(self, secret: bytes) -> MLDSASigner:
        """A memoized :class:`MLDSASigner` for ``secret``."""
        secret = bytes(secret)
        return _CTX_MEMO.get_or_build(
            ("signer", self.params.name, secret),
            lambda: MLDSASigner(self.params, secret))

    def verifier(self, public: bytes) -> MLDSAVerifier:
        """A memoized :class:`MLDSAVerifier` for ``public``."""
        public = bytes(public)
        return _CTX_MEMO.get_or_build(
            ("verifier", self.params.name, public),
            lambda: MLDSAVerifier(self.params, public))

    # -- signing -----------------------------------------------------------

    @staticmethod
    def _format_message(message: bytes, context: bytes) -> bytes:
        if len(context) > 255:
            raise ValueError("context string must be at most 255 bytes")
        return bytes([0, len(context)]) + context + message

    def sign(self, secret: bytes, message: bytes, context: bytes = b"",
             randomize: bool = False, _trace: dict = None) -> bytes:
        """Sign ``message``; deterministic unless ``randomize`` is set.

        ``_trace``, when given a dict, receives diagnostics used by the
        TEE stack-sizing experiment: ``attempts`` and ``peak_stack_bytes``.
        """
        if PERF.enabled:
            PERF.inc("crypto.mldsa.sign")
        with TELEMETRY.span("crypto.mldsa.sign",
                            message_bytes=len(message)), \
                TELEMETRY.timer("crypto.mldsa.sign_seconds"):
            return self._sign(secret, message, context, randomize,
                              _trace)

    def _sign(self, secret: bytes, message: bytes, context: bytes,
              randomize: bool, _trace: dict) -> bytes:
        return self.signer(secret)._sign(message, context, randomize,
                                         _trace)

    def sign_many(self, secret: bytes, messages, context: bytes = b"",
                  randomize: bool = False) -> list:
        """Batch :meth:`sign` (see :meth:`MLDSASigner.sign_many`)."""
        return self.signer(secret).sign_many(messages, context,
                                             randomize)

    # -- verification ------------------------------------------------------

    def verify(self, public: bytes, message: bytes, signature: bytes,
               context: bytes = b"") -> bool:
        """Check a signature; False on any malformation or mismatch."""
        if PERF.enabled:
            PERF.inc("crypto.mldsa.verify")
        with TELEMETRY.span("crypto.mldsa.verify",
                            message_bytes=len(message)), \
                TELEMETRY.timer("crypto.mldsa.verify_seconds"):
            return self._verify(public, message, signature, context)

    def _verify(self, public: bytes, message: bytes, signature: bytes,
                context: bytes) -> bool:
        try:
            verifier = self.verifier(public)
        except ValueError:
            return False
        return verifier._verify(message, signature, context)

    def verify_many(self, public, messages, signatures,
                    context: bytes = b"") -> list:
        """Batch :meth:`verify`: entry *i* equals ``self.verify(key_i,
        messages[i], signatures[i], context)``.

        ``public`` is one key for every lane (``bytes``-like) or a
        sequence of per-lane keys.  Lanes of every key share one
        vectorized pass (see :func:`_verify_lanes`); a key that does not
        decode rejects only its own lanes.  One memoized
        :class:`MLDSAVerifier` is looked up per distinct key.
        """
        messages = list(messages)
        if isinstance(public, (bytes, bytearray, memoryview)):
            keys = [bytes(public)] * len(messages)
        else:
            keys = [bytes(key) for key in public]
            if len(keys) != len(messages):
                raise ValueError("one public key per message required, "
                                 f"got {len(keys)} keys for "
                                 f"{len(messages)} messages")
        contexts = {}
        for key in keys:
            if key not in contexts:
                try:
                    contexts[key] = self.verifier(key)
                except ValueError:
                    contexts[key] = None
        return _verify_many(self.params, [contexts[key] for key in keys],
                            messages, signatures, context)

    # -- resource model ----------------------------------------------------

    @property
    def signing_stack_bytes(self) -> int:
        """Approximate C-implementation stack demand of signing.

        Modelled on the PQClean reference implementation the paper uses:
        the signing routine keeps the expanded matrix (k*l polys), five
        vectors of length k or l and several temporaries as 32-bit
        coefficient arrays on the stack.  For ML-DSA-44 this lands near
        50 KB — far beyond Keystone's default 8 KB SM stack, which is why
        the paper raises the per-core stack to 128 KB.
        """
        p = self.params
        poly_bytes = 4 * N
        polys = (p.k * p.l          # expanded A
                 + 2 * p.l          # y, z
                 + 3 * p.k          # w, w1, hint workspace
                 + p.l + 2 * p.k    # s1, s2, t0
                 + 4)               # c and temporaries
        return polys * poly_bytes + 2048


def key_gen(seed: bytes = None, params: MLDSAParams = ML_DSA_44) -> tuple:
    """Module-level convenience: (public, secret) for ``params``."""
    return MLDSA(params).key_gen(seed)


def sign(secret: bytes, message: bytes,
         params: MLDSAParams = ML_DSA_44, **kwargs) -> bytes:
    """Module-level convenience around :meth:`MLDSA.sign`."""
    return MLDSA(params).sign(secret, message, **kwargs)


def verify(public: bytes, message: bytes, signature: bytes,
           params: MLDSAParams = ML_DSA_44, **kwargs) -> bool:
    """Module-level convenience around :meth:`MLDSA.verify`."""
    return MLDSA(params).verify(public, message, signature, **kwargs)
