"""Pure-Python Ed25519 signatures (RFC 8032).

Ed25519 is the *default* Keystone signature scheme (paper Table III).  The
PQ-enabled TEE keeps it alongside ML-DSA-44 in a hybrid, so that security
is never weaker than the classical baseline even if one scheme falls.

Implementation notes: twisted Edwards curve arithmetic in extended
homogeneous coordinates; SHA-512 from the standard library (the from-
scratch hashing effort of this project is Keccak, see
:mod:`repro.crypto.keccak`).  Not constant-time — it is a behavioural
model for the TEE simulator, not production crypto.

Hot paths use windowed arithmetic (pinned bit-equal to the bitwise
double-and-add reference by hypothesis property tests):

* fixed-base multiplication walks a lazily built 4-bit comb table of
  ``d * 16^i * B`` multiples in Niels form (affine ``(y+x, y-x, 2dt)``
  triples, batch-normalized with one field inversion) — ~64 cheap
  additions and zero doublings per ``k * B``,
* verification runs one Straus/Shamir double-scalar multiplication:
  ``s*B - k*A`` interleaved over a shared doubling chain with wNAF
  digits (width 7 for the fixed base, width 5 for ``A``),
* doubling uses the dedicated extended-coordinate formula
  (:func:`_point_double`, 4M+4S) split out of the general addition,
  and skips the ``T`` product when the next operation is another
  doubling.

Every verification path (scalar, batch, reference) applies the same
cofactored rule, ``[8](s*B - R - k*A) == 0`` (ZIP-215), and rejects a
small-order public key, so a signer who adds a small-torsion point to
``R`` or uses a mixed-order key gets the same verdict whichever path
checks the signature and whatever else shares its batch.

:class:`SigningKey` caches the expensive per-secret state (clamped
scalar, prefix, compressed public key) so repeated signatures — the SM
re-attesting, the bootrom re-certifying — skip the key-derivation
scalar multiplication entirely.  Building precomputed state is *not*
charged to the ``crypto.ed25519.point_adds`` PERF counter; only
per-operation online work is, so counter totals stay independent of
cache warmth (the ISSUE 4 parallel-parity contract).
"""

from __future__ import annotations

import hashlib

from ..obs import TELEMETRY
from ..obs.perf import PERF
from ..runtime.memo import Memo
from .keccak import shake256

P = 2 ** 255 - 19
L = 2 ** 252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, P - 2, P)) % P

PUBLIC_KEY_LEN = 32
SECRET_KEY_LEN = 32
SIGNATURE_LEN = 64


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _inv(x: int) -> int:
    return pow(x, P - 2, P)


# Points are (X, Y, Z, T) with x = X/Z, y = Y/Z, x*y = T/Z.
_IDENTITY = (0, 1, 1, 0)


def _point_add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_double(p, need_t: bool = True):
    """Dedicated extended-coordinate doubling (dbl-2008-hwcd, a = -1).

    4 multiplications + 4 squarings against the general addition's 9
    multiplications; produces the same projective point ``2p`` (any
    representative — compression normalizes by 1/Z).  ``need_t=False``
    skips the ``T`` product — valid only when the next operation is
    another doubling, which never reads ``T``.
    """
    x1, y1, z1 = p[0], p[1], p[2]
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = 2 * z1 * z1 % P
    e = ((x1 + y1) * (x1 + y1) - a - b) % P
    g = b - a                    # a*A + B with a = -1
    f = g - c
    h = -a - b                   # a*A - B
    return (e * f % P, g * h % P, f * g % P,
            e * h % P if need_t else 0)


def _point_negate(p):
    x, y, z, t = p
    return (-x % P, y, z, -t % P)


def _point_mul(scalar: int, point):
    """Bitwise double-and-add — the retained semantic reference the
    windowed paths are pinned against by the parity suite."""
    result = _IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        scalar >>= 1
    return result


def _point_equal(p, q) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


_SQRT_M1 = pow(2, (P - 1) // 4, P)


def _recover_x(y: int, sign: int) -> int:
    """RFC 8032 x-recovery with the combined-exponent square root:
    ``x = u*v^3 * (u*v^7)^((P-5)/8)`` costs ONE modexp where the naive
    ``inv`` + ``sqrt`` route costs two or three.  The candidate equals
    ``(u/v)^((P+3)/8)`` exactly (the v exponents agree mod P-1), so
    recovered points are bit-identical to the naive form."""
    if y >= P:
        raise ValueError("invalid point encoding")
    u = (y * y - 1) % P
    v = (D * y * y + 1) % P
    if u == 0 or v == 0:
        if sign:
            raise ValueError("invalid point encoding")
        return 0
    v3 = v * v * v % P
    x = u * v3 * pow(u * v3 * v3 * v % P, (P - 5) // 8, P) % P
    vxx = v * x * x % P
    if vxx != u:
        if vxx != P - u:
            raise ValueError("invalid point encoding")
        x = x * _SQRT_M1 % P
    if (x & 1) != sign:
        x = P - x
    return x


_BASE_Y = 4 * _inv(5) % P
_BASE_X = _recover_x(_BASE_Y, 0)
BASE_POINT = (_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % P)


# -- precomputed-form arithmetic --------------------------------------------
#
# Niels form: an *affine* precomputed point stored as (y+x, y-x, 2dt).
# Adding one to an extended point costs 7 multiplications (vs 9 for the
# general addition).  Cached form is the projective analogue
# (y+x, y-x, 2dt, 2z) for runtime points whose Z is not 1.


def _add_niels(p, n):
    x1, y1, z1, t1 = p
    yp, ym, t2d = n
    a = (y1 - x1) * ym % P
    b = (y1 + x1) * yp % P
    c = t1 * t2d % P
    d = z1 + z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _neg_niels(n):
    yp, ym, t2d = n
    return (ym, yp, -t2d % P)


def _to_cached(p):
    x, y, z, t = p
    return ((y + x) % P, (y - x) % P, 2 * t * D % P, z + z)


def _add_cached(p, q):
    x1, y1, z1, t1 = p
    yp, ym, t2d, z2x2 = q
    a = (y1 - x1) * ym % P
    b = (y1 + x1) * yp % P
    c = t1 * t2d % P
    d = z1 * z2x2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _neg_cached(q):
    yp, ym, t2d, z2x2 = q
    return (ym, yp, -t2d % P, z2x2)


def _batch_niels(points) -> list:
    """Normalize extended points to Niels form with ONE field inversion
    (Montgomery's simultaneous-inversion trick)."""
    zs = [p[2] for p in points]
    prefix = [1] * (len(zs) + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = prefix[i] * z % P
    inv_acc = _inv(prefix[-1])
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        zinv = prefix[i] * inv_acc % P
        inv_acc = inv_acc * zs[i] % P
        x = points[i][0] * zinv % P
        y = points[i][1] * zinv % P
        out[i] = ((y + x) % P, (y - x) % P, 2 * D * x * y % P)
    return out


_INV2 = _inv(2)


def _niels_to_extended(n):
    """Affine Niels ``(y+x, y-x, 2dt)`` back to extended coordinates.

    Two constant multiplications by ``1/2`` — cheap enough that MSM
    buckets can stay in Niels form until a second addition actually
    lands on them (the lazy-promotion trick that makes sparse buckets
    nearly free)."""
    yp, ym, _t2d = n
    x = (yp - ym) * _INV2 % P
    y = (yp + ym) * _INV2 % P
    return (x, y, 1, x * y % P)


#: Comb window width (bits) for fixed-base multiplication.
_WINDOW = 4
_WINDOWS = 256 // _WINDOW
#: wNAF widths for the Straus chain (fixed base / variable point).
_WNAF_BASE = 7
_WNAF_POINT = 5

_PRECOMP = None


def _precomp():
    """Lazily built fixed-base tables, batch-normalized to Niels form.

    ``comb[i][d - 1] == d * 16^i * B`` for ``d`` in 1..15 (any scalar
    below 2^256 is one addition per nonzero 4-bit digit, no doublings)
    and ``odd[j] == (2j + 1) * B`` up to 2^_WNAF_BASE - 1 for the
    verify chain.  Built once per process with uncounted additions
    (precomputation, not per-operation work).
    """
    global _PRECOMP
    if _PRECOMP is None:
        raw = []
        row_base = BASE_POINT
        for _ in range(_WINDOWS):
            row = [row_base]
            for _ in range(14):
                row.append(_point_add(row[-1], row_base))
            raw.extend(row)
            row_base = _point_add(row[-1], row_base)
        base2 = _point_double(BASE_POINT)
        odd = [BASE_POINT]
        for _ in range((1 << (_WNAF_BASE - 1)) // 2 - 1):
            odd.append(_point_add(odd[-1], base2))
        niels = _batch_niels(raw + odd)
        comb = tuple(tuple(niels[15 * i:15 * i + 15])
                     for i in range(_WINDOWS))
        _PRECOMP = (comb, tuple(niels[15 * _WINDOWS:]))
    return _PRECOMP


def _comb(scalar: int):
    """Uncounted comb-table walk: ``(scalar * B, additions used)``."""
    comb_table, _ = _precomp()
    result = _IDENTITY
    adds = 0
    index = 0
    while scalar:
        digit = scalar & 15
        if digit:
            result = _add_niels(result, comb_table[index][digit - 1])
            adds += 1
        scalar >>= 4
        index += 1
    return result, adds


def _point_mul_base(scalar: int):
    """``scalar * B`` via the comb table (``0 <= scalar < 2^256``)."""
    result, adds = _comb(scalar)
    if PERF.enabled:
        PERF.inc("crypto.ed25519.point_adds", adds)
    return result


def _wnaf(scalar: int, width: int) -> list:
    """Width-``w`` non-adjacent form, least-significant digit first;
    digits are zero or odd in ``(-2^(w-1), 2^(w-1))``."""
    digits = []
    span = 1 << width
    half = span >> 1
    while scalar:
        if scalar & 1:
            digit = scalar & (span - 1)
            if digit >= half:
                digit -= span
            scalar -= digit
            digits.append(digit)
        else:
            digits.append(0)
        scalar >>= 1
    return digits


def _point_table(point, width: int = _WNAF_POINT) -> list:
    """Cached-form odd multiples ``1, 3, .., 2^w - 1`` of ``point``.

    Table construction is precomputation (uncounted, like the comb
    table): verification memoizes it per public key, and counter totals
    must not depend on cache warmth.
    """
    point2 = _point_double(point)
    cur = point
    table = [_to_cached(point)]
    for _ in range((1 << (width - 1)) // 2 - 1):
        cur = _point_add(cur, point2)
        table.append(_to_cached(cur))
    return table


def _double_scalar_mul(s: int, k: int, point, point_table=None):
    """``s * B + k * point`` by Straus/Shamir interleaving.

    One shared doubling chain over wNAF digits of both scalars; the
    ``B`` digits index the fixed odd-multiple Niels table, the
    ``point`` digits ``point_table`` (built on the fly when not
    supplied).  Doublings skip the ``T`` product whenever both digits
    at a position are zero.
    """
    _, odd_base = _precomp()
    if point_table is None:
        point_table = _point_table(point)
    adds = 0
    s_digits = _wnaf(s, _WNAF_BASE)
    k_digits = _wnaf(k, _WNAF_POINT)
    n_s, n_k = len(s_digits), len(k_digits)
    # Event positions (nonzero digit somewhere), highest first; runs of
    # all-zero positions between events become tight doubling loops.
    events = [i for i in range(max(n_s, n_k) - 1, -1, -1)
              if (i < n_s and s_digits[i]) or (i < n_k and k_digits[i])]
    result = _IDENTITY
    position = events[0] if events else 0
    for i in events:
        runs = position - i
        if runs:
            # Inline doublings: only the last one in the run feeds an
            # addition, so only it needs the T product.
            x1, y1, z1, _ = result
            for _ in range(runs - 1):
                a = x1 * x1 % P
                b = y1 * y1 % P
                c = 2 * z1 * z1 % P
                e = ((x1 + y1) * (x1 + y1) - a - b) % P
                g = b - a
                f = g - c
                x1, y1, z1 = e * f % P, g * (-a - b) % P, f * g % P
            result = _point_double((x1, y1, z1, 0))
        ds = s_digits[i] if i < n_s else 0
        if ds:
            entry = odd_base[ds >> 1] if ds > 0 else \
                _neg_niels(odd_base[(-ds) >> 1])
            result = _add_niels(result, entry)
            adds += 1
        dk = k_digits[i] if i < n_k else 0
        if dk:
            entry = point_table[dk >> 1] if dk > 0 else \
                _neg_cached(point_table[(-dk) >> 1])
            result = _add_cached(result, entry)
            adds += 1
        position = i
    # Horner tail: the lowest event sits at bit ``position``; finish
    # with that many doublings (T needed only on the last).
    if position:
        x1, y1, z1, _ = result
        for _ in range(position - 1):
            a = x1 * x1 % P
            b = y1 * y1 % P
            c = 2 * z1 * z1 % P
            e = ((x1 + y1) * (x1 + y1) - a - b) % P
            g = b - a
            f = g - c
            x1, y1, z1 = e * f % P, g * (-a - b) % P, f * g % P
        result = _point_double((x1, y1, z1, 0))
    if PERF.enabled:
        PERF.inc("crypto.ed25519.point_adds", adds)
    return result


#: wNAF width for the long combined scalars of the batch-verify chain
#: (the ``z_i * k_i`` terms are ~253 bits, so the wider window pays).
_WNAF_BATCH = 6


def _multi_scalar_mul(base_scalar: int, pairs):
    """``base_scalar * B + sum(scalar_i * P_i)`` by interleaved Straus.

    Every scalar's wNAF digits share ONE doubling chain — the whole
    point of batch verification: ~253 doublings total instead of ~253
    per signature.  ``pairs`` supplies ``(scalar, width, cached_table)``
    with the odd-multiple table of each ``P_i`` built for ``width`` (see
    :func:`_point_table`).  Doublings skip the ``T`` product when no
    digit lands on a position.
    """
    _, odd_base = _precomp()
    s_digits = _wnaf(base_scalar, _WNAF_BASE)
    top = len(s_digits)
    slots = [[] for _ in range(max(top, 1))]
    for scalar, width, table in pairs:
        digits = _wnaf(scalar, width)
        if len(digits) > top:
            top = len(digits)
            slots.extend([] for _ in range(top - len(slots)))
        for i, digit in enumerate(digits):
            if digit:
                slots[i].append(table[digit >> 1] if digit > 0 else
                                _neg_cached(table[(-digit) >> 1]))
    adds = 0
    result = _IDENTITY
    started = False
    for i in range(top - 1, -1, -1):
        base_digit = s_digits[i] if i < len(s_digits) else 0
        entries = slots[i]
        if started:
            result = _point_double(result,
                                   need_t=bool(entries or base_digit))
        if base_digit:
            result = _add_niels(
                result,
                odd_base[base_digit >> 1] if base_digit > 0 else
                _neg_niels(odd_base[(-base_digit) >> 1]))
            adds += 1
        for entry in entries:
            result = _add_cached(result, entry)
            adds += 1
        if entries or base_digit:
            started = True
    if PERF.enabled:
        PERF.inc("crypto.ed25519.point_adds", adds)
    return result


#: Lane-count crossover at which the batch-verify combined equation
#: switches from interleaved Straus to the Pippenger bucket MSM.  Below
#: it the Straus chain (which reuses memoized per-key tables) wins; at
#: and above it Pippenger's O(n / log n) bucket amortization takes over
#: (measured ~1.4x at 64 lanes, ~1.9x at 256+ on this interpreter).
#: Tests and the attestation-service bench monkeypatch this to force
#: either path.
_MSM_LANES = 64


def _msm_window(n_points: int) -> int:
    """Bucket window width (bits) for :func:`_multi_scalar_mul_pippenger`.

    The classic ``log2(n) - 2`` heuristic, floored at 6: measured best
    on this interpreter at 129 points (c=6), 513 (c=7), 1025 (c=8).
    """
    return max(6, n_points.bit_length() - 3)


def _multi_scalar_mul_pippenger(base_scalar: int, pairs):
    """``base_scalar * B + sum(scalar_i * P_i)`` by Pippenger bucket MSM.

    ``pairs`` supplies ``(scalar, point)`` with extended-coordinate
    points — no per-point wNAF tables, which is the big-batch win over
    :func:`_multi_scalar_mul`: instead of 8-16 precomputed odd multiples
    per point, every point is batch-normalized to Niels form once (one
    shared field inversion) and contributes one bucket addition per
    ``c``-bit window.  Digits are *signed* (in ``[-2^(c-1), 2^(c-1)]``),
    halving the bucket count; buckets hold the raw Niels entry until a
    second addition lands (lazy promotion via :func:`_niels_to_extended`)
    so sparse buckets cost nothing.  Per window, the running-sum walk
    ``sum(d * bucket_d)`` needs two additions per occupied bucket, and
    ``c`` doublings chain the windows (T products skipped mid-run).

    Produces the same group element as the Straus chain — the
    batch-verify acceptance bit is identical whichever path runs.  PERF:
    ``crypto.ed25519.msm_points`` / ``msm_point_adds`` /
    ``msm_doublings`` attribute the online work (all deterministic in
    the inputs, so serial/parallel counter parity holds).
    """
    points = [BASE_POINT]
    scalars = [base_scalar % L]
    for scalar, point in pairs:
        points.append(point)
        scalars.append(scalar % L)
    c = _msm_window(len(points))
    half = 1 << (c - 1)
    mask = (1 << c) - 1
    nwin = -(-253 // c)
    digit_lists = []
    maxwin = nwin
    for s in scalars:
        # Signed c-bit digits with carry: d in [-half, half], and a
        # possible extra top window when the final carry survives.
        digits = []
        carry = 0
        for _ in range(nwin):
            d = (s & mask) + carry
            s >>= c
            if d > half:
                d -= 1 << c
                carry = 1
            else:
                carry = 0
            digits.append(d)
        if carry:
            digits.append(1)
            maxwin = nwin + 1
        digit_lists.append(digits)
    niels = _batch_niels(points)
    negs = [_neg_niels(entry) for entry in niels]
    adds = 0
    doublings = 0
    result = None
    for w in range(maxwin - 1, -1, -1):
        if result is not None:
            for _ in range(c - 1):
                result = _point_double(result, need_t=False)
            result = _point_double(result)
            doublings += c
        buckets = [None] * (half + 1)
        for i, digits in enumerate(digit_lists):
            if w >= len(digits):
                continue
            d = digits[w]
            if not d:
                continue
            entry = niels[i] if d > 0 else negs[i]
            if d < 0:
                d = -d
            bucket = buckets[d]
            if bucket is None:
                buckets[d] = entry
            else:
                if len(bucket) == 3:
                    bucket = _niels_to_extended(bucket)
                buckets[d] = _add_niels(bucket, entry)
                adds += 1
        # sum(d * bucket_d) = sum of suffix sums: running accumulates
        # bucket_half..bucket_d, acc accumulates the runnings.
        running = None
        acc = None
        for d in range(half, 0, -1):
            bucket = buckets[d]
            if bucket is not None:
                if len(bucket) == 3:
                    bucket = _niels_to_extended(bucket)
                if running is None:
                    running = bucket
                else:
                    running = _point_add(running, bucket)
                    adds += 1
            if running is not None:
                if acc is None:
                    acc = running
                else:
                    acc = _point_add(acc, running)
                    adds += 1
        if acc is not None:
            if result is None:
                result = acc
            else:
                result = _point_add(result, acc)
                adds += 1
    if PERF.enabled:
        PERF.inc("crypto.ed25519.msm_points", len(points))
        PERF.inc("crypto.ed25519.msm_point_adds", adds)
        PERF.inc("crypto.ed25519.msm_doublings", doublings)
    return result if result is not None else _IDENTITY


#: Domain separator for deterministic batch-verification coefficients.
_BATCH_DOMAIN = b"repro.ed25519.batch-verify.v1"


def _batch_coefficients(lanes) -> list:
    """128-bit random-linear-combination coefficients, derived
    deterministically by SHAKE256 over the whole batch contents.

    Deterministic derivation keeps campaign replays byte-stable (no
    process randomness) while remaining unpredictable to anyone who
    cannot already choose the full batch.  The low bit is forced to 1;
    the cofactored combined check multiplies every small-torsion defect
    away, so parity plays no part in soundness.
    """
    hasher_input = [_BATCH_DOMAIN, len(lanes).to_bytes(4, "little")]
    for _i, public, message, signature in lanes:
        hasher_input += [public, signature, _sha512(message)]
    stream = shake256(b"".join(hasher_input), 16 * len(lanes))
    return [int.from_bytes(stream[16 * i:16 * i + 16], "little") | 1
            for i in range(len(lanes))]


def verify_batch(items) -> list:
    """Batch Ed25519 verification: one random-linear-combination check
    for the whole batch, per-signature fallback on failure.

    ``items`` is a sequence of ``(public, message, signature)`` triples;
    entry *i* of the result equals ``verify(*items[i])``.  Structurally
    invalid lanes (bad lengths, invalid encodings, ``s >= L``) are
    rejected up front; the remaining lanes are checked as one combined
    cofactored equation ``[8]·sum(z_i * (s_i*B - R_i - k_i*A_i)) ==
    identity`` over a single shared doubling chain, with the ``A`` terms
    of lanes that share a key merged into one.  Both :func:`verify` and
    this check use the cofactored rule (ZIP-215; Chalkias et al.,
    "Taming the Many EdDSAs"), the rule under which batching is sound:
    a small-torsion component in ``R`` or ``A`` cannot make the batch
    accept what the scalar check rejects, or the reverse.  If the
    combined check fails, every lane is re-verified individually, which
    localizes the offending signature(s) exactly (the
    attestation-service triage path).  PERF: lanes entering the combined
    check tick ``crypto.ed25519.batch_verifies``; fallback re-verifies
    tick the scalar ``crypto.ed25519.verify`` as usual.

    Edge cases short-circuit before any batch machinery: an empty batch
    returns ``[]`` without even allocating a TELEMETRY span (the
    micro-batching service flushes empty deadline ticks constantly),
    and a batch of one runs the scalar :func:`verify` directly — the
    RLC combination cannot amortize anything across one lane, and the
    scalar Straus chain with its narrower per-point window is strictly
    cheaper.
    """
    items = list(items)
    if not items:
        return []
    if len(items) == 1:
        return [verify(*items[0])]
    with TELEMETRY.span("crypto.ed25519.verify_batch",
                        batch=len(items)), \
            TELEMETRY.timer("crypto.ed25519.verify_seconds"):
        return _verify_batch(items)


def _verify_batch(items) -> list:
    results = [False] * len(items)
    lanes = []
    points = []
    for i, (public, message, signature) in enumerate(items):
        if len(public) != PUBLIC_KEY_LEN \
                or len(signature) != SIGNATURE_LEN:
            continue
        key = _verify_key(public)
        if key is None:
            continue
        if int.from_bytes(signature[32:], "little") >= L:
            continue
        try:
            r_point = _decompress(signature[:32])
        except ValueError:
            # compression never produces this encoding, so the scalar
            # path's compare-against-R would reject it too
            continue
        lanes.append((i, bytes(public), bytes(message),
                      bytes(signature)))
        points.append((key, r_point))
    if not lanes:
        return results
    if PERF.enabled:
        PERF.inc("crypto.ed25519.batch_verifies", len(lanes))
    coefficients = _batch_coefficients(lanes)
    use_msm = len(lanes) >= _MSM_LANES
    # Lanes that share a public key share one -A term: the scalar
    # sum(z_i * k_i) times -A is the same group element as the per-lane
    # terms, so a batch of n lanes from d keys needs n + d points.
    s_combined = 0
    pairs = []
    key_scalars = {}
    for (_i, public, message, signature), (key, r_point), z in \
            zip(lanes, points, coefficients):
        s_combined += z * int.from_bytes(signature[32:], "little")
        k = int.from_bytes(_sha512(signature[:32] + public + message),
                           "little")
        key_scalars[key] = key_scalars.get(key, 0) + z * k
        neg_r = _point_negate(r_point)
        pairs.append((z, neg_r) if use_msm else
                     (z, _WNAF_POINT, _point_table(neg_r)))
    for key, scalar in key_scalars.items():
        pairs.append((scalar % L, key.neg_a) if use_msm else
                     (scalar % L, _WNAF_BATCH, key.table(_WNAF_BATCH)))
    s_combined %= L
    if use_msm:
        combined = _multi_scalar_mul_pippenger(s_combined, pairs)
    else:
        combined = _multi_scalar_mul(s_combined, pairs)
    # Cofactored, like the scalar check: torsion components of R or A
    # cannot cancel across lanes, so batch and scalar verdicts agree.
    if _is_small_order(combined):
        for i, _public, _message, _signature in lanes:
            results[i] = True
        return results
    for i, public, message, signature in lanes:
        results[i] = verify(public, message, signature)
    return results


class _VerifyKey:
    """Verification state of one public key: ``-A`` (extended
    coordinates, ``Z=1``) and its cached-form wNAF odd-multiple tables,
    each built on first use.  The scalar chain reads the width-5 table,
    the Straus batch chain the width-6 one, and the Pippenger MSM the
    bare point, so a key that only ever meets one path pays for one
    table."""

    __slots__ = ("neg_a", "_tables")

    def __init__(self, neg_a):
        self.neg_a = neg_a
        self._tables = {}

    def table(self, width: int) -> list:
        table = self._tables.get(width)
        if table is None:
            table = self._tables[width] = _point_table(self.neg_a, width)
        return table


#: One :class:`_VerifyKey` per public key.  Attestation verifies the same
#: handful of device / SM keys thousands of times, so the decompression
#: square root and the table builds are paid once per key.  ``None``
#: caches an invalid encoding.  Builds are uncounted precomputation, so
#: entries record an empty PERF delta.  Keys are normalized to ``bytes``.
_VERIFY_MEMO = Memo(maxsize=256)


def _negated_point(public: bytes):
    """Decompressed ``-A``, or ``None`` for an invalid encoding."""
    try:
        return _point_negate(_decompress(public))
    except ValueError:
        return None


def _verify_key(public: bytes):
    """The memoized :class:`_VerifyKey` of a compressed public key;
    ``None`` when the encoding is invalid or the point has small order.

    A small-order key is rejected on every path: ``[8]·k·A`` vanishes
    for it, so under the cofactored rule ``R = s*B`` would verify for
    any message."""
    public = bytes(public)

    def build():
        neg_a = _negated_point(public)
        if neg_a is None or _is_small_order(neg_a):
            return None
        return _VerifyKey(neg_a)
    return _VERIFY_MEMO.get_or_build(public, build)


def _is_small_order(point) -> bool:
    """``[8]·point`` is the identity: the cofactored acceptance test."""
    for _ in range(3):
        point = _point_double(point, need_t=False)
    x, y, z, _ = point
    return x % P == 0 and (y - z) % P == 0


def _compress(point) -> bytes:
    x, y, z, _ = point
    zinv = _inv(z)
    x, y = x * zinv % P, y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(data: bytes):
    if len(data) != 32:
        raise ValueError("point encoding must be 32 bytes")
    encoded = int.from_bytes(data, "little")
    sign = encoded >> 255
    y = encoded & ((1 << 255) - 1)
    x = _recover_x(y, sign)
    return (x, y, 1, x * y % P)


def _clamp(scalar_bytes: bytes) -> int:
    a = bytearray(scalar_bytes)
    a[0] &= 248
    a[31] &= 127
    a[31] |= 64
    return int.from_bytes(a, "little")


def public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    if len(secret) != SECRET_KEY_LEN:
        raise ValueError("Ed25519 secret must be 32 bytes")
    a = _clamp(_sha512(secret)[:32])
    return _compress(_point_mul_base(a))


class SigningKey:
    """Precomputed signing context for one 32-byte secret seed.

    Caches the clamped scalar, the deterministic-nonce prefix and the
    compressed public key, so each :meth:`sign` is a single fixed-base
    scalar multiplication (the reference one-shot path pays two).
    Signatures are byte-identical to :func:`sign`.
    """

    __slots__ = ("secret", "public", "_a", "_prefix")

    def __init__(self, secret: bytes):
        if len(secret) != SECRET_KEY_LEN:
            raise ValueError("Ed25519 secret must be 32 bytes")
        self.secret = bytes(secret)
        digest = _sha512(self.secret)
        self._a = _clamp(digest[:32])
        self._prefix = digest[32:]
        # Context setup is precomputation, deliberately uncounted (like
        # the comb-table build): ``crypto.ed25519.point_adds`` totals
        # must not depend on which caller warmed a cached context.
        self.public = _compress(_comb(self._a)[0])

    def sign(self, message: bytes) -> bytes:
        """Produce the 64-byte deterministic signature for ``message``."""
        if PERF.enabled:
            PERF.inc("crypto.ed25519.sign")
        with TELEMETRY.span("crypto.ed25519.sign",
                            message_bytes=len(message)), \
                TELEMETRY.timer("crypto.ed25519.sign_seconds"):
            r = int.from_bytes(_sha512(self._prefix + message),
                               "little") % L
            r_point = _compress(_point_mul_base(r))
            k = int.from_bytes(_sha512(r_point + self.public + message),
                               "little") % L
            s = (r + k * self._a) % L
            return r_point + s.to_bytes(32, "little")

    def verify(self, message: bytes, signature: bytes) -> bool:
        return verify(self.public, message, signature)


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte deterministic Ed25519 signature."""
    if len(secret) != SECRET_KEY_LEN:
        raise ValueError("Ed25519 secret must be 32 bytes")
    if PERF.enabled:
        PERF.inc("crypto.ed25519.sign")
    with TELEMETRY.span("crypto.ed25519.sign",
                        message_bytes=len(message)), \
            TELEMETRY.timer("crypto.ed25519.sign_seconds"):
        return _sign(secret, message)


def _sign(secret: bytes, message: bytes) -> bytes:
    digest = _sha512(secret)
    a = _clamp(digest[:32])
    prefix = digest[32:]
    public = _compress(_point_mul_base(a))
    r = int.from_bytes(_sha512(prefix + message), "little") % L
    r_point = _compress(_point_mul_base(r))
    k = int.from_bytes(_sha512(r_point + public + message), "little") % L
    s = (r + k * a) % L
    return r_point + s.to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; returns False on any malformation."""
    if PERF.enabled:
        PERF.inc("crypto.ed25519.verify")
    with TELEMETRY.span("crypto.ed25519.verify",
                        message_bytes=len(message)), \
            TELEMETRY.timer("crypto.ed25519.verify_seconds"):
        return _verify(public, message, signature)


def _verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(public) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    key = _verify_key(public)
    if key is None:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    k = int.from_bytes(_sha512(signature[:32] + public + message),
                       "little") % L
    q = _double_scalar_mul(s, k, None,
                           point_table=key.table(_WNAF_POINT))
    # Fast accept: s*B - k*A == R exactly when its canonical compression
    # equals the R bytes (compression never produces a non-canonical or
    # invalid encoding).  Otherwise the cofactored rule decides:
    # accept iff R decodes and [8](s*B - k*A - R) is the identity.
    if _compress(q) == signature[:32]:
        return True
    try:
        r_point = _decompress(signature[:32])
    except ValueError:
        return False
    return _is_small_order(_point_add(q, _point_negate(r_point)))


def verify_reference(public: bytes, message: bytes,
                     signature: bytes) -> bool:
    """The pre-fast-path verification flow: decompress both points,
    reject a small-order ``A`` and check the cofactored equation
    ``[8](s*B - R - k*A) == 0`` with double-and-add :func:`_point_mul`
    chains.  The windowed
    :func:`verify` is pinned equivalent to this path by the parity
    suite, and the crypto bench gates the fast path's speedup against
    it."""
    if len(public) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    try:
        a = _decompress(public)
        r = _decompress(signature[:32])
    except ValueError:
        return False
    if _point_equal(_point_mul(8, a), _IDENTITY):
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    k = int.from_bytes(_sha512(signature[:32] + public + message),
                       "little") % L
    sb = _point_mul(s, BASE_POINT)
    ka = _point_mul(k, a)
    defect = _point_add(sb, _point_negate(_point_add(r, ka)))
    return _point_equal(_point_mul(8, defect), _IDENTITY)


class Ed25519KeyPair:
    """Convenience wrapper pairing a seed with its derived public key."""

    def __init__(self, secret: bytes):
        self._signer = SigningKey(secret)
        self.secret = self._signer.secret
        self.public = self._signer.public

    def sign(self, message: bytes) -> bytes:
        return self._signer.sign(message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return verify(self.public, message, signature)
