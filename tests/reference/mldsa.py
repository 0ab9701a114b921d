"""Schoolbook ML-DSA (FIPS 204) oracles for the vectorized kernels.

The loop-form transforms and the pre-fast-path signing and verification
flows: every coefficient reduced at every step, the secret and public
keys decoded and transformed on every call.  ``tests/test_crypto_fastpaths.py``
pins :mod:`repro.crypto.mldsa` byte-identical to these, and
``benchmarks/bench_crypto_primitives.py`` times the fast paths against
them.
"""

from repro.crypto.keccak import shake256
from repro.crypto.mldsa import (D, N, Q, ZETAS, MLDSA, expand_a,
                                expand_mask, high_bits, infinity_norm,
                                low_bits, make_hint, ntt_mul, pk_decode,
                                poly_add, poly_sub, sample_in_ball,
                                sig_decode, sig_encode, sk_decode,
                                use_hint, w1_encode)

_INV_256 = pow(N, Q - 2, Q)


def ntt_reference(coeffs: list) -> list:
    """Forward NTT, fully reduced at every butterfly."""
    a = list(coeffs)
    k = 0
    length = 128
    while length >= 1:
        start = 0
        while start < N:
            k += 1
            zeta = ZETAS[k]
            for j in range(start, start + length):
                t = zeta * a[j + length] % Q
                a[j + length] = (a[j] - t) % Q
                a[j] = (a[j] + t) % Q
            start += 2 * length
        length //= 2
    return a


def intt_reference(coeffs: list) -> list:
    """Inverse NTT, fully reduced at every butterfly."""
    a = list(coeffs)
    k = N
    length = 1
    while length < N:
        start = 0
        while start < N:
            k -= 1
            neg_zeta = Q - ZETAS[k]
            for j in range(start, start + length):
                t = a[j]
                a[j] = (t + a[j + length]) % Q
                a[j + length] = (t - a[j + length]) * neg_zeta % Q
            start += 2 * length
        length *= 2
    return [x * _INV_256 % Q for x in a]


def sign_reference(scheme: MLDSA, secret: bytes, message: bytes,
                   context: bytes = b"") -> bytes:
    """Deterministic signing, coefficient by coefficient, with the
    loop-form transforms; the keyed :class:`~repro.crypto.mldsa.MLDSASigner`
    must be byte-identical to it."""
    p = scheme.params
    rho, key, tr, s1, s2, t0 = sk_decode(secret, p)
    a_hat = expand_a(rho, p)
    s1_hat = [ntt_reference(poly) for poly in s1]
    s2_hat = [ntt_reference(poly) for poly in s2]
    t0_hat = [ntt_reference(poly) for poly in t0]
    mu = shake256(tr + MLDSA._format_message(message, context), 64)
    rho_pp = shake256(key + bytes(32) + mu, 64)
    kappa = 0
    while True:
        y = expand_mask(rho_pp, kappa, p)
        kappa += p.l
        y_hat = [ntt_reference(poly) for poly in y]
        w = []
        for r in range(p.k):
            acc = [0] * N
            for s in range(p.l):
                acc = poly_add(acc, ntt_mul(a_hat[r][s], y_hat[s]))
            w.append(intt_reference(acc))
        w1 = [[high_bits(c, p.gamma2) for c in poly] for poly in w]
        c_tilde = shake256(mu + w1_encode(w1, p), p.ctilde_bytes)
        c = sample_in_ball(c_tilde, p)
        c_hat = ntt_reference(c)
        z = [poly_add(y[s], intt_reference(ntt_mul(c_hat, s1_hat[s])))
             for s in range(p.l)]
        if infinity_norm(z) >= p.gamma1 - p.beta:
            continue
        w_minus_cs2 = [
            poly_sub(w[r], intt_reference(ntt_mul(c_hat, s2_hat[r])))
            for r in range(p.k)]
        r0_norm = max(abs(low_bits(c, p.gamma2))
                      for poly in w_minus_cs2 for c in poly)
        if r0_norm >= p.gamma2 - p.beta:
            continue
        ct0 = [intt_reference(ntt_mul(c_hat, t0_hat[r]))
               for r in range(p.k)]
        if infinity_norm(ct0) >= p.gamma2:
            continue
        hints = []
        ones = 0
        for r in range(p.k):
            poly_hint = []
            for j in range(N):
                bit = make_hint((-ct0[r][j]) % Q,
                                (w_minus_cs2[r][j] + ct0[r][j]) % Q,
                                p.gamma2)
                poly_hint.append(bit)
                ones += bit
            hints.append(poly_hint)
        if ones > p.omega:
            continue
        return sig_encode(c_tilde, z, hints, p)


def verify_reference(scheme: MLDSA, public: bytes, message: bytes,
                     signature: bytes, context: bytes = b"") -> bool:
    """Verification, coefficient by coefficient, with the loop-form
    transforms (see :func:`sign_reference`)."""
    p = scheme.params
    try:
        rho, t1 = pk_decode(public, p)
    except ValueError:
        return False
    decoded = sig_decode(signature, p)
    if decoded is None:
        return False
    c_tilde, z, hints = decoded
    if infinity_norm(z) >= p.gamma1 - p.beta:
        return False
    a_hat = expand_a(rho, p)
    tr = shake256(public, 64)
    mu = shake256(tr + MLDSA._format_message(message, context), 64)
    c = sample_in_ball(c_tilde, p)
    c_hat = ntt_reference(c)
    z_hat = [ntt_reference(poly) for poly in z]
    t1_hat = [ntt_reference([coef << D for coef in poly]) for poly in t1]
    w1_prime = []
    for r in range(p.k):
        acc = [0] * N
        for s in range(p.l):
            acc = poly_add(acc, ntt_mul(a_hat[r][s], z_hat[s]))
        acc = poly_sub(acc, ntt_mul(c_hat, t1_hat[r]))
        w_approx = intt_reference(acc)
        w1_prime.append([use_hint(hints[r][j], w_approx[j], p.gamma2)
                         for j in range(N)])
    expected = shake256(mu + w1_encode(w1_prime, p), p.ctilde_bytes)
    return expected == c_tilde
