"""Parity suites pinning the crypto fast paths to retained references.

Every optimized kernel in :mod:`repro.crypto` keeps its pre-optimization
implementation as a ``*_reference`` oracle (the ML-DSA ones in
``tests/reference/mldsa.py``); these tests assert the fast path is
byte-identical (signatures, blocks) or point-equal (curve
arithmetic) to that reference, on fixed KATs and on
hypothesis-generated inputs.  SHA-3/SHAKE are pinned to ``hashlib``
here and to the from-scratch sponge in ``tests/test_keccak.py``.  The measured-boot memo in
:mod:`repro.tee.bootrom` is covered too: hits must replay identical
bytes and identical PERF deltas, and armed fault injection must bypass
the cache entirely.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import mldsa as mldsa_ref
from repro.crypto import aes as aes_mod
from repro.crypto import ed25519 as ed
from repro.crypto import keccak as kc
from repro.crypto import mldsa as m
from repro.crypto.mldsa import ML_DSA_44, ML_DSA_65, ML_DSA_87, MLDSA
from repro.faults.injector import FAULTS, FaultSpec
from repro.faults.models import BIT_FLIP
from repro.obs.perf import counting
from repro.tee.bootrom import BootRom
from repro.tee.device import Device

import pytest

_POLY = st.lists(st.integers(min_value=0, max_value=m.Q - 1),
                 min_size=m.N, max_size=m.N)
_SCALAR = st.integers(min_value=0, max_value=2**256 - 1)


class TestKeccakParity:

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=600))
    def test_sha3_matches_hashlib(self, data):
        assert kc.sha3_256(data) == hashlib.sha3_256(data).digest()
        assert kc.sha3_512(data) == hashlib.sha3_512(data).digest()

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=400),
           st.integers(min_value=0, max_value=500))
    def test_shake_matches_hashlib(self, data, outlen):
        assert kc.shake128(data, outlen) == \
            hashlib.shake_128(data).digest(outlen)
        assert kc.shake256(data, outlen) == \
            hashlib.shake_256(data).digest(outlen)


class TestEd25519Parity:

    @settings(max_examples=15, deadline=None)
    @given(_SCALAR)
    def test_comb_base_mul_matches_double_and_add(self, scalar):
        fast = ed._point_mul_base(scalar)
        reference = ed._point_mul(scalar, ed.BASE_POINT)
        assert ed._point_equal(fast, reference)

    @settings(max_examples=10, deadline=None)
    @given(_SCALAR, _SCALAR, st.binary(min_size=32, max_size=32))
    def test_straus_chain_matches_two_reference_muls(self, s, k, seed):
        point = ed._decompress(ed.public_key(seed))
        fast = ed._double_scalar_mul(s % ed.L, k % ed.L, point)
        reference = ed._point_add(
            ed._point_mul(s % ed.L, ed.BASE_POINT),
            ed._point_mul(k % ed.L, point))
        assert ed._point_equal(fast, reference)

    @settings(max_examples=20, deadline=None)
    @given(_SCALAR)
    def test_point_double_matches_add(self, scalar):
        p = ed._point_mul(scalar | 1, ed.BASE_POINT)
        assert ed._point_equal(ed._point_double(p), ed._point_add(p, p))

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=64))
    def test_sign_verify_match_reference(self, seed, message):
        public = ed.public_key(seed)
        signature = ed.SigningKey(seed).sign(message)
        assert signature == ed._sign(seed, message)
        assert ed.verify(public, message, signature)
        assert ed.verify_reference(public, message, signature)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=64),
           st.integers(min_value=0, max_value=511))
    def test_windowed_verify_rejects_like_reference(self, seed, message,
                                                    flip):
        signature = bytearray(ed.sign(seed, message))
        signature[flip // 8] ^= 1 << (flip % 8)
        public = ed.public_key(seed)
        assert ed.verify(public, message, bytes(signature)) == \
            ed.verify_reference(public, message, bytes(signature))


class TestMLDSAParity:

    @settings(max_examples=30, deadline=None)
    @given(_POLY)
    def test_lazy_ntt_matches_reference(self, poly):
        assert m.ntt(poly) == mldsa_ref.ntt_reference(poly)

    @settings(max_examples=30, deadline=None)
    @given(_POLY)
    def test_lazy_intt_matches_reference(self, poly):
        assert m.intt(poly) == mldsa_ref.intt_reference(poly)

    @settings(max_examples=30, deadline=None)
    @given(_POLY)
    def test_ntt_roundtrip(self, poly):
        assert m._intt_raw(m._ntt_raw(poly)) == poly

    @settings(max_examples=20, deadline=None)
    @given(_POLY)
    def test_bulk_decompose_matches_scalar(self, poly):
        for gamma2 in ((m.Q - 1) // 88, (m.Q - 1) // 32):
            assert m._high_bits_poly(poly, gamma2) == \
                [m.high_bits(c, gamma2) for c in poly]
            assert m._low_bits_max([poly], gamma2) == \
                max(abs(m.low_bits(c, gamma2)) for c in poly)

    @pytest.mark.parametrize("width", [3, 4, 6, 10, 13, 18, 20])
    def test_bit_pack_kernels_match_scalar(self, width):
        """Every width in use: eta (3, 4), w1 (6, 4), t1 (10), t0 (13)
        and z (18, 20)."""
        rng = np.random.default_rng(width)
        top = (1 << width) - 1
        rows = np.concatenate([
            np.zeros((1, m.N), dtype=np.int64),
            np.full((1, m.N), top, dtype=np.int64),
            rng.integers(0, top + 1, size=(5, m.N))])
        packed = m._simple_bit_pack_np(rows, width)
        assert packed.dtype == np.uint8
        assert packed.tobytes() == b"".join(
            m.simple_bit_pack(row, top) for row in rows.tolist())
        b = top // 2
        data = packed.tobytes()
        assert m._bit_unpack_np(data, len(rows), width, b).tolist() == [
            m.bit_unpack(data[32 * width * i:32 * width * (i + 1)],
                         top - b, b) for i in range(len(rows))]

    @pytest.mark.parametrize("params", [ML_DSA_44, ML_DSA_65, ML_DSA_87],
                             ids=lambda p: p.name)
    def test_context_sign_byte_identical_to_reference(self, params):
        scheme = MLDSA(params)
        public, secret = scheme.key_gen(bytes(32))
        message, context = b"attest me", b"ctx"
        fast = scheme.sign(secret, message, context=context)
        reference = mldsa_ref.sign_reference(scheme, secret, message,
                                             context=context)
        assert fast == reference
        assert fast == scheme.signer(secret).sign(message,
                                                  context=context)
        assert scheme.verify(public, message, fast, context=context)
        assert mldsa_ref.verify_reference(scheme, public, message, fast,
                                          context=context)

    @settings(max_examples=3, deadline=None)
    @given(st.binary(max_size=48))
    def test_mldsa44_sign_matches_reference_on_any_message(self, msg):
        scheme = MLDSA(ML_DSA_44)
        _, secret = scheme.key_gen(bytes(32))
        assert scheme.sign(secret, msg) == \
            mldsa_ref.sign_reference(scheme, secret, msg)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=2420 * 8 - 1))
    def test_verify_rejects_like_reference(self, flip):
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(bytes(32))
        signature = bytearray(scheme.sign(secret, b"attest me"))
        signature[flip // 8] ^= 1 << (flip % 8)
        assert scheme.verify(public, b"attest me", bytes(signature)) == \
            mldsa_ref.verify_reference(scheme, public, b"attest me",
                                       bytes(signature))


class TestAESParity:

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([16, 24, 32]), st.binary(min_size=48,
                                                    max_size=48))
    def test_t_table_block_matches_reference(self, key_len, material):
        cipher = aes_mod.AES(material[:key_len])
        block = material[32:48]
        fast = cipher.encrypt_block(block)
        assert fast == cipher.encrypt_block_reference(block)
        assert cipher.decrypt_block(fast) == block


class TestBootMemo:

    SM_BINARY = b"fastpath-sm-image" * 64

    def test_memo_hit_is_byte_identical(self):
        rom = BootRom(Device(bytes(range(32))))
        first = rom.boot(self.SM_BINARY)
        second = rom.boot(self.SM_BINARY)
        assert second.encode() == first.encode()

    def test_memo_hit_replays_perf_delta(self):
        rom = BootRom(Device(hashlib.sha3_256(b"memo-perf").digest()))
        binary = b"memo-perf-sm" * 64
        with counting() as cold:
            rom.boot(binary)
        cold_delta = cold.delta()
        with counting() as warm:
            rom.boot(binary)
        warm_delta = warm.delta()
        assert cold_delta["tee.bootrom.boots"] == 1
        assert warm_delta == cold_delta

    def test_active_telemetry_takes_production_path(self):
        from repro.obs import TELEMETRY
        rom = BootRom(Device(hashlib.sha3_256(b"memo-spans").digest()))
        binary = b"memo-spans-sm" * 64
        clean = rom.boot(binary)          # warm the cache
        was_enabled = TELEMETRY.enabled
        TELEMETRY.enable()
        TELEMETRY.reset()
        try:
            traced = rom.boot(binary)
            names = {record["name"]
                     for record in TELEMETRY.tracer.snapshot()}
        finally:
            TELEMETRY.reset()
            TELEMETRY.enabled = was_enabled
        # A traced boot is served by the memo like any other; the hit
        # shows as one span instead of the measure/sign tree.
        assert names == {"tee.boot.cache.hit"}
        assert traced.encode() == clean.encode()

    def test_armed_faults_bypass_memo(self):
        rom = BootRom(Device(hashlib.sha3_256(b"memo-fault").digest()))
        binary = b"memo-fault-sm" * 64
        clean = rom.boot(binary)          # warm the cache
        FAULTS.arm(FaultSpec("tee.bootrom.measure", BIT_FLIP, bit=0))
        try:
            faulted = rom.boot(binary)
        finally:
            events = FAULTS.disarm()
        assert events, "the fault should fire: memo must not serve " \
                       "an armed-injection boot"
        assert faulted.sm_measurement != clean.sm_measurement
        # ...and the cache was neither consulted nor poisoned:
        assert rom.boot(binary).encode() == clean.encode()
