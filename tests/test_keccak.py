"""Tests for SHA-3/SHAKE: the ``hashlib``-backed production module and
the from-scratch FIPS 202 oracle in ``tests/reference/keccak.py``.

The strongest oracle available offline is ``hashlib``, which implements
the same FIPS 202 functions in C; the from-scratch sponge is
cross-validated against it on fixed and randomized inputs, and the
production entry points are pinned to the sponge.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import keccak as ref
from repro.crypto import keccak


class TestPermutation:
    def test_round_constant_count(self):
        assert len(ref.ROUND_CONSTANTS) == 24

    def test_rho_offsets_shape_and_origin(self):
        assert len(ref.ROTATION_OFFSETS) == 5
        assert all(len(row) == 5 for row in ref.ROTATION_OFFSETS)
        assert ref.ROTATION_OFFSETS[0][0] == 0

    def test_rho_offsets_known_values(self):
        # Spot-check entries of the FIPS 202 table.
        assert ref.ROTATION_OFFSETS[1][0] == 1
        assert ref.ROTATION_OFFSETS[2][2] == 43
        assert ref.ROTATION_OFFSETS[4][4] == 14

    def test_permutation_changes_zero_state(self):
        out = ref.keccak_f1600_reference([0] * 25)
        assert out != [0] * 25
        # First lane of Keccak-f[1600] applied to the zero state.
        assert out[0] == 0xF1258F7940E1DDE7

    def test_permutation_is_pure(self):
        state = list(range(25))
        snapshot = list(state)
        ref.keccak_f1600_reference(state)
        assert state == snapshot


class TestPureAgainstHashlib:
    """The from-scratch sponge must be byte-identical to CPython's C
    implementation of FIPS 202 — this is what makes it an oracle."""

    CASES = [b"", b"a", b"abc", b"x" * 135, b"x" * 136, b"x" * 137,
             b"y" * 1000]

    @pytest.mark.parametrize("data", CASES)
    def test_sha3_256(self, data):
        assert ref.sha3_256(data) == hashlib.sha3_256(data).digest()

    @pytest.mark.parametrize("data", CASES)
    def test_sha3_512(self, data):
        assert ref.sha3_512(data) == hashlib.sha3_512(data).digest()

    @pytest.mark.parametrize("data", CASES)
    def test_shake128(self, data):
        assert ref.shake128(data, 64) == hashlib.shake_128(data).digest(64)

    @pytest.mark.parametrize("data", CASES)
    def test_shake256(self, data):
        assert ref.shake256(data, 64) == hashlib.shake_256(data).digest(64)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=600), st.integers(min_value=1, max_value=300))
    def test_shake256_random(self, data, out_len):
        assert ref.shake256(data, out_len) == \
            hashlib.shake_256(data).digest(out_len)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=600))
    def test_sha3_256_random(self, data):
        assert ref.sha3_256(data) == hashlib.sha3_256(data).digest()


class TestDispatch:
    """The production entry points agree with the from-scratch sponge."""

    @pytest.mark.parametrize("data", [b"", b"dispatch", b"z" * 137])
    def test_oneshot_functions(self, data):
        assert keccak.sha3_256(data) == ref.sha3_256(data)
        assert keccak.sha3_512(data) == ref.sha3_512(data)
        assert keccak.shake128(data, 77) == ref.shake128(data, 77)
        assert keccak.shake256(data, 77) == ref.shake256(data, 77)

    def test_public_surface_is_the_production_path(self):
        # Six entry points over hashlib: no backend switch, no batch
        # sponge, no numpy and no perf counters.
        public = {name for name in vars(keccak) if not name.startswith("_")}
        assert public == {"hashlib", "sha3_256", "sha3_512", "shake128",
                          "shake256", "Shake128", "Shake256"}


class TestIncremental:
    def test_split_absorption_matches_oneshot(self):
        xof = keccak.Shake256()
        xof.absorb(b"hello ").absorb(b"world")
        assert xof.read(99) == keccak.shake256(b"hello world", 99)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=64),
           st.lists(st.integers(min_value=0, max_value=300), max_size=8),
           st.sampled_from([(keccak.Shake128, "shake_128"),
                            (keccak.Shake256, "shake_256")]))
    def test_split_squeeze_matches_oneshot(self, seed, reads, xof_name):
        xof_cls, name = xof_name
        xof = xof_cls(seed)
        out = b"".join(xof.read(length) for length in reads)
        assert out == hashlib.new(name, seed).digest(sum(reads))

    @pytest.mark.parametrize("xof_cls,name", [(keccak.Shake128, "shake_128"),
                                              (keccak.Shake256, "shake_256")])
    def test_byte_reads_cross_rate_blocks(self, xof_cls, name):
        # SampleInBall's access pattern, run past several rate blocks so
        # the squeeze-ahead buffer grows more than once.
        xof = xof_cls(b"ball")
        out = xof.read(8) + b"".join(xof.read(1) for _ in range(700))
        assert out == hashlib.new(name, b"ball").digest(708)

    def test_absorb_after_read_rejected(self):
        xof = keccak.Shake256(b"x")
        xof.read(1)
        with pytest.raises(RuntimeError):
            xof.absorb(b"late")

    def test_pure_sponge_split_squeeze(self):
        sponge = ref.KeccakSponge(136, 0x1F).absorb(b"seed")
        out = sponge.squeeze(10) + sponge.squeeze(200)
        assert out == hashlib.shake_256(b"seed").digest(210)

    def test_pure_sponge_absorb_after_squeeze_rejected(self):
        sponge = ref.KeccakSponge(136, 0x1F)
        sponge.squeeze(1)
        with pytest.raises(RuntimeError):
            sponge.absorb(b"late")

    def test_invalid_rate_rejected(self):
        # 137 is in range but not lane-aligned: a partial trailing lane
        # would drop each block's last byte from the absorbed state.
        for rate in (0, 200, 137):
            with pytest.raises(ValueError):
                ref.KeccakSponge(rate, 0x06)

    def test_squeeze_across_rate_boundary(self):
        # 136-byte rate: a 150-byte read forces a mid-read permutation.
        assert ref.shake256(b"q", 150) == hashlib.shake_256(b"q").digest(150)
