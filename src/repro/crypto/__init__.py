"""Cryptographic substrate for the CONVOLVE reproduction.

Everything the post-quantum TEE and the HADES case studies rely on.
SHA-3/SHAKE run on :mod:`hashlib`; the rest is implemented from scratch
in pure Python:

* :mod:`~repro.crypto.keccak` — SHA3-256/512, SHAKE128/256 over hashlib
* :mod:`~repro.crypto.aes` — AES-128/192/256 + CTR + encrypt-then-MAC AEAD
* :mod:`~repro.crypto.ed25519` — RFC 8032 signatures (Keystone default)
* :mod:`~repro.crypto.mldsa` — FIPS 204 ML-DSA-44/65/87 (the PQ addition)
* :mod:`~repro.crypto.mlkem` — FIPS 203 ML-KEM-512/768/1024 (Kyber)
* :mod:`~repro.crypto.hybrid` — Ed25519 & ML-DSA hybrid signatures
* :mod:`~repro.crypto.kdf` — SHAKE256 key derivation

These are behavioural references for the simulator, not hardened
constant-time implementations.  The hot paths — windowed Ed25519
scalar multiplication, keyed ML-DSA signing/verification contexts on
batched int64 numpy NTT kernels, and AES T-tables — are pinned
byte-identical to retained loop-form references by KAT and hypothesis
parity suites (``tests/test_crypto_fastpaths.py``).  The from-scratch
Keccak-f[1600] sponge lives in ``tests/reference/keccak.py`` as the
FIPS 202 oracle ``tests/test_keccak.py`` pins ``hashlib`` against.
"""

from .keccak import sha3_256, sha3_512, shake128, shake256
from .aes import AES, aes_ctr, open_aead, seal_aead
from .ed25519 import Ed25519KeyPair, SigningKey
from .mldsa import ML_DSA_44, ML_DSA_65, ML_DSA_87, MLDSA
from .mlkem import ML_KEM_512, ML_KEM_768, ML_KEM_1024, MLKEM
from .hybrid import HybridKeyPair, HybridPublicKey
from .kdf import derive_key, derive_seed_pair

__all__ = [
    "sha3_256", "sha3_512", "shake128", "shake256",
    "AES", "aes_ctr", "seal_aead", "open_aead",
    "Ed25519KeyPair", "SigningKey",
    "MLDSA", "ML_DSA_44", "ML_DSA_65", "ML_DSA_87",
    "MLKEM", "ML_KEM_512", "ML_KEM_768", "ML_KEM_1024",
    "HybridKeyPair", "HybridPublicKey",
    "derive_key", "derive_seed_pair",
]
