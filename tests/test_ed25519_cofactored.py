"""Ed25519 verdict parity under signer-crafted inputs.

A malicious signer (SeDA's malicious-device threat model) can publish
``R' = r*B + T`` for a small-torsion point ``T``, or a mixed-order key
``A' = A + T``.  Scalar :func:`~repro.crypto.ed25519.verify`, batch
:func:`~repro.crypto.ed25519.verify_batch` (Straus chain and Pippenger
MSM) and :func:`~repro.crypto.ed25519.verify_reference` must agree on
every such lane, whatever else shares its batch and in whatever order:
all three apply the cofactored rule ``[8](s*B - R - k*A) == 0`` and
reject small-order keys.  The service built on top must therefore give
verdicts independent of ``max_batch``.  The torsion points are made in
the test, by multiplying curve points by the group order ``L``.
"""

import hashlib
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519 as ed
from repro.obs.perf import counting
from repro.tee import AttestationService, build_tee, verify_report
from repro.tee.attestation import AttestationReport

#: The order-2 point (0, -1).
T2 = (0, ed.P - 1, 1, 0)


def _torsion_points() -> dict:
    """``{order: point}`` for small orders 2, 4 and 8, as ``L * P`` of
    curve points (and multiples of one of order 8)."""
    y = 2
    while True:
        try:
            point = ed._decompress(y.to_bytes(32, "little"))
        except ValueError:
            y += 1
            continue
        torsion = ed._point_mul(ed.L, point)
        if not ed._point_equal(ed._point_mul(4, torsion), ed._IDENTITY):
            return {8: torsion, 4: ed._point_mul(2, torsion),
                    2: ed._point_mul(4, torsion)}
        y += 1


TORSION = _torsion_points()


def _seed(tag: str) -> bytes:
    return hashlib.sha3_256(b"cofactored:" + tag.encode()).digest()


def _scalar(seed: bytes) -> int:
    return ed._clamp(hashlib.sha512(seed).digest()[:32])


def _nonce(seed: bytes, message: bytes) -> int:
    prefix = hashlib.sha512(seed).digest()[32:]
    return int.from_bytes(hashlib.sha512(prefix + message).digest(),
                          "little") % ed.L


def _sign_with(seed: bytes, message: bytes, public: bytes,
               r_offset=None) -> bytes:
    """Sign with the secret of ``seed`` under the published ``public``
    key, publishing ``R = r*B (+ r_offset)``."""
    a = _scalar(seed)
    r = _nonce(seed, message)
    r_point = ed._point_mul_base(r)
    if r_offset is not None:
        r_point = ed._point_add(r_point, r_offset)
    r_encoded = ed._compress(r_point)
    k = int.from_bytes(hashlib.sha512(r_encoded + public
                                      + message).digest(), "little") % ed.L
    return r_encoded + ((r + k * a) % ed.L).to_bytes(32, "little")


def torsion_signature(seed: bytes, message: bytes, torsion=T2) -> bytes:
    """An honest signature whose published nonce point carries a
    torsion component: ``R' = r*B + T``."""
    return _sign_with(seed, message, ed.public_key(seed), torsion)


def mixed_key(seed: bytes, torsion=None) -> bytes:
    """The mixed-order public key ``A + T`` for the secret of ``seed``."""
    point = ed._point_mul_base(_scalar(seed))
    return ed._compress(ed._point_add(point, torsion or TORSION[8]))


def honest(seed: bytes, message: bytes) -> tuple:
    return ed.public_key(seed), message, ed.sign(seed, message)


@contextmanager
def msm_lanes(value: int):
    was = ed._MSM_LANES
    ed._MSM_LANES = value
    try:
        yield
    finally:
        ed._MSM_LANES = was


STRAUS, MSM = 10 ** 9, 2


def assert_parity(items):
    """Batch verdicts on both paths equal the scalar and reference
    verdicts; returns them."""
    scalar = [ed.verify(*item) for item in items]
    assert [ed.verify_reference(*item) for item in items] == scalar
    for path in (STRAUS, MSM):
        with msm_lanes(path):
            assert ed.verify_batch(items) == scalar, path
    return scalar


class TestTorsionCraftedR:

    def test_two_lane_straus_reproduction(self):
        seed = _seed("pair")
        items = [(ed.public_key(seed), m, torsion_signature(seed, m))
                 for m in (b"crafted-1", b"crafted-2")]
        assert assert_parity(items) == [True, True]

    def test_msm_reproduction_70_honest_2_crafted(self):
        items = [honest(_seed(f"honest-{i % 23}"), b"h-%d" % i)
                 for i in range(70)]
        seed = _seed("crafted")
        items[17:17] = [(ed.public_key(seed), m, torsion_signature(seed, m))
                        for m in (b"crafted-a", b"crafted-b")]
        assert len(items) == 72 >= ed._MSM_LANES
        assert ed.verify_batch(items) == [ed.verify(*item) for item in items]
        assert assert_parity(items) == [True] * 72

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_single_crafted_lane(self, order):
        seed = _seed(f"single-{order}")
        crafted = (ed.public_key(seed), b"alone",
                   torsion_signature(seed, b"alone", TORSION[order]))
        assert ed.verify_batch([crafted]) == [ed.verify(*crafted)]
        items = [honest(_seed("a"), b"x"), crafted, honest(_seed("b"), b"y")]
        assert assert_parity(items) == [True, True, True]

    def test_crafted_lane_with_wrong_s_rejected_everywhere(self):
        seed = _seed("wrong-s")
        sig = torsion_signature(seed, b"m")
        s = (int.from_bytes(sig[32:], "little") + 1) % ed.L
        bad = (ed.public_key(seed), b"m", sig[:32] + s.to_bytes(32, "little"))
        items = [honest(_seed("c"), b"x"), bad, honest(_seed("c"), b"y")]
        assert assert_parity(items) == [True, False, True]


class TestKeys:

    @pytest.mark.parametrize("order", [1, 2, 4, 8])
    def test_small_order_key_rejected_on_every_path(self, order):
        point = ed._IDENTITY if order == 1 else TORSION[order]
        public = ed._compress(point)
        # With a small-order A, R = s*B passes [8](s*B - R - k*A) == 0
        # for any message: the key itself must be refused.
        forged = [(public, b"forged-%d" % i,
                   ed._compress(ed._point_mul_base(5 + i))
                   + (5 + i).to_bytes(32, "little")) for i in range(3)]
        zero = (public, b"m", ed._compress(point) + bytes(32))
        items = forged + [zero, honest(_seed("d"), b"z")]
        assert assert_parity(items) == [False] * 4 + [True]

    def test_mixed_order_key_same_verdict_on_every_path(self):
        seeds = [_seed(f"mixed-{i}") for i in range(3)]
        items = []
        for seed in seeds:
            public = mixed_key(seed)
            items += [(public, m, _sign_with(seed, m, public))
                      for m in (b"m1", b"m2")]
        items.append(honest(_seed("e"), b"plain"))
        assert assert_parity(items) == [True] * 7

    def test_non_canonical_encodings_rejected(self):
        public, message, sig = honest(_seed("f"), b"canon")
        y_big = (ed.P + 1).to_bytes(32, "little")        # y >= p
        s_big = (int.from_bytes(sig[32:], "little") + ed.L)
        items = [(public, message, sig),
                 (y_big, message, sig),
                 (public, message, y_big + sig[32:]),
                 (public, message, sig[:32] + s_big.to_bytes(32, "little"))]
        assert assert_parity(items) == [True, False, False, False]


def _lane_pool() -> list:
    pool = [honest(_seed(f"pool-{i % 3}"), b"pool-%d" % i) for i in range(6)]
    for order in (2, 4, 8):
        seed = _seed(f"pool-torsion-{order}")
        pool.append((ed.public_key(seed), b"t%d" % order,
                     torsion_signature(seed, b"t%d" % order,
                                       TORSION[order])))
    seed = _seed("pool-mixed")
    public = mixed_key(seed)
    pool.append((public, b"mixed", _sign_with(seed, b"mixed", public)))
    public, message, sig = honest(_seed("pool-0"), b"tampered")
    pool.append((public, message + b"!", sig))               # bad lane
    pool.append((ed._compress(T2), b"small", ed._compress(T2) + bytes(32)))
    return pool


_POOL = _lane_pool()
_POOL_VERDICTS = [ed.verify(*item) for item in _POOL]


class TestBatchComposition:

    def test_pool_verdicts(self):
        assert _POOL_VERDICTS == [True] * 10 + [False, False]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=len(_POOL) - 1),
                    min_size=2, max_size=14),
           st.sampled_from([STRAUS, MSM]))
    def test_verdicts_invariant_under_composition(self, picks, path):
        items = [_POOL[i] for i in picks]
        with msm_lanes(path):
            assert ed.verify_batch(items) == \
                [_POOL_VERDICTS[i] for i in picks]

    @settings(max_examples=15, deadline=None)
    @given(st.permutations(range(len(_POOL))))
    def test_permutation_invariance(self, order):
        items = [_POOL[i] for i in order]
        for path in (STRAUS, MSM):
            with msm_lanes(path):
                assert ed.verify_batch(items) == \
                    [_POOL_VERDICTS[i] for i in order]


class TestSharedKeyTerms:
    """Lanes that share a public key contribute one ``-A`` term."""

    @staticmethod
    def _items(keys: int, lanes: int) -> list:
        return [honest(_seed(f"shared-{i % keys}"), b"shared-%d" % i)
                for i in range(lanes)]

    @pytest.mark.parametrize("path", [STRAUS, MSM], ids=["straus", "msm"])
    def test_bad_lane_sharing_a_key_with_honest_lanes(self, path):
        items = self._items(2, 8)
        public, message, sig = items[4]
        items[4] = (public, b"substituted", sig)
        items[6] = (items[6][0], items[6][1], items[7][2])
        with msm_lanes(path):
            assert ed.verify_batch(items) == \
                [ed.verify(*item) for item in items]
        assert [ed.verify(*item) for item in items].count(False) == 2

    def test_msm_points_count_keys_not_lanes(self):
        items = self._items(3, 12)
        with msm_lanes(MSM), counting() as window:
            assert ed.verify_batch(items) == [True] * 12
        # The base point, one -R per lane and one -A per key.
        assert window.delta()["crypto.ed25519.msm_points"] == 1 + 12 + 3

    def test_straus_adds_fewer_than_per_lane_terms(self):
        shared, distinct = self._items(2, 10), self._items(10, 10)
        with msm_lanes(STRAUS):
            with counting() as window:
                assert ed.verify_batch(shared) == [True] * 10
            shared_adds = window.delta()["crypto.ed25519.point_adds"]
            with counting() as window:
                assert ed.verify_batch(distinct) == [True] * 10
            distinct_adds = window.delta()["crypto.ed25519.point_adds"]
        assert shared_adds < distinct_adds


class TestServiceVerdicts:
    """A malicious device's torsion-crafted reports get the same
    verdicts whatever the batch size that groups them."""

    @pytest.fixture(scope="class")
    def submissions(self):
        platform = build_tee(b"cofactored-device-root-secret-00",
                             post_quantum=False)
        enclave = platform.sm.create_enclave(b"cofactored-enclave")
        sm_seed = platform.boot_report.sm_ed25519_seed
        blobs = platform.sm.attestation_requests(
            [enclave] * 6, [b"req-%d" % i for i in range(6)])
        crafted = []
        for index, blob in enumerate(blobs):
            report = AttestationReport.decode(blob)
            if index in (1, 2, 4):
                report.enclave_signature = torsion_signature(
                    sm_seed, report.enclave_payload())
            if index == 5:
                report.enclave_data = b"altered"
            crafted.append(report)
        identity = platform.device.public_identity()
        return identity, crafted

    def test_verdicts_independent_of_max_batch(self, submissions):
        identity, reports = submissions
        scalar = [verify_report(r, identity) for r in reports]
        assert scalar == [True] * 5 + [False]
        for max_batch in (1, 2, 3, 4, 64):
            service = AttestationService({"dev": identity},
                                         max_batch=max_batch)
            results = service.process(
                [("dev", r.encode()) for r in reports], jobs=1)
            assert [r["ok"] for r in results] == scalar, max_batch
