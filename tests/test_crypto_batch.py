"""Parity suites for the batch-throughput kernels.

Every batch API added for serving-scale throughput — ML-DSA
``sign_many``/``verify_many``, Ed25519 random-linear-combination batch
verification, vectorized CIM trace synthesis and the TEE consumers
threading them — is pinned here against a per-call scalar loop:
byte-identical outputs (signatures, toggle counts, reports) or
boolean-identical verdicts, across all three ML-DSA parameter sets,
ragged batch sizes and injected-invalid lanes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.countermeasures import MaskedCimMacro, ShuffledCimMacro
from repro.cim.macro import DigitalCimMacro
from repro.cim.power import PowerModel
from repro.cim.tvla import assess_macro, welch_t
from repro.crypto import ed25519 as ed
from repro.crypto import hybrid
from repro.crypto.mldsa import ML_DSA_44, ML_DSA_65, ML_DSA_87, MLDSA
from repro.obs.exposition import parse_exposition, render
from repro.obs.perf import counting
from repro.tee import build_tee, verify_report, verify_reports

ALL_PARAMS = (ML_DSA_44, ML_DSA_65, ML_DSA_87)
RAGGED_SIZES = (1, 2, 63, 64, 65)
MAX_BATCH = max(RAGGED_SIZES)


def _messages(count: int) -> list:
    return [b"batch-message-%04d" % i for i in range(count)]


@pytest.fixture(scope="module", params=[p.name for p in ALL_PARAMS])
def mldsa_setup(request):
    params = next(p for p in ALL_PARAMS if p.name == request.param)
    scheme = MLDSA(params)
    public, secret = scheme.key_gen(b"\x42" * 32)
    messages = _messages(MAX_BATCH)
    signer = scheme.signer(secret)
    signatures = [signer.sign(m) for m in messages]
    return scheme, public, secret, messages, signatures


class TestMLDSABatch:

    def test_sign_many_matches_scalar_across_sizes(self, mldsa_setup):
        scheme, _, secret, messages, signatures = mldsa_setup
        signer = scheme.signer(secret)
        for size in RAGGED_SIZES:
            assert signer.sign_many(messages[:size]) == \
                signatures[:size], size
        assert signer.sign_many([]) == []

    def test_sign_many_with_context(self, mldsa_setup):
        scheme, _, secret, messages, _ = mldsa_setup
        signer = scheme.signer(secret)
        context = b"batch-ctx"
        assert signer.sign_many(messages[:3], context=context) == \
            [signer.sign(m, context=context) for m in messages[:3]]

    def test_verify_many_matches_scalar_across_sizes(self, mldsa_setup):
        scheme, public, _, messages, signatures = mldsa_setup
        verifier = scheme.verifier(public)
        scalar = [verifier.verify(m, s)
                  for m, s in zip(messages, signatures)]
        assert scalar == [True] * MAX_BATCH
        for size in RAGGED_SIZES:
            assert verifier.verify_many(messages[:size],
                                        signatures[:size]) == \
                scalar[:size], size
        assert verifier.verify_many([], []) == []

    def test_verify_many_rejects_injected_invalid_lanes(self,
                                                        mldsa_setup):
        scheme, public, _, messages, signatures = mldsa_setup
        verifier = scheme.verifier(public)
        bad = list(signatures[:8])
        bad[1] = bytes(len(bad[1]))                   # zeroed signature
        bad[3] = bad[3][:-1]                          # truncated
        bad[5] = b"\xff" + bad[5][1:]                 # c_tilde corrupted
        bad[6] = bad[6][:-1] + bytes([bad[6][-1] ^ 1])  # hint corrupted
        msgs = list(messages[:8])
        msgs[7] = b"wrong message"
        scalar = [verifier.verify(m, s) for m, s in zip(msgs, bad)]
        assert scalar == [True, False, True, False, True, False,
                          False, False]
        assert verifier.verify_many(msgs, bad) == scalar

    def test_batch_counters_distinguish_batch_from_scalar(self):
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(b"\x42" * 32)
        messages = _messages(4)
        with counting() as window:
            signatures = scheme.sign_many(secret, messages)
        delta = window.delta()
        assert delta["crypto.mldsa.sign"] == 4
        assert delta["crypto.mldsa.batch_sign_lanes"] == 4
        with counting() as window:
            assert scheme.verify_many(public, messages, signatures) == \
                [True] * 4
        delta = window.delta()
        assert delta["crypto.mldsa.verify"] == 4
        assert delta["crypto.mldsa.batch_verify_lanes"] == 4
        with counting() as window:
            assert scheme.verify(public, messages[0], signatures[0])
        delta = window.delta()
        assert "crypto.mldsa.batch_verify_lanes" not in delta

    def test_ntt_counter_totals_match_scalar_loop(self):
        """Staged sub-batching must keep ``ntt_calls`` totals exactly
        equal to the per-call loop (the transparency contract)."""
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(b"\x42" * 32)
        messages = _messages(6)
        signer = scheme.signer(secret)
        with counting() as window:
            signatures = signer.sign_many(messages)
        batch = {k: v for k, v in window.delta().items()
                 if not k.startswith("crypto.mldsa.batch_")}
        with counting() as window:
            assert [signer.sign(m) for m in messages] == signatures
        assert window.delta() == batch

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.binary(max_size=40), min_size=0, max_size=6),
           st.randoms(use_true_random=False))
    def test_hypothesis_verify_many_parity(self, messages, rand):
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(b"\x42" * 32)
        signer = scheme.signer(secret)
        verifier = scheme.verifier(public)
        signatures = []
        for message in messages:
            sig = signer.sign(message)
            roll = rand.random()
            if roll < 0.3:
                position = rand.randrange(len(sig))
                sig = (sig[:position]
                       + bytes([sig[position] ^ (1 << rand.randrange(8))])
                       + sig[position + 1:])
            elif roll < 0.4:
                sig = sig[:rand.randrange(len(sig))]
            signatures.append(sig)
        scalar = [verifier.verify(m, s)
                  for m, s in zip(messages, signatures)]
        assert verifier.verify_many(messages, signatures) == scalar


def _cross_key_pool():
    """Three ML-DSA-44 keys with four signed messages each."""
    scheme = MLDSA(ML_DSA_44)
    keys = [scheme.key_gen(bytes([0x60 + i]) * 32) for i in range(3)]
    pool = []
    for k, (public, secret) in enumerate(keys):
        signer = scheme.signer(secret)
        for j in range(4):
            message = b"cross-key-%d-%d" % (k, j)
            pool.append((k, message, signer.sign(message)))
    return scheme, [public for public, _ in keys], pool


_CROSS = _cross_key_pool()
_Z_END = ML_DSA_44.ctilde_bytes + 32 * ML_DSA_44.z_bits * ML_DSA_44.l


def _tamper(signature: bytes, kind: str, rand) -> bytes:
    """One structural or cryptographic defect in a signature."""
    def flip(lo, hi):
        at = rand.randrange(lo, hi)
        bit = 1 << rand.randrange(8)
        return (signature[:at] + bytes([signature[at] ^ bit])
                + signature[at + 1:])
    if kind == "ctilde":
        return flip(0, ML_DSA_44.ctilde_bytes)
    if kind == "z":
        return flip(ML_DSA_44.ctilde_bytes, _Z_END)
    if kind == "hint":
        return flip(_Z_END, len(signature))
    if kind == "truncated":
        return signature[:-1]
    return signature


class TestMLDSACrossKey:
    """``MLDSA.verify_many`` with a per-lane key sequence: one stacked
    pass across keys, each lane's verdict that of scalar ``verify``."""

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=len(_CROSS[2]) - 1),
        st.sampled_from(["own", "own", "other", "short-key"]),
        st.sampled_from(["none", "none", "ctilde", "z", "hint",
                         "truncated"])), max_size=10),
        st.randoms(use_true_random=False))
    def test_mixed_keys_match_scalar_loop(self, lanes, rand):
        scheme, publics, pool = _CROSS
        keys, messages, signatures = [], [], []
        for index, key_kind, tamper in lanes:
            owner, message, signature = pool[index]
            key = publics[owner]
            if key_kind == "other":
                key = publics[(owner + 1) % len(publics)]
            elif key_kind == "short-key":
                key = key[:-1]
            keys.append(key)
            messages.append(message)
            signatures.append(_tamper(signature, tamper, rand))
        scalar = [scheme.verify(k, m, s)
                  for k, m, s in zip(keys, messages, signatures)]
        assert scheme.verify_many(keys, messages, signatures) == scalar

    def test_one_key_equals_key_sequence(self):
        scheme, publics, pool = _CROSS
        lanes = [lane for lane in pool if lane[0] == 1]
        messages = [m for _, m, _ in lanes]
        signatures = [s for _, _, s in lanes]
        signatures[2] = _tamper(signatures[2], "ctilde", random.Random(7))
        with counting() as window:
            single = scheme.verify_many(publics[1], messages, signatures)
        one = window.delta()
        with counting() as window:
            sequence = scheme.verify_many([publics[1]] * len(messages),
                                          messages, signatures)
        assert single == sequence == [True, True, False, True]
        assert window.delta() == one
        assert scheme.verifier(publics[1]).verify_many(
            messages, signatures) == single

    def test_bad_key_rejects_only_its_lanes(self):
        scheme, publics, pool = _CROSS
        (_, m0, s0), (_, m1, s1) = pool[0], pool[4]
        keys = [publics[0], publics[1][:-3], publics[1], b""]
        assert scheme.verify_many(keys, [m0, m1, m1, m0],
                                  [s0, s1, s1, s0]) == \
            [True, False, True, False]
        with counting() as window:
            assert scheme.verify_many(b"short", [m0], [s0]) == [False]
        assert "crypto.mldsa.verify" not in window.delta()

    def test_empty_and_mismatched_inputs(self):
        scheme, publics, _ = _CROSS
        assert scheme.verify_many([], [], []) == []
        assert scheme.verify_many(publics[0], [], []) == []
        with pytest.raises(ValueError):
            scheme.verify_many([publics[0]], [b"a", b"b"], [b"", b""])
        with pytest.raises(ValueError):
            scheme.verify_many(publics[0], [b"a"], [])


@pytest.fixture(scope="module")
def ed_batch():
    lanes = []
    for i in range(MAX_BATCH):
        seed = bytes([i]) * 32
        public = ed.public_key(seed)
        message = b"attest-%04d" % i
        lanes.append((public, message, ed.sign(seed, message)))
    return lanes


class TestEd25519Batch:

    def test_verify_batch_matches_scalar_across_sizes(self, ed_batch):
        for size in RAGGED_SIZES:
            assert ed.verify_batch(ed_batch[:size]) == [True] * size
        assert ed.verify_batch([]) == []

    def test_verify_batch_localizes_offenders(self, ed_batch):
        items = [list(lane) for lane in ed_batch[:10]]
        items[2][2] = bytes(64)                      # invalid signature
        items[4][1] = b"substituted message"
        items[7][2] = items[7][2][:32] + (2**253).to_bytes(32, "little")
        items = [tuple(lane) for lane in items]
        scalar = [ed.verify(*lane) for lane in items]
        expected = [True] * 10
        expected[2] = expected[4] = expected[7] = False
        assert scalar == expected
        assert ed.verify_batch(items) == expected

    def test_verify_batch_structural_rejects(self, ed_batch):
        public, message, signature = ed_batch[0]
        items = [
            (public, message, signature),
            (public[:-1], message, signature),        # bad pk length
            (public, message, signature[:-1]),        # bad sig length
            (b"\xff" * 32, message, signature),       # invalid pk
            # R encoding no compression produces (y >= P)
            (public, message, b"\xff" * 32 + signature[32:]),
        ]
        scalar = [ed.verify(*lane) for lane in items]
        assert scalar == [True, False, False, False, False]
        assert ed.verify_batch(items) == scalar

    def test_batch_counter(self, ed_batch):
        with counting() as window:
            assert ed.verify_batch(ed_batch[:5]) == [True] * 5
        assert window.delta()["crypto.ed25519.batch_verifies"] == 5

    def test_empty_batch_allocates_no_span(self):
        from repro.obs import TELEMETRY
        was_enabled = TELEMETRY.enabled
        TELEMETRY.enable()
        TELEMETRY.reset()
        try:
            assert ed.verify_batch([]) == []
            spans = TELEMETRY.tracer.snapshot()
        finally:
            TELEMETRY.reset()
            TELEMETRY.enabled = was_enabled
        assert spans == []

    def test_batch_of_one_short_circuits_to_scalar(self, ed_batch):
        with counting() as window:
            assert ed.verify_batch(ed_batch[:1]) == [True]
        delta = window.delta()
        assert "crypto.ed25519.batch_verifies" not in delta
        assert delta["crypto.ed25519.verify"] == 1

    def test_duplicate_keys_share_one_wnaf_table(self, monkeypatch):
        from repro.runtime.memo import Memo
        seed = b"\x21" * 32
        public = ed.public_key(seed)
        lanes = [(public, b"dup-%d" % i, ed.sign(seed, b"dup-%d" % i))
                 for i in range(6)]
        # Fresh memo: one per-key entry and one merged -A term, not
        # global cache warmth, must deduplicate the table build.
        monkeypatch.setattr(ed, "_VERIFY_MEMO", Memo(maxsize=256))
        calls = []
        real_table = ed._point_table

        def counting_table(point, width=ed._WNAF_POINT):
            if width == ed._WNAF_BATCH:
                calls.append(ed._compress(ed._point_negate(point)))
            return real_table(point, width)

        monkeypatch.setattr(ed, "_point_table", counting_table)
        with counting() as cold:
            assert ed.verify_batch(lanes) == [True] * len(lanes)
        cold_delta = cold.delta()   # snapshot before the warm rerun
        assert calls == [public]
        # Online point_adds are cache-warmth independent: the warm rerun
        # (memoized tables, no builds) ticks the exact same delta.
        with counting() as warm:
            assert ed.verify_batch(lanes) == [True] * len(lanes)
        assert warm.delta()["crypto.ed25519.point_adds"] == \
            cold_delta["crypto.ed25519.point_adds"]


class TestEd25519Msm:
    """The Pippenger bucket-MSM path above the lane crossover."""

    def test_msm_matches_straus_and_scalar(self, ed_batch, monkeypatch):
        items = [list(lane) for lane in ed_batch[:16]]
        items[3][2] = bytes(64)                       # invalid lane
        items[8][1] = b"tampered message"
        items = [tuple(lane) for lane in items]
        scalar = [ed.verify(*lane) for lane in items]
        assert scalar.count(False) == 2
        monkeypatch.setattr(ed, "_MSM_LANES", 10 ** 9)
        straus = ed.verify_batch(items)
        monkeypatch.setattr(ed, "_MSM_LANES", 2)
        msm = ed.verify_batch(items)
        assert msm == straus == scalar

    def test_msm_counters(self, ed_batch, monkeypatch):
        monkeypatch.setattr(ed, "_MSM_LANES", 2)
        with counting() as window:
            assert ed.verify_batch(ed_batch[:8]) == [True] * 8
        delta = window.delta()
        # One combined chain: the base point plus -R_i and -A_i per lane.
        assert delta["crypto.ed25519.msm_points"] == 17
        assert delta["crypto.ed25519.msm_point_adds"] > 0
        assert delta["crypto.ed25519.msm_doublings"] > 0
        # Below the crossover the Straus chain carries no msm_* events.
        monkeypatch.setattr(ed, "_MSM_LANES", 10 ** 9)
        with counting() as window:
            assert ed.verify_batch(ed_batch[:8]) == [True] * 8
        assert "crypto.ed25519.msm_points" not in window.delta()


def _cim_macros(weights):
    return (
        ("plain", lambda: DigitalCimMacro(list(weights))),
        ("masked1", lambda: MaskedCimMacro(list(weights), seed=5)),
        ("masked2", lambda: MaskedCimMacro(list(weights), seed=5,
                                           order=2)),
        ("shuffled", lambda: ShuffledCimMacro(list(weights), seed=9)),
    )


class TestCimVectorized:

    @pytest.mark.parametrize("length", [1, 3, 16])
    def test_query_fresh_many_bit_equal(self, length):
        rng = np.random.default_rng(length)
        weights = [int(w) for w in rng.integers(0, 16, length)]
        masks = rng.integers(0, 2, size=(40, length))
        for name, make in _cim_macros(weights):
            scalar_macro = make()
            scalar = [scalar_macro.query_fresh([int(b) for b in row])
                      for row in masks]
            batch_macro = make()
            assert batch_macro.query_fresh_many(masks).tolist() == \
                scalar, name
            # Final macro state (registers, tree nodes, RNG stream)
            # must match the scalar loop exactly.
            assert batch_macro.mac_register == scalar_macro.mac_register
            assert batch_macro.tree._levels == scalar_macro.tree._levels
            if hasattr(batch_macro, "_rng"):
                assert batch_macro._rng.bit_generator.state == \
                    scalar_macro._rng.bit_generator.state, name

    def test_query_fresh_many_validates(self):
        macro = DigitalCimMacro([1, 2, 3])
        with pytest.raises(ValueError):
            macro.query_fresh_many(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            macro.query_fresh_many(np.full((2, 3), 2, dtype=np.int64))

    def test_measure_many_parity(self):
        toggles = list(range(30))
        for sigma in (0.0, 1.7):
            scalar_power = PowerModel(noise_sigma=sigma, seed=3)
            batch_power = PowerModel(noise_sigma=sigma, seed=3)
            assert [scalar_power.measure(t) for t in toggles] == \
                batch_power.measure_many(toggles).tolist()

    def test_trace_parity_with_interleaved_scalar_loop(self):
        weights = [3, 7, 15, 0, 9, 12, 1, 4]
        inputs = [1, 0, 1, 1, 0, 1, 0, 1]
        scalar_macro = MaskedCimMacro(list(weights), seed=2)
        scalar_power = PowerModel(noise_sigma=1.0, seed=4)
        scalar = [scalar_power.measure(scalar_macro.query_fresh(inputs))
                  for _ in range(25)]
        batch_macro = MaskedCimMacro(list(weights), seed=2)
        batch_power = PowerModel(noise_sigma=1.0, seed=4)
        assert batch_power.trace(batch_macro, inputs,
                                 repetitions=25).tolist() == scalar

    def test_tvla_matches_scalar_reference_loop(self):
        """``assess_macro`` pinned to an inline copy of the pre-batch
        scalar loop, including the interleaved noise-stream order."""
        weights = [0, 3, 7, 15, 15, 0, 7, 3]
        traces, sigma, seed = 60, 1.0, 11

        def scalar_reference(factory):
            rng = np.random.default_rng(seed)
            power = PowerModel(noise_sigma=sigma, seed=seed + 1)
            mask = [1] * len(weights)
            fixed_samples, random_samples = [], []
            fixed_macro = factory(list(weights))
            for _ in range(traces):
                fixed_samples.append(
                    power.measure(fixed_macro.query_fresh(mask)))
                random_weights = [int(w)
                                  for w in rng.integers(0, 16,
                                                        len(weights))]
                random_samples.append(power.measure(
                    factory(random_weights).query_fresh(mask)))
            return welch_t(fixed_samples, random_samples)

        for factory in (DigitalCimMacro,
                        lambda w: MaskedCimMacro(w, seed=6)):
            got = assess_macro(factory, weights, traces=traces,
                               noise_sigma=sigma, seed=seed)
            assert got.t_statistic == scalar_reference(factory)

    def test_traces_vectorized_counter(self):
        macro = DigitalCimMacro([1, 2, 3, 4])
        masks = np.zeros((12, 4), dtype=np.int64)
        with counting() as window:
            macro.query_fresh_many(masks)
        assert window.delta()["cim.traces_vectorized"] == 11


class TestConsumers:

    @pytest.fixture(scope="class")
    def pq_platform(self):
        return build_tee(post_quantum=True)

    def test_attest_enclaves_byte_identical(self, pq_platform):
        sm = pq_platform.sm
        enclaves = [sm.create_enclave(b"batch-enclave-%d" % i * 64)
                    for i in range(3)]
        data = [b"d%d" % i for i in range(3)]
        try:
            scalar = [sm.attest_enclave(e, d).encode()
                      for e, d in zip(enclaves, data)]
            batch = [r.encode()
                     for r in sm.attest_enclaves(enclaves, data)]
            assert scalar == batch
        finally:
            for enclave in enclaves:
                sm.destroy_enclave(enclave)

    def test_verify_reports_boolean_identical(self, pq_platform):
        sm = pq_platform.sm
        identity = pq_platform.device.public_identity()
        enclaves = [sm.create_enclave(b"verify-enclave-%d" % i * 64)
                    for i in range(3)]
        try:
            reports = sm.attest_enclaves(enclaves)
            reports[1].enclave_pq_signature = bytes(
                len(reports[1].enclave_pq_signature))
            scalar = [verify_report(r, identity) for r in reports]
            assert scalar == [True, False, True]
            assert verify_reports(reports, identity) == scalar
            expected = enclaves[0].measurement
            assert verify_reports(
                reports, identity,
                expected_enclave_hash=expected) == \
                [verify_report(r, identity,
                               expected_enclave_hash=expected)
                 for r in reports]
        finally:
            for enclave in enclaves:
                sm.destroy_enclave(enclave)

    def test_verify_reports_mldsa_totals_match_per_key_loop(self):
        """Two cross-key ``verify_many`` passes leave every
        ``crypto.mldsa.*`` counter where one call per key left it,
        including the SM-stage short-circuit after a failed device
        signature."""
        platforms = [build_tee(bytes([0x70 + i]) * 32, post_quantum=True)
                     for i in range(3)]
        reports, identities = [], []
        for index in (0, 1, 2, 0, 1, 0):
            platform = platforms[index]
            enclave = platform.sm.create_enclave(b"pin-enclave-%d" % index)
            reports += platform.sm.attest_enclaves([enclave])
            identities.append(platform.device.public_identity())
        reports[1].sm_pq_signature = bytes(len(reports[1].sm_pq_signature))
        reports[3].enclave_pq_signature = bytes(
            len(reports[3].enclave_pq_signature))
        scheme = MLDSA(ML_DSA_44)

        def per_key_loop():
            groups = {}
            for i, identity in enumerate(identities):
                groups.setdefault(identity["mldsa"], []).append(i)
            passed = []
            for key, members in groups.items():
                ok = scheme.verify_many(
                    key, [reports[i].sm_payload() for i in members],
                    [reports[i].sm_pq_signature for i in members])
                passed += [i for i, good in zip(members, ok) if good]
            verdicts = [False] * len(reports)
            groups = {}
            for i in sorted(passed):
                groups.setdefault(reports[i].sm_mldsa_public, []).append(i)
            for key, members in groups.items():
                ok = scheme.verify_many(
                    key, [reports[i].enclave_payload() for i in members],
                    [reports[i].enclave_pq_signature for i in members])
                for i, good in zip(members, ok):
                    verdicts[i] = good
            return verdicts

        def mldsa_totals(window):
            return {k: v for k, v in window.delta().items()
                    if k.startswith("crypto.mldsa.")}

        with counting() as window:
            batch = verify_reports(reports, identities)
        batch_totals = mldsa_totals(window)
        with counting() as window:
            loop = per_key_loop()
        assert batch == loop == [True, False, True, False, True, True]
        assert batch_totals == mldsa_totals(window)
        assert batch_totals["crypto.mldsa.verify"] == 6 + 5

    def test_hybrid_batch_parity(self):
        pair = hybrid.HybridKeyPair(b"\x01" * 32, b"\x02" * 32)
        messages = _messages(4)
        signatures = pair.sign_many(messages)
        assert signatures == [pair.sign(m) for m in messages]
        bad = list(signatures)
        bad[1] = bytes(64) + bad[1][64:]              # classical invalid
        bad[2] = bad[2][:64] + bytes(len(bad[2]) - 64)  # pq invalid
        bad[3] = b"short"
        scalar = [hybrid.verify(pair.public, m, s)
                  for m, s in zip(messages, bad)]
        assert scalar == [True, False, False, False]
        assert hybrid.verify_many(pair.public, messages, bad) == scalar

    def test_device_sign_post_quantum_many(self, pq_platform):
        device = pq_platform.device
        messages = _messages(3)
        assert device.sign_post_quantum_many(messages) == \
            [device.sign_post_quantum(m) for m in messages]


def test_batch_counters_render_and_parse_roundtrip(monkeypatch):
    """The new PERF counters must survive the exposition round trip
    (rendered by ``scripts/obs_export.py``, re-parsed strictly)."""
    scheme = MLDSA(ML_DSA_44)
    public, secret = scheme.key_gen(b"\x42" * 32)
    monkeypatch.setattr(ed, "_MSM_LANES", 2)   # force the MSM path
    with counting() as window:
        signatures = scheme.sign_many(secret, _messages(2))
        scheme.verify_many(public, _messages(2), signatures)
        # Two lanes: a batch of one short-circuits to the scalar
        # verifier and would not tick the batch counters.
        lanes = []
        for i in (9, 10):
            seed = bytes([i]) * 32
            message = b"expose-%d" % i
            lanes.append((ed.public_key(seed), message,
                          ed.sign(seed, message)))
        ed.verify_batch(lanes)
        DigitalCimMacro([1, 2]).query_fresh_many(
            np.zeros((3, 2), dtype=np.int64))
    delta = window.delta()
    for counter in ("crypto.mldsa.batch_sign_lanes",
                    "crypto.mldsa.batch_verify_lanes",
                    "crypto.ed25519.batch_verifies",
                    "crypto.ed25519.msm_points",
                    "crypto.ed25519.msm_point_adds",
                    "crypto.ed25519.msm_doublings",
                    "cim.traces_vectorized"):
        assert delta[counter] > 0, counter
    families = parse_exposition(render(perf=dict(delta)))
    events = {labels["event"]: value for labels, value in
              families["repro_perf_events_total"]}
    assert events["crypto.mldsa.batch_sign_lanes"] == 2.0
    assert events["crypto.mldsa.batch_verify_lanes"] == 2.0
    assert events["crypto.ed25519.batch_verifies"] == 2.0
    assert events["crypto.ed25519.msm_points"] == 5.0
    assert events["cim.traces_vectorized"] == 2.0
