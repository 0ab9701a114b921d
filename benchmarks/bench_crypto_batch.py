"""X10 — batch-throughput crypto kernels (serving-scale amortization).

Attestation verifiers and campaign oracles process signatures in
batches, so the per-operation cost that matters at scale is the
*amortized* one: ML-DSA ``sign_many``/``verify_many`` stack message
lanes through the int64 NTT kernels, and Ed25519 batch verification
folds the whole batch into one random-linear-combination equation.

Every benchmarked batch call is parity-checked against the per-call
scalar loop in the same test (byte- or boolean-identical), the batch
PERF counters must attribute the lanes, and the amortized speedup
floors from the design docs are asserted on CI-class machines
(>= ``_GATE_MIN_CPUS`` CPUs).  Timings are fixed-rounds so the
bench-history counter gate stays deterministic.
"""

import time

import pytest

from repro.crypto import MLDSA, ML_DSA_44
from repro.crypto import ed25519 as ed
from repro.obs.perf import counting
from repro.runtime import available_cpus

from conftest import write_table

#: Batch size for all amortization measurements (the attestation
#: verifier's working set in the campaign benches).
BATCH = 64

#: Amortized batch-over-scalar floors asserted on CI-class machines.
MLDSA_SIGN_BATCH_FLOOR = 1.8
MLDSA_VERIFY_BATCH_FLOOR = 2.0
ED25519_BATCH_FLOOR = 2.0
_GATE_MIN_CPUS = 4


def _timed(benchmark, fn, rounds, iterations=1):
    """Fixed-round timing (see bench_crypto_primitives: the
    bench-history gate compares PERF counter totals strictly)."""
    return benchmark.pedantic(fn, rounds=rounds, iterations=iterations,
                              warmup_rounds=1)


@pytest.fixture(scope="session")
def batch_messages():
    return [b"attestation-%04d" % i for i in range(BATCH)]


@pytest.fixture(scope="session")
def mldsa44():
    scheme = MLDSA(ML_DSA_44)
    public, secret = scheme.key_gen(bytes(32))
    return scheme, public, secret


@pytest.fixture(scope="session")
def mldsa44_sigs(mldsa44, batch_messages):
    scheme, _, secret = mldsa44
    return scheme.signer(secret).sign_many(batch_messages)


@pytest.fixture(scope="session")
def ed_batch_items(batch_messages):
    items = []
    for i, message in enumerate(batch_messages):
        seed = bytes([i]) * 32
        items.append((ed.public_key(seed), message,
                      ed.sign(seed, message)))
    return items


def test_mldsa_sign_many_batch64(benchmark, mldsa44, batch_messages):
    scheme, _, secret = mldsa44
    signer = scheme.signer(secret)
    signatures = _timed(benchmark,
                        lambda: signer.sign_many(batch_messages),
                        rounds=3)
    assert signatures[0] == signer.sign(batch_messages[0])


def test_mldsa_verify_many_batch64(benchmark, mldsa44, batch_messages,
                                   mldsa44_sigs):
    scheme, public, _ = mldsa44
    verifier = scheme.verifier(public)
    assert _timed(
        benchmark,
        lambda: verifier.verify_many(batch_messages, mldsa44_sigs),
        rounds=5) == [True] * BATCH


def test_ed25519_verify_batch64(benchmark, ed_batch_items):
    assert _timed(benchmark,
                  lambda: ed.verify_batch(ed_batch_items),
                  rounds=5) == [True] * BATCH


def test_batch_counters_move(benchmark, mldsa44, batch_messages,
                             mldsa44_sigs, ed_batch_items):
    """The batch-lane counters must attribute exactly one batch pass —
    they are what lets the bench history tell batch from scalar work."""
    scheme, public, secret = mldsa44
    signer = scheme.signer(secret)
    verifier = scheme.verifier(public)

    def one_pass():
        signer.sign_many(batch_messages[:4])
        assert verifier.verify_many(batch_messages, mldsa44_sigs) == \
            [True] * BATCH
        assert ed.verify_batch(ed_batch_items) == [True] * BATCH

    with counting() as window:
        benchmark.pedantic(one_pass, rounds=1, iterations=1)
    delta = window.delta()
    assert delta["crypto.mldsa.batch_sign_lanes"] == 4
    assert delta["crypto.mldsa.batch_verify_lanes"] == BATCH
    assert delta["crypto.ed25519.batch_verifies"] == BATCH


def test_batch_amortization_floors(benchmark, mldsa44, batch_messages,
                                   mldsa44_sigs, ed_batch_items,
                                   report_dir):
    """Amortized per-op batch cost vs the *cached-context* scalar loop
    on identical inputs (same keys, same rejection schedules), with the
    documented floors asserted on CI-class machines."""
    scheme, public, secret = mldsa44
    signer = scheme.signer(secret)
    verifier = scheme.verifier(public)

    def clock(fn, rounds):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    # Parity first: the timed batch calls must be byte/boolean-identical
    # to the scalar loops they amortize.
    assert signer.sign_many(batch_messages) == mldsa44_sigs
    assert mldsa44_sigs == [signer.sign(m) for m in batch_messages]
    assert verifier.verify_many(batch_messages, mldsa44_sigs) == \
        [verifier.verify(m, s)
         for m, s in zip(batch_messages, mldsa44_sigs)]
    assert ed.verify_batch(ed_batch_items) == \
        [ed.verify(*item) for item in ed_batch_items]

    batch_sign = clock(lambda: signer.sign_many(batch_messages), 3)
    scalar_sign = clock(
        lambda: [signer.sign(m) for m in batch_messages], 2)
    batch_verify = clock(
        lambda: verifier.verify_many(batch_messages, mldsa44_sigs), 5)
    scalar_verify = clock(
        lambda: [verifier.verify(m, s)
                 for m, s in zip(batch_messages, mldsa44_sigs)], 3)
    batch_ed = clock(lambda: ed.verify_batch(ed_batch_items), 5)
    scalar_ed = clock(
        lambda: [ed.verify(*item) for item in ed_batch_items], 3)

    def row(name, scalar, batch, floor):
        return [name, f"{scalar / BATCH * 1e6:.1f} us",
                f"{batch / BATCH * 1e6:.1f} us",
                f"{scalar / batch:.2f}x", f">= {floor:.1f}x"]

    rows = [
        row("ML-DSA-44 sign_many", scalar_sign, batch_sign,
            MLDSA_SIGN_BATCH_FLOOR),
        row("ML-DSA-44 verify_many", scalar_verify, batch_verify,
            MLDSA_VERIFY_BATCH_FLOOR),
        row("Ed25519 RLC verify_batch", scalar_ed, batch_ed,
            ED25519_BATCH_FLOOR),
    ]
    write_table(report_dir, "crypto_batch_amortization",
                f"Batch-{BATCH} amortized per-op cost vs cached-context "
                "scalar loop (best of N; floors asserted on CI-class "
                "machines)",
                ["operation", "scalar per-op", "batch per-op",
                 "speedup", "floor"], rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if available_cpus() >= _GATE_MIN_CPUS:
        assert scalar_sign / batch_sign >= MLDSA_SIGN_BATCH_FLOOR, \
            rows[0]
        assert scalar_verify / batch_verify >= \
            MLDSA_VERIFY_BATCH_FLOOR, rows[1]
        assert scalar_ed / batch_ed >= ED25519_BATCH_FLOOR, rows[2]
