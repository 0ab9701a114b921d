"""Telemetry overhead self-measurement and budget gate (ISSUE 6).

The observability layer's founding promise (ISSUE 1) is *disabled
instrumentation costs one attribute check*; the streaming layer adds a
second promise: with the tracer, perf counters and a bounded-memory
span sink all running, a crypto hot loop slows down by less than the
10 % budget the paper's lightweight-monitoring claims assume.  This
bench measures both promises instead of trusting them: it times the
same AES block-encryption hot loop three ways —

* ``pristine``  — the bare workload, no instrumentation in the loop,
* ``off``       — fully instrumented loop (span + counter + perf
  events per iteration) against *disabled* facades,
* ``on``        — the same instrumented loop with telemetry and perf
  enabled and a :class:`~repro.obs.stream.SpanStream` draining spans
  into a rotating JSONL sink,

and gates the relative overheads (< {OFF}% off, < {ON}% on).  The
variants run against private ``Telemetry``/``PerfCounters`` instances,
never the global facades, so the bench cannot perturb the session
trace that ``scripts/check.sh`` exports — while exercising byte-for-
byte the same code paths the globals run.

Results land in ``results/obs_overhead.txt``/``.json`` and, through
the session summary, in ``bench_history.jsonl`` where the run-over-run
regression gate watches the recorded wall time.
"""

import time

import pytest

from conftest import write_table
from repro.crypto import AES
from repro.obs import PerfCounters, Telemetry
from repro.obs.stream import SpanStream

#: AES-128 block encryptions folded into one instrumented iteration.
#: Each block is ~16 us of pure-Python T-table work, so an iteration is
#: ~0.8 ms and a ~5 us span costs ~1 % — real headroom under the 10 %
#: gate rather than a tautology, and enough work per timed run (~35 ms)
#: that scheduler noise stays small relative to the budgets.
BLOCKS_PER_ITER = 48
ITERS = 45
REPEATS = 7

_CIPHER = AES(bytes(range(16)))

#: Relative-overhead budgets, percent.  The "off" budget is the
#: one-attribute-check promise (measured ~0 %, gated loosely enough to
#: absorb timer noise on loaded CI); the "on" budget is the paper-level
#: lightweight-monitoring bar.
OVERHEAD_BUDGET_OFF_PCT = 5.0
OVERHEAD_BUDGET_ON_PCT = 10.0


def _pristine_loop() -> bytes:
    """The bare workload: no instrumentation in the loop body."""
    state = bytes(16)
    for _ in range(ITERS):
        for _ in range(BLOCKS_PER_ITER):
            state = _CIPHER.encrypt_block(state)
    return state


def _instrumented_loop(tel: Telemetry, perf: PerfCounters) -> bytes:
    """The same workload wrapped the way hot subsystems instrument
    themselves: one span, one metric counter and one perf event per
    iteration."""
    state = bytes(16)
    counter = tel.counter("obs_overhead.iters")
    for index in range(ITERS):
        with tel.span("obs_overhead.iter", index=index):
            for _ in range(BLOCKS_PER_ITER):
                state = _CIPHER.encrypt_block(state)
            counter.inc()
            if perf.enabled:
                perf.inc("obs_overhead.blocks", BLOCKS_PER_ITER)
    return state


def _best_of_interleaved(variants: dict) -> dict:
    """Minimum wall time per variant across interleaved repeats.

    Each repeat times every variant back to back, so machine-load or
    frequency drift during the bench degrades all variants together
    instead of biasing whichever one ran during the slow window — the
    relative overheads stay honest even on loaded CI.
    """
    for fn in variants.values():             # warm caches, JIT-free
        fn()
    best = {}
    for _ in range(REPEATS):
        for key, fn in variants.items():
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            best[key] = min(best.get(key, elapsed), elapsed)
    return best


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    stream_dir = tmp_path_factory.mktemp("obs_overhead_stream")

    tel_off = Telemetry(enabled=False)
    perf_off = PerfCounters(enabled=False)

    tel_on = Telemetry(enabled=True)
    perf_on = PerfCounters(enabled=True)
    stream = SpanStream(stream_dir, telemetry=tel_on)
    stream.install()
    try:
        best = _best_of_interleaved({
            "pristine_s": _pristine_loop,
            "off_s": lambda: _instrumented_loop(tel_off, perf_off),
            "on_s": lambda: _instrumented_loop(tel_on, perf_on),
        })
    finally:
        stream.close()
    pristine_s = best["pristine_s"]
    off_s = best["off_s"]
    on_s = best["on_s"]
    return {
        "pristine_s": pristine_s,
        "off_s": off_s,
        "on_s": on_s,
        "off_pct": (off_s - pristine_s) / pristine_s * 100.0,
        "on_pct": (on_s - pristine_s) / pristine_s * 100.0,
        "stream": stream,
        "telemetry_on": tel_on,
        "perf_on": perf_on,
    }


def test_disabled_overhead_within_budget(measurements):
    """Disabled facades must be indistinguishable from pristine code —
    the one-attribute-check contract, now measured."""
    assert measurements["off_pct"] < OVERHEAD_BUDGET_OFF_PCT, (
        f"instrumented loop against disabled facades is "
        f"{measurements['off_pct']:.2f}% slower than pristine "
        f"(budget {OVERHEAD_BUDGET_OFF_PCT}%)")


def test_enabled_overhead_within_budget(measurements):
    """Full telemetry + perf + streaming sink must stay under the
    10 % lightweight-monitoring budget."""
    assert measurements["on_pct"] < OVERHEAD_BUDGET_ON_PCT, (
        f"fully-enabled telemetry costs {measurements['on_pct']:.2f}% "
        f"over pristine (budget {OVERHEAD_BUDGET_ON_PCT}%)")


def test_enabled_run_actually_observed(measurements):
    """Guard against a vacuous gate: the enabled variant must have
    produced spans, streamed them, and counted events."""
    stream = measurements["stream"]
    # warmup + REPEATS timed runs, one span per iteration each
    assert stream.spans_seen == (REPEATS + 1) * ITERS
    assert stream.spans_sampled > 0
    assert (stream.directory / "spans.jsonl").exists()
    tel = measurements["telemetry_on"]
    assert tel.metrics.counter("obs_overhead.iters").value == \
        (REPEATS + 1) * ITERS
    perf = measurements["perf_on"]
    assert perf.snapshot()["obs_overhead.blocks"] == \
        (REPEATS + 1) * ITERS * BLOCKS_PER_ITER
    # the drained tracer is the bounded-memory promise
    assert tel.tracer.finished_count() == 0


def test_write_artifacts(measurements, report_dir):
    blocks = ITERS * BLOCKS_PER_ITER
    rows = []
    for mode, key, pct in (
            ("pristine", "pristine_s", None),
            ("instrumented, facades off", "off_s", "off_pct"),
            ("instrumented, telemetry+perf+stream on", "on_s",
             "on_pct")):
        wall = measurements[key]
        rows.append([
            mode,
            f"{wall * 1e3:.2f} ms",
            f"{blocks / wall:,.0f}",
            f"{measurements[pct]:+.2f}%" if pct else "-",
            (f"< {OVERHEAD_BUDGET_OFF_PCT:.0f}%" if pct == "off_pct"
             else f"< {OVERHEAD_BUDGET_ON_PCT:.0f}%" if pct == "on_pct"
             else "-"),
        ])
    write_table(
        report_dir, "obs_overhead",
        f"Telemetry overhead budget: AES-128 block hot loop "
        f"({ITERS} iters x {BLOCKS_PER_ITER} blocks, best of "
        f"{REPEATS}), instrumented vs pristine",
        ["variant", "wall", "blocks/s", "overhead", "budget"], rows)
