#!/usr/bin/env python3
"""Attestation-service benchmark: ``fresh``, ``reattest`` and
``adversarial`` request streams through
:class:`repro.tee.service.AttestationService`.

Run from the repository root::

    python3 perfbench/run.py --workload fresh --seed 1 --seconds 10 --trace 0

A single-process driver feeds the seeded stream through ``submit`` /
``tick`` on the simulated clock and calls ``drain()`` as soon as a
batch seals, with telemetry and PERF counting off and the audit ledger
on.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends
half the time untraced and half with the per-layer ledger installed
(see ``ledger.py``) and prints the per-layer metrics.  Human-readable
lines go first; the last line of standard output is one JSON object.
See ``NOTES.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "tee", "service.py")):
    sys.exit(f"{__file__}: no library sources under {SRC}")
sys.path.insert(0, SRC)

import fleet  # noqa: E402
import ledger  # noqa: E402
from repro.obs import TELEMETRY  # noqa: E402
from repro.obs.audit import AUDIT  # noqa: E402
from repro.obs.perf import PERF  # noqa: E402


WORKLOADS = ("fresh", "reattest", "adversarial")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Every round replays the same batches, so each batch of the stream is
#: timed once per round.  The run keeps each batch's fastest drain and
#: reports over those.  Other load on a shared host slows whole
#: stretches of a run by up to ~60%; a batch's fastest drain is the one
#: it left alone, and per-batch selection finds it even when no whole
#: round was quiet.  A round holds at least 512 requests, so the
#: highest percentile with ten latency samples beyond it is p98.


@dataclass
class Env:
    """One workload's inputs and (for ``reattest``) its warm service."""

    fleet: object
    stream: list
    schedule: list
    service: object = None
    onboarded: tuple = None


@dataclass
class Stats:
    """What the measured rounds observed."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    honest_bad: int = 0
    broken: list = field(default_factory=list)
    mismatch: Counter = field(default_factory=Counter)
    flush: Counter = field(default_factory=Counter)
    batch_sizes: list = field(default_factory=list)
    cache: Counter = field(default_factory=Counter)
    tokens: dict = field(default_factory=dict)
    #: batch position -> its fastest ``(drain_s, verdicts, latencies)``
    fastest: dict = field(default_factory=dict)


def run_stream(service, stream, schedule):
    """Submit ``stream`` on ``schedule`` (arrivals per tick), draining
    as soon as a batch seals.  Returns ``(first_seq, drains)``; each
    drain is ``(lo, hi, cause, results, drain_s, latencies)`` over
    stream indices, with ``results`` ``None`` when the drain raised.
    A request's latency runs from its ``submit`` call to the return of
    the drain that holds its verdict."""
    submitted = []
    drains = []
    first = None

    def drain(cause):
        lo = drains[-1][1] if drains else 0
        hi = len(submitted)
        start = perf_counter()
        try:
            results = service.drain()
        except Exception:   # counted as failed lanes; the run goes on
            traceback.print_exc()
            results = None
        end = perf_counter()
        drains.append((lo, hi, cause, results, end - start,
                       [end - t for t in submitted[lo:hi]]))

    index = 0
    for arrivals in schedule:
        for lane in stream[index:index + arrivals]:
            submitted.append(perf_counter())
            seq = service.submit(lane.device_id, lane.report, lane.pin)
            if first is None:
                first = seq
            if service.sealed_count():
                drain("size")
        index += arrivals
        service.tick()
        if service.sealed_count():
            drain("deadline")
    while service.pending_count():
        service.tick()
        if service.sealed_count():
            drain("deadline")
    return first, drains


def record(stream, first, drains, stats):
    """Fold one round into ``stats`` (outside every timed region).

    Every verdict is compared with its lane's expected verdict.  A lane
    whose verdict differs, or whose drain raised, counts as failed; an
    honest lane that did not verify, a result out of admission order or
    a session token that changes between rounds makes the run
    incorrect."""
    for position, (lo, hi, cause, results, drain_s, latencies) in \
            enumerate(drains):
        stats.attempted += hi - lo
        stats.batch_sizes.append(hi - lo)
        stats.flush[cause] += 1
        best = stats.fastest.get(position)
        if best is None or drain_s < best[0]:
            stats.fastest[position] = (drain_s, len(results or ()),
                                       latencies)
        if results is None:
            stats.failed += hi - lo
            stats.honest_bad += sum(lane.kind == "honest"
                                    for lane in stream[lo:hi])
            continue
        if [r["seq"] for r in results] != list(range(first + lo,
                                                     first + hi)):
            stats.broken.append(f"drain {lo}:{hi} out of order")
            stats.failed += hi - lo
            continue
        for index, (lane, result) in enumerate(zip(stream[lo:hi],
                                                   results), lo):
            if result["ok"] != lane.expected:
                stats.failed += 1
                stats.mismatch[lane.kind] += 1
                stats.honest_bad += lane.kind == "honest"
            session = result["session"]
            if (len(session) == 64) != result["ok"]:
                stats.broken.append(f"lane {index}: bad session token")
            elif stats.tokens.setdefault(index, session) != session:
                stats.broken.append(f"lane {index}: token changed")


def onboard(service, stream, schedule):
    """Verify every distinct content once, filling the session cache."""
    return run_stream(service, stream, schedule)


def setup(workload, seed):
    """Fleet, reports, stream and schedule for ``workload``; for
    ``reattest`` also the onboarded warm service."""
    AUDIT.reset()
    AUDIT.disable()             # the devices' own signing is not audited
    fl = fleet.build_fleet(seed)
    stream = fleet.honest_pool(fl, fleet.VARIANTS[workload],
                               random.Random(f"pool-{seed}"))
    rng = random.Random(f"plan-{seed}")
    if workload == "adversarial":
        units = fleet.hostile_lanes(fl, rng)
        plan = fleet.batch_plan(len(stream) + sum(map(len, units)), rng)
        stream = fleet.interleave(stream, units, plan, rng)
    else:
        plan = fleet.batch_plan(len(stream), rng)
    schedule = fleet.arrivals(plan)
    AUDIT.enable()
    env = Env(fl, stream, schedule)
    if workload == "reattest":
        env.service = fl.service()
        env.onboarded = onboard(env.service, stream, schedule)
    return env


def measure(env, seconds, stats, tracer=None):
    """Whole rounds of the stream until ``seconds`` have passed (and at
    least one round); each ``fresh``/``adversarial`` round runs on a
    cold service."""
    start = perf_counter()
    while not stats.rounds or perf_counter() - start < seconds:
        AUDIT.reset()       # rotated per round, so memory is flat
        service = env.service or env.fleet.service()
        before = Counter(service.cache_stats())
        if tracer is None:
            first, drains = run_stream(service, env.stream, env.schedule)
        else:
            with tracer.active():
                first, drains = run_stream(service, env.stream,
                                           env.schedule)
        after = Counter(service.cache_stats())
        for key in ("hits", "misses", "evictions"):
            stats.cache[key] += after[key] - before[key]
        record(env.stream, first, drains, stats)
        stats.rounds += 1


def typical(stats):
    """``(verify_per_s, p50_s, p98_s)`` over each batch's fastest
    drain, with its request latencies."""
    drain_s = verdicts = 0
    latencies = []
    for seconds, count, batch_latencies in stats.fastest.values():
        drain_s += seconds
        verdicts += count
        latencies += batch_latencies
    p98 = statistics.quantiles(latencies, n=50, method="inclusive")[-1]
    return verdicts / drain_s, statistics.median(latencies), p98


def end_to_end(stats, setup_times):
    rate, p50, p98 = typical(stats)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "verify_per_s": (rate, "1/s"),
        "request_ms_p50": (p50 * 1e3, "ms"),
        "request_ms_p98": (p98 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def shape_metrics(stats, untraced):
    cache = stats.cache
    lookups = cache["hits"] + cache["misses"]
    traced_rate = typical(stats)[0]
    untraced_rate = typical(untraced)[0]
    return {
        "tee.service.cache.hit_ratio": (
            cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "tee.service.cache.evictions": (cache["evictions"], "count"),
        "tee.service.batches": (len(stats.batch_sizes), "count"),
        "tee.service.flush_size": (stats.flush["size"], "count"),
        "tee.service.flush_deadline": (stats.flush["deadline"], "count"),
        "tee.service.batch_size_mean": (
            statistics.fmean(stats.batch_sizes), "count"),
        "trace.verify_per_s": (traced_rate, "1/s"),
        "trace.overhead_ratio": (
            traced_rate / untraced_rate, "ratio"),
    }


def summarize(workload, stats, metrics):
    share = stats.failed / stats.attempted
    print(f"workload {workload}: {stats.rounds} rounds of "
          f"{stats.attempted // stats.rounds} requests in "
          f"{len(stats.fastest)} batches; rate and latency come from "
          f"each batch's fastest drain "
          f"({stats.attempted // stats.rounds} latency samples)")
    print(f"  failed_share = {share:.6f} ({stats.failed} of "
          f"{stats.attempted} requests)")
    for kind, count in sorted(stats.mismatch.items()):
        print(f"  verdict != oracle: {kind} x{count}")
    for problem in stats.broken[:10]:
        print(f"  incorrect: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    TELEMETRY.enabled = False   # a subscriber bypasses the session cache
    PERF.enabled = False
    stats = Stats()
    if args.trace:
        tracer = ledger.Ledger()
        tracer.install_setup(fleet, sys.modules[__name__])
        try:
            with tracer.active():
                env = setup(args.workload, args.seed)
        finally:
            tracer.unpatch()
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            env = None      # free the previous fleet before the next
            start = perf_counter()
            env = setup(args.workload, args.seed)
            setup_times.append(perf_counter() - start)
    env.stream = fleet.with_oracle(env.fleet, env.stream)
    if env.onboarded is not None:
        record(env.stream, *env.onboarded, stats)
        stats = Stats(tokens=stats.tokens, broken=stats.broken,
                      honest_bad=stats.honest_bad)

    if args.trace:
        untraced = Stats(tokens=stats.tokens)
        measure(env, args.seconds / 2, untraced)
        tracer.install_service()
        try:
            measure(env, args.seconds / 2, stats, tracer)
        finally:
            tracer.unpatch()
        stats.broken += untraced.broken
        stats.honest_bad += untraced.honest_bad
        metrics = tracer.metrics()
        metrics.update(shape_metrics(stats, untraced))
        if not tracer.balanced():
            stats.broken.append("layer ledger does not sum to wall time")
        print(f"Ed25519 MSM crossover in effect: "
              f"{ledger.ed25519._MSM_LANES} lanes; ledger tolerance "
              f"{ledger.SUM_TOLERANCE:g} of the traced wall time")
    else:
        measure(env, args.seconds, stats)
        metrics = end_to_end(stats, setup_times)

    summarize(args.workload, stats, metrics)
    correct = not stats.honest_bad and not stats.broken
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
