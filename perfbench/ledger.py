"""Per-layer time ledger for the traced run.

The ledger wraps the public function each layer exposes — from the
benchmark's side, leaving the library untouched — and keeps, per
layer, the number of calls and the *self* time: the time inside the
layer minus the time of the traced layers it calls.  Spans nest on a
stack, so ``crypto.ed25519.verify`` called inside
``crypto.ed25519.verify_batch`` is a child, not double-counted.  The
ledger's wall clock runs only inside :meth:`Ledger.active` blocks, and
whatever the layers do not cover is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.crypto import ed25519
from repro.crypto.mldsa import MLDSA
from repro.obs.audit import AuditLedger
from repro.runtime.memo import Memo
from repro.tee import attestation, service
from repro.tee.sm import SecurityMonitor

#: Layers of the measured phase, in report order.
SERVICE_LAYERS = (
    "tee.service.submit", "tee.service.drain", "tee.service.session_key",
    "tee.service.cache", "tee.attestation.decode",
    "tee.attestation.verify_reports", "crypto.ed25519.verify_batch",
    "crypto.ed25519.verify", "crypto.mldsa.verify_many", "obs.audit.emit",
)
#: Layers of the set-up phase.
SETUP_LAYERS = ("setup.build_tee", "setup.attestation_requests",
                "setup.onboard")
LAYERS = SERVICE_LAYERS + SETUP_LAYERS

#: Allowed gap between the traced wall time and the layers plus the
#: unattributed remainder, as a share of the wall time.
SUM_TOLERANCE = 1e-6


class Ledger:
    """Nested self-time accounting over wrapped layer functions."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.lanes = defaultdict(int)
        self.msm_calls = 0
        self.fallback_calls = 0
        self.wall_s = 0.0
        self._stack = []
        self._patches = []

    @contextmanager
    def active(self):
        """Count the block's duration into the traced wall time."""
        start = perf_counter()
        try:
            yield self
        finally:
            self.wall_s += perf_counter() - start

    def span(self, name, fn, lanes=None):
        """``fn`` wrapped so each call records a span named ``name``;
        ``lanes(args)`` adds the call's batch width."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
                if lanes is not None:
                    self.lanes[name] += lanes(args)
        return traced

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def wrap(self, owner, attr, name, lanes=None):
        self._patch(owner, attr, self.span(name, getattr(owner, attr),
                                           lanes))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- layer sets ----------------------------------------------------

    def install_setup(self, fleet_module, onboard_owner):
        self.wrap(fleet_module, "build_tee", "setup.build_tee")
        self.wrap(SecurityMonitor, "attestation_requests",
                  "setup.attestation_requests")
        self.wrap(onboard_owner, "onboard", "setup.onboard")

    def install_service(self):
        svc = service.AttestationService
        self.wrap(svc, "submit", "tee.service.submit")
        self.wrap(svc, "drain", "tee.service.drain")
        self.wrap(service, "sha3_512", "tee.service.session_key")
        self.wrap(service, "sha3_256", "tee.service.session_key")
        self._install_cache()
        decode = vars(attestation.AttestationReport)["decode"].__func__
        self._patch(attestation.AttestationReport, "decode", classmethod(
            self.span("tee.attestation.decode", decode)))
        self.wrap(service, "verify_reports",
                  "tee.attestation.verify_reports",
                  lanes=lambda args: len(args[0]))
        self._install_verify_batch()
        self.wrap(ed25519, "verify", "crypto.ed25519.verify")
        self.wrap(MLDSA, "verify_many", "crypto.mldsa.verify_many",
                  lanes=lambda args: len(args[2]))
        self.wrap(AuditLedger, "emit", "obs.audit.emit")

    def _install_cache(self):
        """The session cache is a :class:`Memo`; only accesses made
        by the service module count as the ``tee.service.cache``
        layer (the crypto key memos share the class)."""
        for attr in ("lookup", "store"):
            original = getattr(Memo, attr)
            traced = self.span("tee.service.cache", original)

            def dispatch(memo, *args, _traced=traced, _original=original):
                if sys._getframe(1).f_globals.get("__name__") == \
                        service.__name__:
                    return _traced(memo, *args)
                return _original(memo, *args)
            self._patch(Memo, attr, dispatch)

    def _install_verify_batch(self):
        """``verify_batch`` with its batch shape: lanes, whether the
        width reaches the Pippenger crossover (``ed25519._MSM_LANES``,
        read at call time), and whether a failed combined check fell
        back to per-lane ``verify``."""
        traced = self.span("crypto.ed25519.verify_batch",
                           ed25519.verify_batch,
                           lanes=lambda args: len(args[0]))
        calls = self.calls

        def verify_batch(items):
            items = list(items)
            before = calls["crypto.ed25519.verify"]
            result = traced(items)
            if len(items) >= ed25519._MSM_LANES:
                self.msm_calls += 1
            if len(items) > 1 and calls["crypto.ed25519.verify"] > before:
                self.fallback_calls += 1
            return result
        self._patch(ed25519, "verify_batch", verify_batch)

    # -- report --------------------------------------------------------

    def unattributed_s(self) -> float:
        return self.wall_s - sum(self.self_s[name] for name in LAYERS)

    def balanced(self) -> bool:
        """The layers never exceed the traced wall time, and the
        layers plus the unattributed remainder sum to it."""
        attributed = sum(self.self_s[name] for name in LAYERS)
        unattributed = self.unattributed_s()
        tolerance = SUM_TOLERANCE * self.wall_s
        return unattributed >= -tolerance and \
            abs(attributed + unattributed - self.wall_s) <= tolerance

    def metrics(self) -> dict:
        """Per-layer ``calls`` / ``self_s``, the unattributed
        remainder and the batch shapes."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        unattributed = self.unattributed_s()
        out["unattributed.self_s"] = (unattributed, "s")
        out["trace.wall_s"] = (self.wall_s, "s")
        batches = self.calls["crypto.ed25519.verify_batch"]
        lanes = self.lanes["crypto.ed25519.verify_batch"]
        out["crypto.ed25519.verify_batch.lanes"] = (lanes, "count")
        out["crypto.ed25519.verify_batch.lanes_per_call"] = (
            lanes / batches if batches else 0.0, "count")
        out["crypto.ed25519.verify_batch.msm_share"] = (
            self.msm_calls / batches if batches else 0.0, "ratio")
        out["crypto.ed25519.verify_batch.fallback_ratio"] = (
            self.fallback_calls / batches if batches else 0.0, "ratio")
        many = self.calls["crypto.mldsa.verify_many"]
        lanes = self.lanes["crypto.mldsa.verify_many"]
        out["crypto.mldsa.verify_many.lanes"] = (lanes, "count")
        out["crypto.mldsa.verify_many.lanes_per_call"] = (
            lanes / many if many else 0.0, "count")
        out["tee.attestation.verify_reports.lanes"] = (
            self.lanes["tee.attestation.verify_reports"], "count")
        return out
