"""Seeded inputs for the attestation-service benchmark.

Everything here is a pure function of the workload seed: the device
fleet, the honest report pool, the hostile lanes of ``adversarial``,
the request order and the arrival schedule on the simulated clock.
The expected verdict of each lane (the oracle) is computed here too,
outside every timed region.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.crypto import ed25519 as ed
from repro.tee import (AttestationReport, AttestationService, build_tee,
                       verify_report)

#: Fleet shape: half hybrid-PQ, half classical, two enclaves each.
N_DEVICES = 64
ENCLAVE_BINARIES = (b"perfbench-enclave-inference",
                    b"perfbench-enclave-telemetry")
#: Report-data variants per enclave and workload: ``reattest`` onboards
#: 64 x 2 x 8 = 1024 distinct contents; a ``fresh``/``adversarial``
#: round verifies 512, so a run holds enough rounds for each batch's
#: fastest drain to be a quiet one (see ``run.typical``).
VARIANTS = {"fresh": 4, "reattest": 8, "adversarial": 4}

#: Hostile lanes of ``adversarial``: HOSTILE_PER_CLASS of each tamper
#: class plus TORSION_PAIRS pairs of torsion-crafted enclave
#: signatures, 26 of 538 lanes (about 5%).
HOSTILE_PER_CLASS = 4
TORSION_PAIRS = 3

#: Batch plan: sizes from 8 to 64 reports in steps of 4, largest and
#: smallest alternating so that a cut-off last cycle keeps both ends,
#: then shuffled by the seed.  A batch's reports arrive spread over
#: ``DEADLINE_TICKS`` ticks, so batches under 64 seal by deadline and
#: full ones by size, and the batch-size mix (and with it the share
#: above the Ed25519 MSM crossover) is the same for every seed.
BATCH_CYCLE = (64, 8, 60, 12, 56, 16, 52, 20, 48, 24, 44, 28, 40, 32, 36)
DEADLINE_TICKS = 4      # the service's default ``deadline_ticks``

#: Offset of the device's Ed25519 signature in an encoded report (see
#: repro.tee.attestation): enclave hash, data length, data, enclave
#: signature, SM hash, SM public key.
_DEVICE_SIG_OFFSET = 64 + 8 + 1024 + 64 + 64 + 32

#: The order-2 torsion point T = (0, -1) in extended coordinates.
_TORSION_T = (0, ed.P - 1, 1, 0)


@dataclass(frozen=True)
class Lane:
    """One request of a stream and its expected verdict."""

    device_id: str
    report: bytes
    pin: bytes          # expected enclave hash, pinned on every request
    kind: str           # "honest" or the hostile class
    expected: bool = True


@dataclass
class Fleet:
    """Registered devices with their policy pins."""

    identities: dict    # device id -> public identity
    sm_hashes: dict     # device id -> expected SM measurement
    platforms: dict     # device id -> TeePlatform (device side)
    enclaves: dict      # device id -> [Enclave, Enclave]

    def service(self) -> AttestationService:
        """A cold service with the fleet registered and SM hashes
        pinned, at the library defaults."""
        service = AttestationService()
        for device_id, identity in self.identities.items():
            service.register_device(device_id, identity,
                                    expected_sm_hash=self.sm_hashes[
                                        device_id])
        return service


def _root(seed: int, index: int) -> bytes:
    return hashlib.shake_256(b"perfbench-device-root" + seed.to_bytes(
        8, "big") + index.to_bytes(2, "big")).digest(32)


def build_fleet(seed: int) -> Fleet:
    identities, sm_hashes, platforms, enclaves = {}, {}, {}, {}
    for index in range(N_DEVICES):
        device_id = f"dev{index:02d}"
        platform = build_tee(_root(seed, index),
                             post_quantum=index % 2 == 0)
        platforms[device_id] = platform
        identities[device_id] = platform.device.public_identity()
        sm_hashes[device_id] = platform.boot_report.sm_measurement
        enclaves[device_id] = [platform.sm.create_enclave(binary)
                               for binary in ENCLAVE_BINARIES]
    return Fleet(identities, sm_hashes, platforms, enclaves)


def honest_pool(fleet: Fleet, variants: int, rng: random.Random) -> list:
    """``variants`` distinct honest contents per device enclave, in a
    seeded order."""
    pool = []
    for device_id, platform in fleet.platforms.items():
        enclaves = [e for e in fleet.enclaves[device_id]
                    for _ in range(variants)]
        data = [rng.randbytes(32) for _ in enclaves]
        reports = platform.sm.attestation_requests(enclaves, data)
        pool += [Lane(device_id, report, enclave.measurement, "honest")
                 for enclave, report in zip(enclaves, reports)]
    rng.shuffle(pool)
    return pool


def torsion_signature(seed: bytes, message: bytes) -> bytes:
    """An Ed25519 signature whose nonce point carries the order-2
    torsion component: publish R' = r*B + T, then sign honestly with
    k = H(R' || A || M).  Cofactorless scalar verification rejects it;
    two such lanes in one random-linear-combination batch cancel."""
    digest = hashlib.sha512(seed).digest()
    a = ed._clamp(digest[:32])
    public = ed.public_key(seed)
    r = int.from_bytes(hashlib.sha512(digest[32:] + message).digest(),
                       "little") % ed.L
    r_encoded = ed._compress(ed._point_add(ed._point_mul_base(r),
                                           _TORSION_T))
    k = int.from_bytes(hashlib.sha512(r_encoded + public
                                      + message).digest(),
                       "little") % ed.L
    return r_encoded + ((r + k * a) % ed.L).to_bytes(32, "little")


def _flip(report: bytes, offset: int, rng: random.Random) -> bytes:
    tampered = bytearray(report)
    tampered[offset] ^= 1 << rng.randrange(8)
    return bytes(tampered)


def hostile_lanes(fleet: Fleet, rng: random.Random) -> list:
    """The hostile mix, as a list of units: single lanes, and torsion
    pairs that :func:`interleave` keeps in one batch."""
    device_ids = sorted(fleet.platforms)
    pq_ids = [d for d in device_ids if "mldsa" in fleet.identities[d]]
    counter = iter(range(10 ** 6))

    def fresh_report(device_id, enclave_index=None):
        enclaves = fleet.enclaves[device_id]
        enclave = enclaves[rng.randrange(2) if enclave_index is None
                           else enclave_index]
        data = b"hostile-%d-" % next(counter) + rng.randbytes(16)
        report = fleet.platforms[device_id].sm.attestation_requests(
            [enclave], [data])[0]
        return enclave, report

    units = []
    for _ in range(HOSTILE_PER_CLASS):
        device_id = rng.choice(device_ids)
        enclave, report = fresh_report(device_id)
        units.append([Lane(device_id, _flip(
            report, _DEVICE_SIG_OFFSET + 32 + rng.randrange(31), rng),
            enclave.measurement, "tampered-ed25519")])

        device_id = rng.choice(pq_ids)
        enclave, report = fresh_report(device_id)
        params = fleet.platforms[device_id].sm.config.mldsa_params
        offset = (len(report) - 2 * params.signature_bytes
                  + rng.randrange(params.signature_bytes))
        units.append([Lane(device_id, _flip(report, offset, rng),
                           enclave.measurement, "tampered-mldsa")])

        enclave, report = fresh_report(rng.choice(device_ids))
        units.append([Lane(f"rogue{rng.randrange(100):02d}", report,
                           enclave.measurement, "unregistered")])

        device_id = rng.choice(device_ids)
        enclave, report = fresh_report(device_id)
        units.append([Lane(device_id, report[:-rng.randint(1, 64)],
                           enclave.measurement, "malformed-length")])

        device_id = rng.choice(device_ids)
        index = rng.randrange(2)
        _, report = fresh_report(device_id, index)
        other = fleet.enclaves[device_id][1 - index]
        units.append([Lane(device_id, report, other.measurement,
                           "policy-mismatch")])

    malicious = rng.choice(device_ids)
    sm_seed = fleet.platforms[malicious].boot_report.sm_ed25519_seed
    for _ in range(TORSION_PAIRS):
        pair = []
        for _ in range(2):
            enclave, report = fresh_report(malicious)
            decoded = AttestationReport.decode(report)
            decoded.enclave_signature = torsion_signature(
                sm_seed, decoded.enclave_payload())
            pair.append(Lane(malicious, decoded.encode(),
                             enclave.measurement, "torsion-pair"))
        units.append(pair)
    return units


def interleave(pool: list, units: list, plan: list,
               rng: random.Random) -> list:
    """Lay the honest pool and the hostile units out batch by batch
    along ``plan`` (batch sizes, summing to all lanes).

    Where hostile lanes sit decides how much fallback work a round
    costs, so that is fixed and only the seed's choice among equal
    options varies: the tampered Ed25519 lanes go one per batch, into
    batches at evenly spaced ranks of the batch sizes; each torsion
    pair shares a batch with no other failing Ed25519 lane, as a
    malicious device submitting back to back would arrange; the other
    classes land in seeded batches."""
    order = sorted(range(len(plan)), key=lambda b: (plan[b], rng.random()))
    tampered = [u for u in units if u[0].kind == "tampered-ed25519"]
    pairs = [u for u in units if len(u) == 2]
    others = [u for u in units
              if len(u) == 1 and u[0].kind != "tampered-ed25519"]
    step = (len(order) - 1) / max(1, len(tampered) - 1)
    batches = [[] for _ in plan]
    for rank, unit in enumerate(tampered):
        batches[order[round(rank * step)]] += unit
    clean = [b for b in range(len(plan)) if not batches[b]]
    for batch, unit in zip(rng.sample(clean, len(pairs)), pairs):
        batches[batch] += unit
    for unit in others:
        batch = rng.choice([b for b in range(len(plan))
                            if plan[b] > len(batches[b])])
        batches[batch] += unit
    honest = iter(pool)
    stream = []
    for size, lanes in zip(plan, batches):
        lanes += [next(honest) for _ in range(size - len(lanes))]
        rng.shuffle(lanes)
        stream += lanes
    return stream


def oracle(fleet: Fleet, lane: Lane) -> bool:
    """The verdict the scalar :func:`verify_report` of the code under
    test gives, with the same policy pins the service applies."""
    identity = fleet.identities.get(lane.device_id)
    if identity is None:
        return False
    try:
        report = AttestationReport.decode(lane.report)
    except ValueError:
        return False
    return verify_report(report, identity,
                         expected_enclave_hash=lane.pin,
                         expected_sm_hash=fleet.sm_hashes[lane.device_id])


def with_oracle(fleet: Fleet, stream: list) -> list:
    """Attach expected verdicts: honest lanes must verify, every
    hostile lane gets the scalar oracle's verdict."""
    return [lane if lane.kind == "honest" else
            Lane(lane.device_id, lane.report, lane.pin, lane.kind,
                 oracle(fleet, lane))
            for lane in stream]


def batch_plan(count: int, rng: random.Random) -> list:
    """Batch sizes summing to ``count``: :data:`BATCH_CYCLE` cycled,
    the last size cut to fit, in a seeded order."""
    plan = []
    while count > 0:
        for size in BATCH_CYCLE:
            plan.append(min(size, count))
            count -= plan[-1]
            if not count:
                break
    rng.shuffle(plan)
    return plan


def arrivals(plan: list) -> list:
    """Arrivals per simulated tick: each batch of ``plan`` spread over
    :data:`DEADLINE_TICKS` ticks."""
    return [size // DEADLINE_TICKS + (tick < size % DEADLINE_TICKS)
            for size in plan for tick in range(DEADLINE_TICKS)]
